// Command e2ebench is NeurDB's end-to-end benchmark: it drives a durable
// neurdb-server child process over loopback through neurdb/client with one
// of three closed-loop workloads, checks every answer against values it
// derives from its own generated inputs, and prints the metrics as one JSON
// line. With -trace 1 it instead replays the same inputs against an
// in-process neurdb.DB behind internal/server and reports a per-layer split
// from spans it records around each layer's public functions.
//
// See README.md for the workloads, the metrics and how they relate. Build
// and run through run.sh, which builds the server from the same checkout.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// setupReps is how many fresh set-ups each untraced run times; setup_s is
// their median. restartReps is how many crash restarts it times; restart_s
// is their median.
const (
	setupReps   = 5
	restartReps = 7
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's final output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runEnv is what a workload run needs to know about its surroundings.
type runEnv struct {
	seed      int64
	seconds   float64
	serverBin string
	runDir    string // scratch directory owned by this run
	traceOut  string // where the traced run writes its spans
}

// dataDir is the durable data directory of the run's server.
func (e *runEnv) dataDir() string { return filepath.Join(e.runDir, "data") }

// outcome is what a workload run reports.
type outcome struct {
	acct    accounting
	checks  checks
	metrics map[string]metric
	record  map[string]any
}

func (o *outcome) set(name, unit string, v float64) { o.metrics[name] = metric{Value: v, Unit: unit} }

type runFunc func(env *runEnv, out *outcome) error

var workloads = map[string]struct{ plain, traced runFunc }{
	"ycsb":          {runYCSB, traceYCSB},
	"stats-drift":   {runStats, traceStats},
	"predict-drift": {runPredict, tracePredict},
}

func main() { os.Exit(run()) }

// run runs the benchmark and returns the exit code; it prints a result
// only when the run completed.
func run() int {
	name := flag.String("workload", "", "workload: ycsb, stats-drift or predict-drift")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 20, "measured seconds")
	traceOn := flag.Int("trace", 0, "1 = traced in-process run reporting per-layer metrics")
	serverBin := flag.String("server", "", "neurdb-server binary")
	work := flag.String("work", ".bench_build", "directory for scratch data and traces")
	flag.Parse()
	root, err := os.Getwd() // the checkout root, hashed to identify the code under test
	if err != nil {
		return fail("%v", err)
	}

	w, ok := workloads[*name]
	if !ok {
		return fail("unknown workload %q", *name)
	}
	if *traceOn == 0 && *serverBin == "" {
		return fail("-server is required for untraced runs")
	}
	runDir, err := os.MkdirTemp(*work, "run-")
	if err != nil {
		return fail("%v", err)
	}
	defer os.RemoveAll(runDir)
	env := &runEnv{
		seed: *seed, seconds: *seconds, serverBin: *serverBin, runDir: runDir,
		traceOut: filepath.Join(*work, fmt.Sprintf("trace-%s-%d.jsonl", *name, *seed)),
	}
	out := &outcome{metrics: map[string]metric{}, record: map[string]any{}}
	if err := os.MkdirAll(env.dataDir(), 0o755); err != nil {
		return fail("%v", err)
	}
	fsyncUS, err := fsyncProbe(env.dataDir(), 64)
	if err != nil {
		return fail("fsync probe: %v", err)
	}
	out.record["workload"] = *name
	out.record["seed"] = *seed
	out.record["trace"] = *traceOn
	out.record["nproc"] = runtime.NumCPU()
	out.record["gomaxprocs"] = runtime.GOMAXPROCS(0)
	out.record["env.fsync_us"] = fsyncUS
	out.record["source_sha256"] = sourceHash(root, *work)
	if b, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output(); err == nil {
		out.record["commit"] = strings.TrimSpace(string(b))
	}

	runWorkload := w.plain
	if *traceOn != 0 {
		runWorkload = w.traced
		out.set("env.fsync_us", "us", fsyncUS)
	}
	if err := checkersLive(); err != nil {
		out.checks.failf("self-test: %v", err)
	}
	t0 := time.Now()
	if err := runWorkload(env, out); err != nil {
		return fail("%s: %v", *name, err)
	}
	if out.acct.attempted == 0 {
		return fail("%s: no operation was attempted", *name)
	}
	out.record["wall_s"] = time.Since(t0).Seconds()
	out.record["retries"] = out.acct.retries
	if out.acct.firstErr != nil {
		out.record["first_error"] = out.acct.firstErr.Error()
	}
	if len(out.checks.fails) > 0 {
		out.record["check_failures"] = out.checks.fails
	}
	rec, _ := json.Marshal(map[string]any{"record": out.record})
	fmt.Println(string(rec))
	res, _ := json.Marshal(result{
		Correct:   out.checks.ok(),
		Attempted: out.acct.attempted,
		Failed:    out.acct.failed,
		Metrics:   out.metrics,
	})
	fmt.Println(string(res))
	return 0
}

func fail(format string, args ...any) int {
	fmt.Fprintf(os.Stderr, "e2ebench: "+format+"\n", args...)
	return 1
}
