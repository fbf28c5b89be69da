package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"neurdb/client"
	"neurdb/internal/txn"
	"neurdb/internal/workload"
)

func TestSupportedPercentile(t *testing.T) {
	cands := []float64{50, 90, 95, 99}
	for _, tc := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{1000, 99, true}, // 10 samples above the 990th
		{999, 95, true},  // p99 has only 9 beyond
		{200, 95, true},  // p95 has exactly 10 beyond
		{199, 90, true},  // p95 has 9 beyond
		{100, 90, true},
		{99, 50, true},
		{20, 50, true},
		{19, 0, false},
		{0, 0, false},
	} {
		got, ok := supportedPercentile(tc.n, cands)
		if got != tc.want || ok != tc.ok {
			t.Errorf("n=%d: got (%v, %v), want (%v, %v)", tc.n, got, ok, tc.want, tc.ok)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	s := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for p, want := range map[float64]float64{50: 5, 90: 9, 95: 10, 99: 10, 10: 1, 1: 1} {
		if got := percentile(s, p); got != want {
			t.Errorf("p%v = %v, want %v", p, got, want)
		}
	}
	if beyond(10, 90) != 1 || beyond(10, 50) != 5 {
		t.Errorf("beyond: got %d and %d", beyond(10, 90), beyond(10, 50))
	}
}

func TestRetryAndFailureAccounting(t *testing.T) {
	conflict := &client.Error{Code: "ERROR", Message: "txn: write-write conflict"}
	var a accounting

	// Two conflicts, then success: retried, not failed.
	n := 0
	retries, err := retryLoop(5, isConflict, func() error {
		if n++; n <= 2 {
			return conflict
		}
		return nil
	})
	a.record(retries, err)

	// Conflicts past the cap: one failure.
	retries, err = retryLoop(3, isConflict, func() error { return fmt.Errorf("update: %w", txn.ErrWriteConflict) })
	if !errors.Is(err, errRetryCap) || retries != 2 {
		t.Fatalf("capped op: retries=%d err=%v", retries, err)
	}
	a.record(retries, err)

	// Any other error fails at once.
	other := errors.New("connection reset")
	retries, err = retryLoop(5, isConflict, func() error { return other })
	if retries != 0 || err != other {
		t.Fatalf("other error: retries=%d err=%v", retries, err)
	}
	a.record(retries, err)

	if a.attempted != 3 || a.failed != 2 || a.retries != 4 {
		t.Fatalf("attempted=%d failed=%d retries=%d, want 3, 2, 4", a.attempted, a.failed, a.retries)
	}
	if !errors.Is(a.firstErr, errRetryCap) {
		t.Fatalf("first error %v, want the retry-cap failure", a.firstErr)
	}
}

// The hand-sized instance's answers, worked out by hand from tinyStats.
func TestStatsCountsHandSized(t *testing.T) {
	in := tinyStats()
	d := in.base
	want := []int64{2, 2, 2, 3, 3, 2, 3, 4}
	for ti, w := range want {
		c := in.consts[ti][0]
		if got := statsTemplates[ti].count(&d, c[0], c[1]); got != w {
			t.Errorf("Q%d(%d, %d) = %d, want %d", ti+1, c[0], c[1], got, w)
		}
	}

	// After the drift slice (post 4: owner 2, score 80, no comments or
	// votes) Q1 gains a row and Q4, Q8 do not.
	var ck checks
	run := &statsRun{in: in, answers: []statsAnswer{
		{0, 0, 0, 2}, {0, 3, 0, 3}, {0, 7, 0, 4},
		{1, 0, 0, 3}, {1, 3, 0, 3}, {1, 7, 0, 4},
	}}
	run.verify(&ck)
	if !ck.ok() {
		t.Fatalf("right answers rejected: %v", ck.fails)
	}
	run.answers[3].got = 2 // the pre-drift count, now wrong
	ck = checks{}
	run.verify(&ck)
	if ck.ok() {
		t.Fatal("a corrupted COUNT passed the check")
	}
	if run.epoch = 1; run.tableCounts()["posts"] != 5 {
		t.Fatalf("posts after one slice: %d", run.tableCounts()["posts"])
	}
}

func TestCheckersRejectCorruptedAnswers(t *testing.T) {
	if err := checkersLive(); err != nil {
		t.Fatal(err)
	}
	if _, err := predictMAE([]float64{0.5, 0.25}, []int64{7, 9}, map[int64]float64{7: 0.5, 8: 0.25}); err == nil {
		t.Fatal("predict check accepted a prediction for a row that was not inserted")
	}
	mae, err := predictMAE([]float64{0.5, 0.25}, []int64{7, 8}, map[int64]float64{7: 0.25, 8: 0.25})
	if err != nil || mae != 0.125 {
		t.Fatalf("mae=%v err=%v, want 0.125", mae, err)
	}
	if _, err := predictMAE([]float64{math.Inf(1)}, []int64{7}, map[int64]float64{7: 0.5}); err == nil {
		t.Fatal("predict check accepted an infinite prediction")
	}
}

func TestSpanSelfTime(t *testing.T) {
	parent := span{Start: 0, End: 100, Parent: -1}
	children := []span{
		{Start: 10, End: 30}, {Start: 20, End: 50}, // overlap: [10, 50)
		{Start: 90, End: 120}, // clipped to [90, 100)
		{Start: -5, End: 5},   // clipped to [0, 5)
		{Start: 60, End: 60},  // empty
	}
	if got := selfTime(parent, children); got != 45 {
		t.Fatalf("self time %d, want 45", got)
	}
	if got := selfTime(parent, nil); got != 100 {
		t.Fatalf("self time without children %d, want 100", got)
	}

	spans := []span{
		{Name: "op", Start: 0, End: 100, Parent: -1, Op: 1},
		{Name: "layer", Start: 0, End: 80, Parent: 0, Op: 1},
		{Name: "sub", Start: 0, End: 80, Parent: 1, Op: 1}, // nested: not a root's child
		{Name: "op", Start: 200, End: 300, Parent: -1, Op: 2},
		{Name: "layer", Start: 200, End: 300, Parent: 3, Op: 2},
		{Name: "open", Start: 300, End: -1, Parent: -1, Op: 3}, // never closed
	}
	if got := unattributedShare(spans); got != 0.1 {
		t.Fatalf("unattributed share %v, want 0.1", got)
	}
}

func TestInputsFollowTheSeed(t *testing.T) {
	_, a := genYCSB(7)
	_, b := genYCSB(7)
	_, c := genYCSB(8)
	if a != b || a == c {
		t.Fatalf("ycsb hashes: seed 7 %s and %s, seed 8 %s", a, b, c)
	}
	if genStats(7).hash != genStats(7).hash || genStats(7).hash == genStats(8).hash {
		t.Fatal("stats hash does not follow the seed")
	}
	g := func(s int64) string { return (&predictGen{seed: s, av: workload.NewAvazu(s)}).hash() }
	if g(7) != g(7) || g(7) == g(8) {
		t.Fatal("predict hash does not follow the seed")
	}
}

// BENCHMARK.json's per-layer list must be exactly what a traced run reports.
func TestBenchmarkJSONListsEveryLayerMetric(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Skip("no BENCHMARK.json next to the benchmark:", err)
	}
	var spec struct {
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	listed := map[string]string{}
	for _, m := range spec.PerLayer {
		listed[m.Name] = m.Unit
	}
	if !reflect.DeepEqual(listed, allLayerMetrics) {
		t.Fatalf("BENCHMARK.json per_layer %v\ndiffers from the traced run's metrics %v", listed, allLayerMetrics)
	}
}

// The traced ycsb run shares the tracer, the accounting and the optimizer
// and parse collectors between its two clients; run it briefly, under
// -race in CI, and require a correct, fully reported result.
func TestTracedYCSBSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("loads 100k rows into an in-process database")
	}
	dir := t.TempDir()
	env := &runEnv{seed: 1, seconds: 2, runDir: dir, traceOut: filepath.Join(dir, "trace.jsonl")}
	out := &outcome{metrics: map[string]metric{}, record: map[string]any{}}
	if err := traceYCSB(env, out); err != nil {
		t.Fatal(err)
	}
	if !out.checks.ok() || out.acct.attempted == 0 || out.acct.failed != 0 {
		t.Fatalf("correct=%v attempted=%d failed=%d: %v %v", out.checks.ok(), out.acct.attempted, out.acct.failed, out.checks.fails, out.acct.firstErr)
	}
	for name := range allLayerMetrics {
		if name == "env.fsync_us" { // set by main before the workload runs
			continue
		}
		if _, ok := out.metrics[name]; !ok {
			t.Errorf("traced run did not report %s", name)
		}
	}
}
