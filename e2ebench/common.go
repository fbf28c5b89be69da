package main

import (
	"errors"
	"fmt"
	"net"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"neurdb"
	"neurdb/client"
	"neurdb/internal/executor"
	"neurdb/internal/plan"
	"neurdb/internal/rel"
	"neurdb/internal/server"
	"neurdb/internal/sqlparse"
	"neurdb/internal/txn"
)

// isConflict reports whether err is a write-write or serialization
// conflict, which the workloads retry instead of counting as a failure.
func isConflict(err error) bool {
	if errors.Is(err, txn.ErrWriteConflict) {
		return true
	}
	var ce *client.Error
	if errors.As(err, &ce) {
		return strings.Contains(ce.Message, "conflict") || strings.Contains(ce.Message, "serializ")
	}
	return strings.Contains(err.Error(), "conflict")
}

// queryRows runs a read through the wire and returns all rows.
func queryRows(c *client.Conn, sql string, args ...any) ([][]any, error) {
	rows, err := c.Query(sql, args...)
	if err != nil {
		return nil, err
	}
	return drainWire(rows)
}

// drainWire reads every row of a wire cursor.
func drainWire(rows *client.Rows) ([][]any, error) {
	var out [][]any
	for rows.Next() {
		out = append(out, rows.Values())
	}
	if err := rows.Close(); err != nil {
		return nil, err
	}
	return out, rows.Err()
}

// drainLocal reads every row of an in-process cursor.
func drainLocal(rows *neurdb.Rows) ([]rel.Row, error) {
	var out []rel.Row
	for rows.Next() {
		out = append(out, rows.Row())
	}
	if err := rows.Close(); err != nil {
		return nil, err
	}
	return out, rows.Err()
}

// queryInt runs a one-row, one-column integer query through the wire.
func queryInt(c *client.Conn, sql string) (int64, error) {
	rows, err := queryRows(c, sql)
	if err != nil {
		return 0, err
	}
	if len(rows) != 1 || len(rows[0]) != 1 {
		return 0, fmt.Errorf("%s: want one value, got %v", sql, rows)
	}
	switch v := rows[0][0].(type) {
	case int64:
		return v, nil
	case float64:
		return int64(v), nil
	case nil:
		return 0, nil
	}
	return 0, fmt.Errorf("%s: non-numeric %T", sql, rows[0][0])
}

// setLatency reports the median and the workload's fixed tail percentile of
// the per-operation latencies, and records the sample size and the highest
// percentile the sample supports.
func setLatency(out *outcome, lat *latencies, tailP float64) {
	s := lat.sorted()
	out.set("latency_p50_ms", "ms", percentile(s, 50))
	out.set("latency_tail_ms", "ms", percentile(s, tailP))
	out.record["latency_samples"] = len(s)
	out.record["latency_tail_percentile"] = tailP
	out.record["latency_tail_beyond"] = beyond(len(s), tailP)
	if p, ok := supportedPercentile(len(s), []float64{50, 90, 99, 99.9}); ok {
		out.record["latency_supported_percentile"] = p
	}
}

// inproc is the traced run's system under test: a durable neurdb.DB with
// the same settings as neurdb-server's defaults, served by internal/server
// on a loopback port.
type inproc struct {
	db   *neurdb.DB
	srv  *server.Server
	addr string
	done chan error
}

func openInproc(dataDir string) (*inproc, error) {
	cfg := neurdb.DefaultConfig()
	cfg.DataDir = dataDir
	cfg.WalSync = "commit"
	cfg.WalSyncInterval = 2 * time.Millisecond
	cfg.CheckpointInterval = time.Minute
	cfg.CheckpointWalMB = 64
	db, err := neurdb.OpenDB(cfg)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		db.Close()
		return nil, err
	}
	ip := &inproc{db: db, srv: server.New(db, server.Config{}), addr: ln.Addr().String(), done: make(chan error, 1)}
	go func() { ip.done <- ip.srv.Serve(ln) }()
	return ip, nil
}

func (ip *inproc) connect() (*client.Conn, error) { return client.Connect(ip.addr) }

func (ip *inproc) close() error {
	ip.srv.Shutdown(5 * time.Second)
	<-ip.done
	return ip.db.Close()
}

// counters snapshots the engine's cumulative counters that per-layer
// metrics are computed from.
type counters struct {
	stripeWaits                    uint64
	planHits, planMisses           uint64
	poolHits, poolMisses           uint64
	walFsyncs, walBytes, ckptPages float64
	modelBytes                     int64
	heapInuse                      uint64
}

// snapCounters reads the counters; with gc it first collects garbage so
// HeapInuse reflects live data.
func snapCounters(db *neurdb.DB, gc bool) counters {
	var c counters
	_, c.stripeWaits = db.TxnManager().StripeStats()
	c.planHits, c.planMisses = db.PlanCacheStats()
	c.poolHits, c.poolMisses = db.BufferPool().Stats()
	m := db.Monitor()
	c.walFsyncs, c.walBytes, c.ckptPages = m.Total("wal.fsyncs"), m.Total("wal.bytes"), m.Total("ckpt.pages")
	c.modelBytes = db.ModelStore().StorageBytes()
	if gc {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		c.heapInuse = ms.HeapInuse
	}
	return c
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// layerCounts are the benchmark-side counts of one phase that the engine's
// counters are divided by.
type layerCounts struct {
	writeCommits int // committed transactions that wrote (incl. autocommit writes)
	rowsWritten  int // rows updated or inserted
	retries      int // conflict retries
}

// setCounterMetrics reports the per-layer metrics computed from counter
// deltas over one untraced phase. The abort ratio counts the conflict
// aborts the clients saw (each one is retried): txn.Manager.Stats books
// every non-SSI abort as a write conflict, read-only finalizers and
// explicit ROLLBACKs included, so it cannot tell conflicts apart.
func setCounterMetrics(out *outcome, a, b counters, lc layerCounts) {
	wc := float64(lc.writeCommits)
	out.set("txn.abort_ratio", "ratio", ratio(float64(lc.retries), wc+float64(lc.retries)))
	out.set("txn.retries_per_commit", "ratio", ratio(float64(lc.retries), wc))
	out.set("txn.stripe_waits_per_commit", "ratio", ratio(float64(b.stripeWaits-a.stripeWaits), wc))
	fsyncs := b.walFsyncs - a.walFsyncs
	out.set("wal.fsyncs_per_commit", "ratio", ratio(fsyncs, wc))
	out.set("wal.group_size", "commits", ratio(wc, fsyncs))
	out.set("wal.bytes_per_commit", "B", ratio(b.walBytes-a.walBytes, wc))
	out.set("wal.ckpt_pages", "count", b.ckptPages-a.ckptPages)
	hits, misses := float64(b.planHits-a.planHits), float64(b.planMisses-a.planMisses)
	out.set("plancache.hit_ratio", "ratio", ratio(hits, hits+misses))
	ph, pm := float64(b.poolHits-a.poolHits), float64(b.poolMisses-a.poolMisses)
	out.set("storage.pool_hit_ratio", "ratio", ratio(ph, ph+pm))
	grow := (float64(b.heapInuse) - float64(a.heapInuse)) / 1024
	out.set("storage.heap_kib_per_kupdate", "KiB", ratio(grow, float64(lc.rowsWritten)/1000))
}

// planFacts describes one planned SELECT for the optimizer metrics.
type planFacts struct {
	est              float64 // estimated rows of the join under a COUNT, else of the root
	seqScans, iScans int
	isCount          bool
}

// inspectPlan walks a plan for its scan kinds and the estimate the
// optimizer metrics compare against.
func inspectPlan(p plan.Node) planFacts {
	var f planFacts
	f.est, _ = p.Estimates()
	var walk func(n plan.Node, seenAgg bool)
	walk = func(n plan.Node, seenAgg bool) {
		switch t := n.(type) {
		case *plan.SeqScan:
			f.seqScans++
		case *plan.IndexScan:
			f.iScans++
		case *plan.Agg:
			if !seenAgg && len(t.GroupBy) == 0 {
				f.est, _ = t.Child.Estimates()
				f.isCount = true
				seenAgg = true
			}
		default: // other operators only pass the walk on to their inputs
		}
		for _, c := range n.Children() {
			walk(c, seenAgg)
		}
	}
	walk(p, false)
	return f
}

// qerror is the symmetric ratio between an estimate and the true count,
// both floored at one row.
func qerror(est, actual float64) float64 {
	est, actual = max(est, 1), max(actual, 1)
	return max(est/actual, actual/est)
}

// optStats accumulates optimizer and executor observations of re-planned
// reads in a traced run.
type optStats struct {
	mu                   sync.Mutex
	planUS, execUS, qerr []float64
	seqScans, scans      int
	execByKind           map[string][]float64
}

// replan plans sel through DB.PlanSelect and executes the plan with args
// through executor.BuildBatch in a fresh read transaction, each call inside
// its own span, and returns the rows. Both calls are read-only, so running
// them again beside the real statement is safe.
func (o *optStats) replan(tr *tracer, root int, op int64, db *neurdb.DB, sel *sqlparse.Select, args []rel.Value, kind string) ([]rel.Row, error) {
	var p plan.Node
	d, err := tr.do("optimizer.plan", root, op, func() (err error) {
		p, err = db.PlanSelect(sel)
		return err
	})
	if err != nil {
		return nil, err
	}
	planUS := float64(d.Nanoseconds()) / 1e3
	facts := inspectPlan(p)
	if len(args) > 0 {
		p = plan.BindParams(p, args)
	}
	var rows []rel.Row
	d, err = tr.do("executor.select", root, op, func() error {
		mgr := db.TxnManager()
		tx := mgr.Begin(txn.Snapshot, true)
		ctx := &executor.Ctx{Mgr: mgr, Txn: tx, Cat: db.Catalog(), Workers: runtime.GOMAXPROCS(0)}
		it, err := executor.BuildBatch(p, ctx)
		if err == nil {
			rows, err = drainIter(it)
		}
		if err != nil {
			mgr.Abort(tx)
			return err
		}
		return mgr.Commit(tx)
	})
	if err != nil {
		return nil, err
	}
	execUS := float64(d.Nanoseconds()) / 1e3
	actual := float64(len(rows))
	if facts.isCount && len(rows) == 1 && len(rows[0]) == 1 {
		actual = rows[0][0].AsFloat()
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	o.planUS = append(o.planUS, planUS)
	o.seqScans += facts.seqScans
	o.scans += facts.seqScans + facts.iScans
	o.execUS = append(o.execUS, execUS)
	if o.execByKind == nil {
		o.execByKind = map[string][]float64{}
	}
	o.execByKind[kind] = append(o.execByKind[kind], execUS)
	o.qerr = append(o.qerr, qerror(facts.est, actual))
	return rows, nil
}

// drainIter opens, drains and closes a batch iterator, copying the rows
// out of the reused batch.
func drainIter(it executor.BatchIter) ([]rel.Row, error) {
	if err := it.Open(); err != nil {
		it.Close()
		return nil, err
	}
	defer it.Close()
	var out []rel.Row
	b := rel.NewBatch(executor.BatchSize)
	for {
		n, err := it.NextBatch(b)
		if err != nil {
			return nil, err
		}
		if n == 0 {
			return out, nil
		}
		for _, r := range b.Rows {
			out = append(out, append(rel.Row(nil), r...))
		}
	}
}

// setOptMetrics reports the optimizer and executor metrics.
func setOptMetrics(out *outcome, o *optStats) {
	o.mu.Lock()
	defer o.mu.Unlock()
	out.set("optimizer.plan_us", "us", median(o.planUS))
	sort.Float64s(o.qerr)
	out.set("optimizer.qerror_p50", "ratio", percentile(o.qerr, 50))
	out.set("optimizer.qerror_p90", "ratio", percentile(o.qerr, 90))
	out.set("optimizer.seqscan_share", "ratio", ratio(float64(o.seqScans), float64(o.scans)))
	out.set("executor.select_us", "us", median(o.execUS))
	byKind := map[string]float64{}
	for k, v := range o.execByKind {
		byKind[k] = median(v)
	}
	out.record["executor.select_us_by_kind"] = byKind
}

// parseTimer accumulates the parse time of ad-hoc statements against the
// number of statements the workload issued; prepared statements add a
// statement but no parse.
type parseTimer struct {
	mu    sync.Mutex
	ns    int64
	stmts int
}

// adhoc parses sql inside a span, as the server would for a simple-protocol
// statement, and counts it.
func (p *parseTimer) adhoc(tr *tracer, root int, op int64, sql string) (sqlparse.Stmt, error) {
	var st sqlparse.Stmt
	d, err := tr.do("sqlparse.parse", root, op, func() (err error) {
		st, err = sqlparse.Parse(sql)
		return err
	})
	p.mu.Lock()
	p.ns += d.Nanoseconds()
	p.stmts++
	p.mu.Unlock()
	return st, err
}

// prepared counts n executions of prepared statements, which parse nothing.
func (p *parseTimer) prepared(n int) {
	p.mu.Lock()
	p.stmts += n
	p.mu.Unlock()
}

func (p *parseTimer) us() float64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return ratio(float64(p.ns)/1e3, float64(p.stmts))
}

// finishTrace reports the trace calibration metrics, the remaining
// per-layer metrics shared by all workloads, and writes the spans out.
func finishTrace(env *runEnv, out *outcome, tr *tracer, tputUntraced, tputTraced float64) error {
	out.set("trace.unattributed_share", "ratio", unattributedShare(tr.snapshot()))
	out.set("trace.overhead", "ratio", 1-ratio(tputTraced, tputUntraced))
	out.record["throughput_untraced"] = tputUntraced
	out.record["throughput_traced"] = tputTraced
	out.record["spans"] = len(tr.snapshot())
	out.record["trace_file"] = env.traceOut
	return tr.writeJSONL(env.traceOut)
}

// zeroMetrics reports 0 for every per-layer metric the workload does not
// exercise, so each traced run reports the same metric set.
func zeroMetrics(out *outcome, names map[string]string) {
	for name, unit := range names {
		if _, ok := out.metrics[name]; !ok {
			out.set(name, unit, 0)
		}
	}
}

// allLayerMetrics names every per-layer metric with its unit.
var allLayerMetrics = map[string]string{
	"server.rtt_overhead_us":       "us",
	"sqlparse.parse_us":            "us",
	"optimizer.plan_us":            "us",
	"plancache.hit_ratio":          "ratio",
	"optimizer.qerror_p50":         "ratio",
	"optimizer.qerror_p90":         "ratio",
	"optimizer.seqscan_share":      "ratio",
	"executor.select_us":           "us",
	"executor.update_us":           "us",
	"executor.extract_ms":          "ms",
	"txn.commit_us":                "us",
	"txn.abort_ratio":              "ratio",
	"txn.retries_per_commit":       "ratio",
	"txn.stripe_waits_per_commit":  "ratio",
	"wal.fsyncs_per_commit":        "ratio",
	"wal.group_size":               "commits",
	"wal.bytes_per_commit":         "B",
	"wal.ckpt_pages":               "count",
	"storage.heap_kib_per_kupdate": "KiB",
	"storage.pool_hit_ratio":       "ratio",
	"aiengine.finetune_ms":         "ms",
	"aiengine.train_samples_per_s": "samples/s",
	"aiengine.infer_ms":            "ms",
	"aiengine.final_loss":          "loss",
	"aiengine.predict_mae":         "abs_error",
	"models.bytes_per_version":     "B",
	"env.fsync_us":                 "us",
	"trace.unattributed_share":     "ratio",
	"trace.overhead":               "ratio",
}
