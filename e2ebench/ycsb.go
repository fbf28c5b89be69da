package main

import (
	"errors"
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"neurdb"
	"neurdb/client"
	"neurdb/internal/cc"
	"neurdb/internal/rel"
	"neurdb/internal/sqlparse"
	"neurdb/internal/workload"
)

const (
	ycsbRows     = 100000
	ycsbOps      = 20000 // generated operation stream, consumed cyclically
	ycsbClients  = 2
	ycsbScanLen  = 100
	ycsbScanP    = 0.10 // share of operations that are YCSB-E short scans
	ycsbMaxTries = 10
	ycsbUpdates  = 5 // UPDATEs per read-write transaction
	loadBatch    = 1000

	ycsbReadSQL   = `SELECT k, f0, f1, f2 FROM usertable WHERE k = ?`
	ycsbUpdateSQL = `UPDATE usertable SET f0 = f0 + 1 WHERE k = ?`
	ycsbScanSQL   = `SELECT k, f0 FROM usertable WHERE k BETWEEN ? AND ?`
)

// ycsbOp is one generated operation: a short scan of ycsbScanLen keys from
// start, or a transaction reading keys[:5] and updating keys[5:].
type ycsbOp struct {
	scan  bool
	start int
	keys  [10]int
}

// genYCSB generates the operation stream from seed and hashes it.
func genYCSB(seed int64) ([]ycsbOp, string) {
	r := rand.New(rand.NewSource(seed))
	gen := workload.NewYCSB(ycsbRows, 0.99)
	ih := newInputHash()
	ih.ints(ycsbRows)
	var t cc.Txn
	ops := make([]ycsbOp, ycsbOps)
	for i := range ops {
		if r.Float64() < ycsbScanP {
			s := min(gen.Key(r), ycsbRows-ycsbScanLen)
			ops[i] = ycsbOp{scan: true, start: s}
			ih.ints(-1, int64(s))
			continue
		}
		gen.Generate(r, &t)
		for j, o := range t.Ops {
			ops[i].keys[j] = o.Key
			ih.ints(int64(o.Key))
		}
	}
	return ops, ih.sum()
}

// ycsbF1 and ycsbF2 are the immutable columns of row k.
func ycsbF1(k int) float64 { return float64(k) / 4 }
func ycsbF2(k int) string  { return "v" + strconv.Itoa(k) }

// loadYCSB creates usertable and inserts ycsbRows rows with f0 = 0.
func loadYCSB(c *client.Conn) error {
	if _, err := c.Exec(`CREATE TABLE usertable (k INT PRIMARY KEY, f0 INT, f1 DOUBLE, f2 TEXT)`); err != nil {
		return err
	}
	var sb strings.Builder
	for lo := 0; lo < ycsbRows; lo += loadBatch {
		sb.Reset()
		sb.WriteString("INSERT INTO usertable VALUES ")
		for k := lo; k < min(lo+loadBatch, ycsbRows); k++ {
			if k > lo {
				sb.WriteByte(',')
			}
			fmt.Fprintf(&sb, "(%d, 0, %.2f, '%s')", k, ycsbF1(k), ycsbF2(k))
		}
		if _, err := c.Exec(sb.String()); err != nil {
			return err
		}
	}
	return nil
}

// checkPointRow verifies a point read of key k returned exactly its row
// image (f0 is the only mutable column and must be non-negative).
func checkPointRow(k int, rows [][]any) error {
	if len(rows) != 1 || len(rows[0]) != 4 {
		return fmt.Errorf("read k=%d: got %d rows", k, len(rows))
	}
	r := rows[0]
	gotK, ok1 := r[0].(int64)
	f0, ok2 := r[1].(int64)
	f1, ok3 := r[2].(float64)
	f2, ok4 := r[3].(string)
	if !ok1 || !ok2 || !ok3 || !ok4 || gotK != int64(k) || f0 < 0 || f1 != ycsbF1(k) || f2 != ycsbF2(k) {
		return fmt.Errorf("read k=%d: got row %v", k, r)
	}
	return nil
}

// checkScan verifies a scan from start returned exactly its key set.
func checkScan(start int, keys []int64) error {
	if len(keys) != ycsbScanLen {
		return fmt.Errorf("scan %d: got %d rows, want %d", start, len(keys), ycsbScanLen)
	}
	seen := make(map[int64]bool, len(keys))
	for _, k := range keys {
		if k < int64(start) || k >= int64(start+ycsbScanLen) || seen[k] {
			return fmt.Errorf("scan %d: unexpected key %d", start, k)
		}
		seen[k] = true
	}
	return nil
}

// errCheck marks a wrong answer; the operation fails and the run is not
// correct.
var errCheck = errors.New("output check failed")

// ycsbState is shared by the clients of one run.
type ycsbState struct {
	ops       []ycsbOp
	next      atomic.Int64
	committed atomic.Int64 // acknowledged read-write transactions
	scans     atomic.Int64
	inflight  atomic.Int64 // read-write transactions cut off by the crash
}

func (s *ycsbState) op() *ycsbOp {
	i := s.next.Add(1) - 1
	return &s.ops[int(i)%len(s.ops)]
}

// ycsbClient is one wire connection with its prepared statements.
type ycsbClient struct {
	c                    *client.Conn
	read, update, scanSt *client.Stmt
}

func newYCSBClient(c *client.Conn) (*ycsbClient, error) {
	w := &ycsbClient{c: c}
	var err error
	if w.read, err = c.Prepare(ycsbReadSQL); err != nil {
		return nil, err
	}
	if w.update, err = c.Prepare(ycsbUpdateSQL); err != nil {
		return nil, err
	}
	if w.scanSt, err = c.Prepare(ycsbScanSQL); err != nil {
		return nil, err
	}
	return w, nil
}

func (w *ycsbClient) readRow(k int) error {
	rows, err := w.read.Query(k)
	if err != nil {
		return err
	}
	got, err := drainWire(rows)
	if err != nil {
		return err
	}
	if err := checkPointRow(k, got); err != nil {
		return fmt.Errorf("%w: %v", errCheck, err)
	}
	return nil
}

func (w *ycsbClient) scan(start int) error {
	rows, err := w.scanSt.Query(start, start+ycsbScanLen-1)
	if err != nil {
		return err
	}
	got, err := drainWire(rows)
	if err != nil {
		return err
	}
	keys := make([]int64, len(got))
	for i, r := range got {
		keys[i], _ = r[0].(int64)
	}
	if err := checkScan(start, keys); err != nil {
		return fmt.Errorf("%w: %v", errCheck, err)
	}
	return nil
}

// txnOnce runs one attempt of a read-write transaction. It reports whether
// any UPDATE was sent, so a crash can bound what may have been applied.
func (w *ycsbClient) txnOnce(op *ycsbOp) (sentWrite bool, err error) {
	defer func() {
		if err != nil {
			w.c.Exec("ROLLBACK") // the txn may already be finalized; nothing to report
		}
	}()
	if _, err := w.c.Exec("BEGIN"); err != nil {
		return false, err
	}
	for _, k := range op.keys[:5] {
		if err := w.readRow(k); err != nil {
			return false, err
		}
	}
	for _, k := range op.keys[5:] {
		sentWrite = true
		res, err := w.update.Exec(k)
		if err != nil {
			return true, err
		}
		if res.Affected != 1 {
			return true, fmt.Errorf("%w: update k=%d affected %d rows", errCheck, k, res.Affected)
		}
	}
	_, err = w.c.Exec("COMMIT")
	return true, err
}

// drive runs the closed loop on ycsbClients connections until stop is
// closed or, with crash set, until the first error (the server was
// killed). Measured operations are booked in acct, lat and ck.
func (s *ycsbState) drive(addr string, stop <-chan struct{}, crash bool, acct *accounting, lat *latencies, ck *checks) error {
	var wg sync.WaitGroup
	errc := make(chan error, ycsbClients)
	for i := 0; i < ycsbClients; i++ {
		c, err := client.Connect(addr)
		if err != nil {
			return err
		}
		w, err := newYCSBClient(c)
		if err != nil {
			c.Close()
			return err
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer c.Close()
			errc <- s.clientLoop(w, stop, crash, acct, lat, ck)
		}()
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		if err != nil {
			return err
		}
	}
	return nil
}

func (s *ycsbState) clientLoop(w *ycsbClient, stop <-chan struct{}, crash bool, acct *accounting, lat *latencies, ck *checks) error {
	for !stopped(stop) {
		op := s.op()
		t0 := time.Now()
		if op.scan {
			err := w.scan(op.start)
			if crash {
				if err != nil {
					return nil
				}
				continue
			}
			if err == nil {
				s.scans.Add(1)
				lat.add(time.Since(t0))
			} else if errors.Is(err, errCheck) {
				ck.failf("%v", err)
			}
			acct.record(0, err)
			continue
		}
		var sent bool
		retries, err := retryLoop(ycsbMaxTries, isConflict, func() (err error) {
			sent, err = w.txnOnce(op)
			return err
		})
		if crash {
			if err != nil {
				if sent {
					s.inflight.Add(1)
				}
				return nil
			}
			s.committed.Add(1)
			continue
		}
		if err == nil {
			s.committed.Add(1)
			lat.add(time.Since(t0))
		} else if errors.Is(err, errCheck) {
			ck.failf("%v", err)
		}
		acct.record(retries, err)
	}
	return nil
}

// stopped reports whether stop has been closed.
func stopped(stop <-chan struct{}) bool {
	select {
	case <-stop:
		return true
	default:
		return false
	}
}

// runFor closes a stop channel after d and returns it.
func runFor(d time.Duration) <-chan struct{} {
	stop := make(chan struct{})
	time.AfterFunc(d, func() { close(stop) })
	return stop
}

// checkSum verifies SUM(f0) and COUNT(*) of usertable: the count must be
// ycsbRows and the sum within [lo, hi].
func checkSum(c *client.Conn, lo, hi int64) error {
	n, err := queryInt(c, `SELECT COUNT(*) FROM usertable`)
	if err != nil {
		return err
	}
	sum, err := queryInt(c, `SELECT SUM(f0) FROM usertable`)
	if err != nil {
		return err
	}
	if n != ycsbRows || sum < lo || sum > hi {
		return fmt.Errorf("usertable has %d rows and SUM(f0) = %d; want %d rows and a sum in [%d, %d]", n, sum, ycsbRows, lo, hi)
	}
	return nil
}

// runYCSB is the untraced run against a neurdb-server child process.
func runYCSB(env *runEnv, out *outcome) error {
	ops, h := genYCSB(env.seed)
	out.record["input_hash"] = h
	srv, setup, err := timedSetup(env.serverBin, env.dataDir(), setupReps, func(p *serverProc) error {
		c, err := p.connect()
		if err != nil {
			return err
		}
		defer c.Close()
		return loadYCSB(c)
	})
	if err != nil {
		return err
	}
	defer func() { srv.stop() }()
	out.set("setup_s", "s", setup)

	st := &ycsbState{ops: ops}
	lat := &latencies{}
	stop := runFor(secondsDur(env.seconds))
	t0 := time.Now()
	if err := st.drive(srv.addr, stop, false, &out.acct, lat, &out.checks); err != nil {
		return err
	}
	elapsed := time.Since(t0).Seconds()
	out.set("throughput", "op/s", float64(st.committed.Load()+st.scans.Load())/elapsed)
	setLatency(out, lat, 95)
	rss, err := srv.peakRSSMiB()
	if err != nil {
		return err
	}
	out.set("peak_rss_mib", "MiB", rss)
	out.record["committed_txns"] = st.committed.Load()

	c, err := srv.connect()
	if err != nil {
		return err
	}
	acked := ycsbUpdates * st.committed.Load()
	if err := checkSum(c, acked, acked); err != nil {
		out.checks.failf("after the measured phase: %v", err)
	}
	c.Close()

	// Crash with transactions in flight: keep the clients running and
	// SIGKILL the server under them.
	stopCrash := make(chan struct{})
	crashErr := make(chan error, 1)
	go func() { crashErr <- st.drive(srv.addr, stopCrash, true, &accounting{}, &latencies{}, &out.checks) }()
	time.Sleep(300 * time.Millisecond)
	srv.kill()
	close(stopCrash)
	if err := <-crashErr; err != nil {
		return err
	}
	acked = ycsbUpdates * st.committed.Load()
	inflight := st.inflight.Load()
	out.record["inflight_at_kill"] = inflight

	srv, restart, restarts, err := crashRestart(srv, env.serverBin, env.dataDir(), restartReps, func(c *client.Conn) error {
		rows, err := queryRows(c, ycsbReadSQL, 0)
		if err != nil {
			return err
		}
		return checkPointRow(0, rows)
	})
	if err != nil {
		return err
	}
	out.set("restart_s", "s", restart)
	out.record["restart_s_each"] = restarts
	c, err = srv.connect()
	if err != nil {
		return err
	}
	defer c.Close()
	if err := checkSum(c, acked, acked+ycsbUpdates*inflight); err != nil {
		out.checks.failf("after crash and restart: %v", err)
	}
	return nil
}

func secondsDur(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// traceYCSB is the traced run: the same inputs against an in-process DB.
// The first half of the time runs the wire loop untraced (counter-based
// metrics and the throughput trace.overhead compares against); the second
// half runs each transaction through an in-process Session, timing every
// layer call, and re-executes reads over the wire and through the planner
// and executor to split them.
func traceYCSB(env *runEnv, out *outcome) error {
	ops, h := genYCSB(env.seed)
	out.record["input_hash"] = h
	ip, err := openInproc(env.dataDir())
	if err != nil {
		return err
	}
	defer ip.close()
	c, err := ip.connect()
	if err != nil {
		return err
	}
	if err := loadYCSB(c); err != nil {
		return err
	}
	c.Close()

	st := &ycsbState{ops: ops}
	half := secondsDur(env.seconds / 2)
	before := snapCounters(ip.db, true)
	t0 := time.Now()
	if err := st.drive(ip.addr, runFor(half), false, &out.acct, &latencies{}, &out.checks); err != nil {
		return err
	}
	tputA := float64(st.committed.Load()+st.scans.Load()) / time.Since(t0).Seconds()
	after := snapCounters(ip.db, true)
	setCounterMetrics(out, before, after, layerCounts{
		writeCommits: int(st.committed.Load()),
		rowsWritten:  ycsbUpdates * int(st.committed.Load()),
		retries:      out.acct.retries,
	})

	tr := newTracer()
	tc := &ycsbTraced{db: ip.db, tr: tr, st: st, out: out}
	if tc.readSel, err = parseSelect(ycsbReadSQL); err != nil {
		return err
	}
	if tc.scanSel, err = parseSelect(ycsbScanSQL); err != nil {
		return err
	}
	doneA := st.committed.Load() + st.scans.Load()
	t1 := time.Now()
	stop := runFor(half)
	var wg sync.WaitGroup
	errc := make(chan error, ycsbClients)
	for i := 0; i < ycsbClients; i++ {
		w, err := tc.newWorker(ip)
		if err != nil {
			return err
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			errc <- w.loop(stop)
		}()
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		if err != nil {
			return err
		}
	}
	tputB := float64(st.committed.Load()+st.scans.Load()-doneA) / time.Since(t1).Seconds()

	tc.mu.Lock()
	out.set("server.rtt_overhead_us", "us", median(tc.rttUS))
	out.set("sqlparse.parse_us", "us", tc.parse.us())
	out.set("executor.update_us", "us", median(tc.updateUS))
	out.set("txn.commit_us", "us", median(tc.commitUS))
	setOptMetrics(out, &tc.opt)
	tc.mu.Unlock()

	c, err = ip.connect()
	if err != nil {
		return err
	}
	acked := ycsbUpdates * st.committed.Load()
	if err := checkSum(c, acked, acked); err != nil {
		out.checks.failf("after the traced run: %v", err)
	}
	c.Close()
	if err := finishTrace(env, out, tr, tputA, tputB); err != nil {
		return err
	}
	zeroMetrics(out, allLayerMetrics)
	return nil
}

func parseSelect(sql string) (*sqlparse.Select, error) {
	st, err := sqlparse.Parse(sql)
	if err != nil {
		return nil, err
	}
	sel, ok := st.(*sqlparse.Select)
	if !ok {
		return nil, fmt.Errorf("%s: not a SELECT", sql)
	}
	return sel, nil
}

// ycsbTraced holds the traced run's shared state and observations.
type ycsbTraced struct {
	db               *neurdb.DB
	tr               *tracer
	st               *ycsbState
	out              *outcome
	readSel, scanSel *sqlparse.Select
	opID             atomic.Int64

	mu                        sync.Mutex
	rttUS, updateUS, commitUS []float64
	parse                     parseTimer
	opt                       optStats
}

// ycsbTracedWorker is one traced client: a wire connection for reads and
// an in-process session that runs the transactions.
type ycsbTracedWorker struct {
	t            *ycsbTraced
	wire         *ycsbClient
	sess         *neurdb.Session
	sRead, sScan *neurdb.Stmt
}

func (t *ycsbTraced) newWorker(ip *inproc) (*ycsbTracedWorker, error) {
	c, err := ip.connect()
	if err != nil {
		return nil, err
	}
	wire, err := newYCSBClient(c)
	if err != nil {
		c.Close()
		return nil, err
	}
	w := &ycsbTracedWorker{t: t, wire: wire, sess: t.db.NewSession()}
	if w.sRead, err = w.sess.Prepare(ycsbReadSQL); err != nil {
		return nil, err
	}
	if w.sScan, err = w.sess.Prepare(ycsbScanSQL); err != nil {
		return nil, err
	}
	return w, nil
}

func (w *ycsbTracedWorker) loop(stop <-chan struct{}) error {
	defer w.wire.c.Close()
	defer w.sess.Close()
	t := w.t
	for !stopped(stop) {
		op := t.st.op()
		id := t.opID.Add(1)
		if op.scan {
			root := t.tr.begin("ycsb.scan", -1, id)
			err := w.scan(root, id, op.start)
			t.tr.end(root)
			if err == nil {
				t.st.scans.Add(1)
			} else if errors.Is(err, errCheck) {
				t.out.checks.failf("%v", err)
			}
			t.out.acct.record(0, err)
			continue
		}
		root := t.tr.begin("ycsb.txn", -1, id)
		retries, err := retryLoop(ycsbMaxTries, isConflict, func() error { return w.txnOnce(root, id, op) })
		t.tr.end(root)
		if err == nil {
			t.st.committed.Add(1)
		} else if errors.Is(err, errCheck) {
			t.out.checks.failf("%v", err)
		}
		t.out.acct.record(retries, err)
	}
	return nil
}

// read times one point read in-process and over the wire (the difference
// is the client/wire/server overhead), then re-plans and re-executes it.
func (w *ycsbTracedWorker) read(root int, id int64, k int) error {
	t := w.t
	dSess, err := t.tr.do("session.select", root, id, func() error {
		rows, err := w.sRead.Query(k)
		if err != nil {
			return err
		}
		got, err := drainLocal(rows)
		if err != nil {
			return err
		}
		return checkLocalRow(k, got)
	})
	if err != nil {
		return err
	}
	dWire, err := t.tr.do("client.select", root, id, func() error { return w.wire.readRow(k) })
	if err != nil {
		return err
	}
	t.mu.Lock()
	t.rttUS = append(t.rttUS, float64((dWire-dSess).Nanoseconds())/1e3)
	t.mu.Unlock()
	t.parse.prepared(1)
	rows, err := t.opt.replan(t.tr, root, id, t.db, t.readSel, []rel.Value{rel.Int(int64(k))}, "point")
	if err != nil {
		return err
	}
	return checkLocalRow(k, rows)
}

func checkLocalRow(k int, rows []rel.Row) error {
	wire := make([][]any, len(rows))
	for i, r := range rows {
		for _, v := range r {
			wire[i] = append(wire[i], v.GoValue())
		}
	}
	if err := checkPointRow(k, wire); err != nil {
		return fmt.Errorf("%w: %v", errCheck, err)
	}
	return nil
}

func (w *ycsbTracedWorker) scan(root int, id int64, start int) error {
	t := w.t
	dSess, err := t.tr.do("session.select", root, id, func() error {
		rows, err := w.sScan.Query(start, start+ycsbScanLen-1)
		if err != nil {
			return err
		}
		_, err = drainLocal(rows)
		return err
	})
	if err != nil {
		return err
	}
	dWire, err := t.tr.do("client.scan", root, id, func() error { return w.wire.scan(start) })
	if err != nil {
		return err
	}
	t.mu.Lock()
	t.rttUS = append(t.rttUS, float64((dWire-dSess).Nanoseconds())/1e3)
	t.mu.Unlock()
	t.parse.prepared(1)
	rows, err := t.opt.replan(t.tr, root, id, t.db, t.scanSel,
		[]rel.Value{rel.Int(int64(start)), rel.Int(int64(start + ycsbScanLen - 1))}, "range")
	if err != nil {
		return err
	}
	keys := make([]int64, len(rows))
	for i, r := range rows {
		keys[i] = r[0].AsInt()
	}
	if err := checkScan(start, keys); err != nil {
		return fmt.Errorf("%w: %v", errCheck, err)
	}
	return nil
}

// txnOnce runs one attempt of a read-write transaction through the
// in-process session; every write executes exactly once.
func (w *ycsbTracedWorker) txnOnce(root int, id int64, op *ycsbOp) (err error) {
	t := w.t
	defer func() {
		if err != nil {
			w.sess.Exec("ROLLBACK") // the txn may already be finalized; nothing to report
		}
	}()
	if err := w.adhoc(root, id, "txn.begin", "BEGIN"); err != nil {
		return err
	}
	for _, k := range op.keys[:5] {
		if err := w.read(root, id, k); err != nil {
			return err
		}
	}
	for _, k := range op.keys[5:] {
		var res *neurdb.Result
		d, err := t.tr.do("executor.update", root, id, func() (err error) {
			res, err = w.sess.Exec(ycsbUpdateSQL, k)
			return err
		})
		if err != nil {
			return err
		}
		if res.Affected != 1 {
			return fmt.Errorf("%w: update k=%d affected %d rows", errCheck, k, res.Affected)
		}
		t.mu.Lock()
		t.updateUS = append(t.updateUS, float64(d.Nanoseconds())/1e3)
		t.mu.Unlock()
		t.parse.prepared(1)
	}
	return w.adhoc(root, id, "txn.commit", "COMMIT")
}

// adhoc times the parse and the execution of a simple-protocol statement.
func (w *ycsbTracedWorker) adhoc(root int, id int64, span, sql string) error {
	t := w.t
	if _, err := t.parse.adhoc(t.tr, root, id, sql); err != nil {
		return err
	}
	d, err := t.tr.do(span, root, id, func() error {
		_, err := w.sess.Exec(sql)
		return err
	})
	if err == nil && span == "txn.commit" {
		t.mu.Lock()
		t.commitUS = append(t.commitUS, float64(d.Nanoseconds())/1e3)
		t.mu.Unlock()
	}
	return err
}
