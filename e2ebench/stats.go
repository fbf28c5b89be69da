package main

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"neurdb"
	"neurdb/client"
	"neurdb/internal/rel"
	"neurdb/internal/sqlparse"
	"neurdb/internal/workload"
)

const (
	// statsDataSeed fixes the STATS database: like the real STATS-CEB
	// benchmark, every run queries one dataset and the run's seed draws
	// the query constants and their order. Its hot join keys make a
	// query's cost hinge on a few rows' filter columns, so a per-seed
	// dataset would make runs with different seeds incomparable.
	statsDataSeed = 1
	statsScale    = 2
	statsVariants = 64  // constant sets per template
	driftSlice    = 500 // drift rows inserted between two rounds
)

// statsTemplate is one of the 8 STATS join templates with its two filter
// constants drawn from [aLo, aHi] and [bLo, bHi], and the benchmark's own
// count of its answer.
type statsTemplate struct {
	format   string
	aLo, aHi int
	bLo, bHi int
	count    func(d *statsData, a, b int64) int64
}

// statsTemplates mirror workload.Stats.Queries with the filter constants
// made variable.
var statsTemplates = []statsTemplate{
	{`SELECT COUNT(*) FROM users u, posts p WHERE u.id = p.owneruserid AND u.reputation > %d AND p.score > %d`,
		100, 2000, 10, 90, countQ1},
	{`SELECT COUNT(*) FROM users u, badges b WHERE u.id = b.userid AND u.upvotes > %d AND b.class = %d`,
		0, 200, 1, 3, countQ2},
	{`SELECT COUNT(*) FROM posts p, comments c WHERE p.id = c.postid AND c.score = %d AND p.viewcount > %d`,
		0, 6, 100, 5000, countQ3},
	{`SELECT COUNT(*) FROM users u, posts p, comments c WHERE u.id = p.owneruserid AND p.id = c.postid AND u.reputation > %d AND p.score > %d`,
		20, 1000, 5, 80, countQ4},
	{`SELECT COUNT(*) FROM posts p, votes v WHERE p.id = v.postid AND v.votetypeid = %d AND p.score > %d`,
		1, 10, 40, 95, countQ5},
	{`SELECT COUNT(*) FROM users u, comments c, badges b WHERE u.id = c.userid AND u.id = b.userid AND c.score > %d AND b.class = %d`,
		0, 10, 1, 3, countQ6},
	{`SELECT COUNT(*) FROM posts p, posthistory h, votes v WHERE p.id = h.postid AND p.id = v.postid AND h.typeid = %d AND p.answercount > %d`,
		1, 6, 0, 8, countQ7},
	{`SELECT COUNT(*) FROM users u, posts p, comments c, votes v WHERE u.id = p.owneruserid AND p.id = c.postid AND p.id = v.postid AND u.reputation > %d AND p.score > %d`,
		200, 3000, 20, 90, countQ8},
}

// statsData is the benchmark's copy of every row it has inserted.
type statsData map[string][]rel.Row

func col(r rel.Row, i int) int64 { return r[i].AsInt() }

// countBy returns, per value of column key, the number of rows of t that
// pass keep.
func (d *statsData) countBy(t string, key int, keep func(rel.Row) bool) map[int64]int64 {
	m := make(map[int64]int64)
	for _, r := range (*d)[t] {
		if keep(r) {
			m[col(r, key)]++
		}
	}
	return m
}

func all(rel.Row) bool { return true }

// Column positions, as in workload.Stats.Tables.
const (
	uID, uRep, uUp                   = 0, 1, 2
	pID, pOwner, pScore, pView, pAns = 0, 1, 2, 3, 4
	cPost, cUser, cScore             = 1, 2, 3
	vPost, vType                     = 1, 3
	bUser, bClass                    = 1, 2
	hPost, hType                     = 1, 3
)

func countQ1(d *statsData, a, b int64) int64 {
	u := d.countBy("users", uID, func(r rel.Row) bool { return col(r, uRep) > a })
	var n int64
	for _, p := range (*d)["posts"] {
		if col(p, pScore) > b {
			n += u[col(p, pOwner)]
		}
	}
	return n
}

func countQ2(d *statsData, a, b int64) int64 {
	u := d.countBy("users", uID, func(r rel.Row) bool { return col(r, uUp) > a })
	var n int64
	for _, r := range (*d)["badges"] {
		if col(r, bClass) == b {
			n += u[col(r, bUser)]
		}
	}
	return n
}

func countQ3(d *statsData, a, b int64) int64 {
	p := d.countBy("posts", pID, func(r rel.Row) bool { return col(r, pView) > b })
	var n int64
	for _, r := range (*d)["comments"] {
		if col(r, cScore) == a {
			n += p[col(r, cPost)]
		}
	}
	return n
}

func countQ4(d *statsData, a, b int64) int64 {
	u := d.countBy("users", uID, func(r rel.Row) bool { return col(r, uRep) > a })
	p := make(map[int64]int64) // post id -> matching (user, post) pairs
	for _, r := range (*d)["posts"] {
		if col(r, pScore) > b {
			p[col(r, pID)] += u[col(r, pOwner)]
		}
	}
	var n int64
	for _, r := range (*d)["comments"] {
		n += p[col(r, cPost)]
	}
	return n
}

func countQ5(d *statsData, a, b int64) int64 {
	p := d.countBy("posts", pID, func(r rel.Row) bool { return col(r, pScore) > b })
	var n int64
	for _, r := range (*d)["votes"] {
		if col(r, vType) == a {
			n += p[col(r, vPost)]
		}
	}
	return n
}

func countQ6(d *statsData, a, b int64) int64 {
	u := d.countBy("users", uID, all)
	c := d.countBy("comments", cUser, func(r rel.Row) bool { return col(r, cScore) > a })
	bg := d.countBy("badges", bUser, func(r rel.Row) bool { return col(r, bClass) == b })
	var n int64
	for id, k := range u {
		n += k * c[id] * bg[id]
	}
	return n
}

func countQ7(d *statsData, a, b int64) int64 {
	p := d.countBy("posts", pID, func(r rel.Row) bool { return col(r, pAns) > b })
	h := d.countBy("posthistory", hPost, func(r rel.Row) bool { return col(r, hType) == a })
	v := d.countBy("votes", vPost, all)
	var n int64
	for id, k := range p {
		n += k * h[id] * v[id]
	}
	return n
}

func countQ8(d *statsData, a, b int64) int64 {
	u := d.countBy("users", uID, func(r rel.Row) bool { return col(r, uRep) > a })
	c := d.countBy("comments", cPost, all)
	v := d.countBy("votes", vPost, all)
	var n int64
	for _, r := range (*d)["posts"] {
		if col(r, pScore) > b {
			id := col(r, pID)
			n += u[col(r, pOwner)] * c[id] * v[id]
		}
	}
	return n
}

// driftSliceT is one multi-row INSERT of drifted rows.
type driftSliceT struct {
	table string
	rows  []rel.Row
}

// statsInputs is everything the stats-drift workload sends, generated from
// the seed.
type statsInputs struct {
	tables   []workload.StatsTableDef
	base     statsData
	drift    []driftSliceT
	consts   [][statsVariants][2]int64 // per template, per variant
	schedule [][8]int                  // per round, the variant of each template; cyclic
	hash     string
}

func genStats(seed int64) *statsInputs {
	sw := workload.NewStats(statsScale, statsDataSeed)
	in := &statsInputs{tables: sw.Tables(), base: statsData{}}
	ih := newInputHash()
	for _, t := range in.tables {
		in.base[t.Name] = sw.Rows(t.Name)
		ih.str(t.Name)
		hashRows(ih, in.base[t.Name])
	}
	// Mild then severe drift. Drift rows restart their ids at the table's
	// base size at each level; renumber so ids stay unique across levels.
	next := map[string]int64{}
	for _, t := range in.tables {
		next[t.Name] = int64(len(in.base[t.Name]))
	}
	for _, level := range []workload.DriftLevel{workload.DriftMild, workload.DriftSevere} {
		var perTable [][]driftSliceT
		for _, t := range in.tables {
			rows := sw.DriftInserts(t.Name, level)
			var slices []driftSliceT
			for lo := 0; lo < len(rows); lo += driftSlice {
				chunk := rows[lo:min(lo+driftSlice, len(rows))]
				for _, r := range chunk {
					r[0] = rel.Int(next[t.Name])
					next[t.Name]++
				}
				slices = append(slices, driftSliceT{t.Name, chunk})
			}
			if len(slices) > 0 {
				perTable = append(perTable, slices)
			}
		}
		// Interleave the tables' slices round-robin.
		for i := 0; ; i++ {
			added := false
			for _, s := range perTable {
				if i < len(s) {
					in.drift = append(in.drift, s[i])
					added = true
				}
			}
			if !added {
				break
			}
		}
	}
	for _, s := range in.drift {
		ih.str(s.table)
		hashRows(ih, s.rows)
	}
	// Stratified draws: variant v of a template takes its first constant
	// from the v-th of 64 equal strata of its range and its second from a
	// permuted stratum, so every seed covers the ranges alike. The schedule
	// walks each template's variants in a seeded order, all 64 per cycle.
	r := rand.New(rand.NewSource(seed ^ 0x5eed))
	stratum := func(lo, hi, s int) int64 {
		return int64(lo + int((float64(s)+r.Float64())/statsVariants*float64(hi-lo+1)))
	}
	in.consts = make([][statsVariants][2]int64, len(statsTemplates))
	order := make([][]int, len(statsTemplates))
	for ti, t := range statsTemplates {
		perm := r.Perm(statsVariants)
		for v := 0; v < statsVariants; v++ {
			a, b := stratum(t.aLo, t.aHi, v), stratum(t.bLo, t.bHi, perm[v])
			in.consts[ti][v] = [2]int64{a, b}
			ih.ints(a, b)
		}
		order[ti] = r.Perm(statsVariants)
	}
	in.schedule = make([][8]int, statsVariants)
	for i := range in.schedule {
		for ti := range statsTemplates {
			in.schedule[i][ti] = order[ti][i]
			ih.ints(int64(order[ti][i]))
		}
	}
	in.hash = ih.sum()
	return in
}

func hashRows(ih *inputHash, rows []rel.Row) {
	for _, r := range rows {
		for _, v := range r {
			ih.ints(v.AsInt())
		}
	}
}

func (in *statsInputs) sql(ti, v int) string {
	c := in.consts[ti][v]
	return fmt.Sprintf(statsTemplates[ti].format, c[0], c[1])
}

// insertSQL renders rows as one multi-row INSERT.
func insertSQL(table string, rows []rel.Row) string {
	var sb strings.Builder
	sb.WriteString("INSERT INTO ")
	sb.WriteString(table)
	sb.WriteString(" VALUES ")
	for i, r := range rows {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteByte('(')
		for j, v := range r {
			if j > 0 {
				sb.WriteByte(',')
			}
			sb.WriteString(sqlLiteral(v))
		}
		sb.WriteByte(')')
	}
	return sb.String()
}

// sqlLiteral renders v as a SQL literal that reads back as the same value.
func sqlLiteral(v rel.Value) string {
	switch v.Typ {
	case rel.TypeNull:
		return "NULL"
	case rel.TypeFloat:
		s := fmt.Sprintf("%.17g", v.F)
		if !strings.ContainsAny(s, ".eE") {
			s += ".0"
		}
		return s
	case rel.TypeText:
		return "'" + strings.ReplaceAll(v.S, "'", "''") + "'"
	default: // INT and BOOL print as literals
		return v.String()
	}
}

// loadStats creates the STATS schema with its FK indexes and inserts the
// base rows.
func loadStats(c *client.Conn, in *statsInputs) error {
	for _, t := range in.tables {
		cols := make([]string, len(t.Cols))
		for i, cl := range t.Cols {
			cols[i] = cl.Name + " INT"
		}
		if _, err := c.Exec(fmt.Sprintf("CREATE TABLE %s (%s)", t.Name, strings.Join(cols, ", "))); err != nil {
			return err
		}
		for _, ic := range t.IndexCols {
			if _, err := c.Exec(fmt.Sprintf("CREATE INDEX %s_%s ON %s (%s)", t.Name, ic, t.Name, ic)); err != nil {
				return err
			}
		}
		rows := in.base[t.Name]
		for lo := 0; lo < len(rows); lo += loadBatch {
			if _, err := c.Exec(insertSQL(t.Name, rows[lo:min(lo+loadBatch, len(rows))])); err != nil {
				return err
			}
		}
	}
	return nil
}

// statsAnswer is one COUNT the server returned, with the data epoch (drift
// slices applied) it was computed at.
type statsAnswer struct {
	epoch, ti, v int
	got          int64
}

// statsRun is the closed loop's position in the round schedule and drift
// stream, shared by the untraced and traced phases of a run. Drift follows
// the clock, not the loop: slice i is due (i+1)*every after start and goes
// in at the first round boundary after that, so the data grows along the
// same path whatever the query speed, and all of it is in by the end.
type statsRun struct {
	in      *statsInputs
	start   time.Time
	every   time.Duration
	round   int
	epoch   int // drift slices inserted so far
	queries int
	rows    int // drift rows inserted
	answers []statsAnswer
}

// queryFunc sends one query and returns its COUNT.
type queryFunc func(sql string) (int64, error)

// insertFunc inserts one drift slice.
type insertFunc func(s driftSliceT) error

// newStatsRun spreads the drift stream over a measured phase of d.
func newStatsRun(in *statsInputs, d time.Duration) *statsRun {
	return &statsRun{in: in, start: time.Now(), every: d / time.Duration(len(in.drift))}
}

// loop runs rounds until stop: the 8 templates, then the drift slices that
// have fallen due. Each query's latency goes to lat.
func (r *statsRun) loop(stop <-chan struct{}, query queryFunc, insert insertFunc, acct *accounting, lat *latencies) {
	for {
		sched := r.in.schedule[r.round%len(r.in.schedule)]
		r.round++
		for ti, v := range sched {
			if stopped(stop) {
				return
			}
			t0 := time.Now()
			got, err := query(r.in.sql(ti, v))
			if err == nil {
				lat.add(time.Since(t0))
				r.queries++
				r.answers = append(r.answers, statsAnswer{r.epoch, ti, v, got})
			}
			acct.record(0, err)
		}
		due := min(int(time.Since(r.start)/r.every), len(r.in.drift))
		for r.epoch < due {
			s := r.in.drift[r.epoch]
			err := insert(s)
			acct.record(0, err)
			if err != nil {
				return // the data no longer matches the epoch count
			}
			r.epoch++
			r.rows += len(s.rows)
		}
	}
}

// verify checks every recorded COUNT against the benchmark's own count at
// the answer's data epoch.
func (r *statsRun) verify(ck *checks) {
	d := statsData{}
	for t, rows := range r.in.base {
		d[t] = rows
	}
	applied := 0
	memo := map[[2]int]int64{}
	byEpoch := append([]statsAnswer(nil), r.answers...)
	// Answers are recorded in epoch order; apply slices as epochs advance.
	for _, a := range byEpoch {
		for applied < a.epoch {
			s := r.in.drift[applied]
			d[s.table] = append(d[s.table][:len(d[s.table]):len(d[s.table])], s.rows...)
			applied++
			clear(memo)
		}
		key := [2]int{a.ti, a.v}
		want, ok := memo[key]
		if !ok {
			c := r.in.consts[a.ti][a.v]
			want = statsTemplates[a.ti].count(&d, c[0], c[1])
			memo[key] = want
		}
		if a.got != want {
			ck.failf("stats Q%d variant %d at drift epoch %d: COUNT = %d, want %d", a.ti+1, a.v, a.epoch, a.got, want)
		}
	}
}

// tableCounts returns the row count each table must have after the
// inserted drift slices.
func (r *statsRun) tableCounts() map[string]int64 {
	m := map[string]int64{}
	for t, rows := range r.in.base {
		m[t] = int64(len(rows))
	}
	for _, s := range r.in.drift[:r.epoch] {
		m[s.table] += int64(len(s.rows))
	}
	return m
}

func checkTableCounts(c *client.Conn, want map[string]int64) error {
	for t, n := range want {
		got, err := queryInt(c, "SELECT COUNT(*) FROM "+t)
		if err != nil {
			return err
		}
		if got != n {
			return fmt.Errorf("table %s has %d rows, want %d", t, got, n)
		}
	}
	return nil
}

// wireStats returns the query and insert functions over one connection.
func wireStats(c *client.Conn) (queryFunc, insertFunc) {
	query := func(sql string) (int64, error) { return queryInt(c, sql) }
	insert := func(s driftSliceT) error {
		res, err := c.Exec(insertSQL(s.table, s.rows))
		if err == nil && res.Affected != int64(len(s.rows)) {
			err = fmt.Errorf("insert into %s affected %d of %d rows", s.table, res.Affected, len(s.rows))
		}
		return err
	}
	return query, insert
}

// runStats is the untraced run against a neurdb-server child process.
func runStats(env *runEnv, out *outcome) error {
	in := genStats(env.seed)
	out.record["input_hash"] = in.hash
	srv, setup, err := timedSetup(env.serverBin, env.dataDir(), setupReps, func(p *serverProc) error {
		c, err := p.connect()
		if err != nil {
			return err
		}
		defer c.Close()
		return loadStats(c, in)
	})
	if err != nil {
		return err
	}
	defer func() { srv.stop() }()
	out.set("setup_s", "s", setup)

	c, err := srv.connect()
	if err != nil {
		return err
	}
	lat := &latencies{}
	query, insert := wireStats(c)
	stop := runFor(secondsDur(env.seconds))
	t0 := time.Now()
	run := newStatsRun(in, secondsDur(env.seconds))
	run.loop(stop, query, insert, &out.acct, lat)
	out.set("throughput", "op/s", float64(run.queries)/time.Since(t0).Seconds())
	setLatency(out, lat, 95)
	rss, err := srv.peakRSSMiB()
	if err != nil {
		return err
	}
	out.set("peak_rss_mib", "MiB", rss)
	out.record["rounds"] = run.round
	out.record["drift_slices"] = run.epoch
	c.Close()
	run.verify(&out.checks)

	srv, restart, restarts, err := crashRestart(srv, env.serverBin, env.dataDir(), restartReps, func(c *client.Conn) error {
		_, err := queryInt(c, "SELECT COUNT(*) FROM tags")
		return err
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
	if err := checkTableCounts(c, run.tableCounts()); err != nil {
		out.checks.failf("after crash and restart: %v", err)
	}
	return nil
}

// traceStats is the traced run: the first half of the time runs the wire
// loop untraced against an in-process DB, the second half times each
// layer. A traced query is parsed, sent over the wire, run through an
// in-process Session, and re-planned and re-executed; a drift slice is
// inserted once, through the Session inside an explicit transaction.
func traceStats(env *runEnv, out *outcome) error {
	in := genStats(env.seed)
	out.record["input_hash"] = in.hash
	ip, err := openInproc(env.dataDir())
	if err != nil {
		return err
	}
	defer ip.close()
	c, err := ip.connect()
	if err != nil {
		return err
	}
	defer c.Close()
	if err := loadStats(c, in); err != nil {
		return err
	}

	half := secondsDur(env.seconds / 2)
	query, insert := wireStats(c)
	before := snapCounters(ip.db, true)
	t0 := time.Now()
	run := newStatsRun(in, 2*half)
	run.loop(runFor(half), query, insert, &out.acct, &latencies{})
	tputA := float64(run.queries) / time.Since(t0).Seconds()
	after := snapCounters(ip.db, true)
	setCounterMetrics(out, before, after, layerCounts{writeCommits: run.epoch, rowsWritten: run.rows})

	tr := newTracer()
	sess := ip.db.NewSession()
	defer sess.Close()
	var (
		op                        int64
		parse                     parseTimer
		opt                       optStats
		rttUS, insertUS, commitUS []float64
	)
	tracedQuery := func(sql string) (int64, error) {
		op++
		root := tr.begin("stats.query", -1, op)
		defer tr.end(root)
		st, err := parse.adhoc(tr, root, op, sql)
		if err != nil {
			return 0, err
		}
		var got int64
		dWire, err := tr.do("client.query", root, op, func() (err error) {
			got, err = queryInt(c, sql)
			return err
		})
		if err != nil {
			return 0, err
		}
		dSess, err := tr.do("session.select", root, op, func() error {
			rows, err := sess.Query(sql)
			if err != nil {
				return err
			}
			_, err = drainLocal(rows)
			return err
		})
		if err != nil {
			return 0, err
		}
		rttUS = append(rttUS, float64((dWire-dSess).Nanoseconds())/1e3)
		rows, err := opt.replan(tr, root, op, ip.db, st.(*sqlparse.Select), nil, "join")
		if err != nil {
			return 0, err
		}
		if len(rows) != 1 || rows[0][0].AsInt() != got {
			return 0, fmt.Errorf("%w: re-executed %s gave %v, wire gave %d", errCheck, sql, rows, got)
		}
		return got, nil
	}
	tracedInsert := func(s driftSliceT) error {
		op++
		root := tr.begin("stats.drift", -1, op)
		defer tr.end(root)
		return sessionWrite(tr, root, op, sess, insertSQL(s.table, s.rows), len(s.rows), &insertUS, &commitUS)
	}
	doneA := run.queries
	t1 := time.Now()
	run.loop(runFor(half), tracedQuery, tracedInsert, &out.acct, &latencies{})
	tputB := float64(run.queries-doneA) / time.Since(t1).Seconds()

	out.set("server.rtt_overhead_us", "us", median(rttUS))
	out.set("sqlparse.parse_us", "us", parse.us())
	out.set("txn.commit_us", "us", median(commitUS))
	out.record["executor.insert_us"] = median(insertUS)
	setOptMetrics(out, &opt)
	run.verify(&out.checks)
	if err := checkTableCounts(c, run.tableCounts()); err != nil {
		out.checks.failf("after the traced run: %v", err)
	}
	if err := finishTrace(env, out, tr, tputA, tputB); err != nil {
		return err
	}
	zeroMetrics(out, allLayerMetrics)
	return nil
}

// sessionWrite executes one write statement exactly once through sess
// inside BEGIN ... COMMIT, timing the statement and the commit.
func sessionWrite(tr *tracer, root int, op int64, sess *neurdb.Session, sql string, wantRows int, execUS, commitUS *[]float64) error {
	if _, err := sess.Exec("BEGIN"); err != nil {
		return err
	}
	var res *neurdb.Result
	d, err := tr.do("executor.write", root, op, func() (err error) {
		res, err = sess.Exec(sql)
		return err
	})
	if err == nil && res.Affected != wantRows {
		err = fmt.Errorf("write affected %d of %d rows", res.Affected, wantRows)
	}
	if err != nil {
		sess.Exec("ROLLBACK") // the statement failed; the txn is being discarded
		return err
	}
	*execUS = append(*execUS, float64(d.Nanoseconds())/1e3)
	d, err = tr.do("txn.commit", root, op, func() error {
		_, err := sess.Exec("COMMIT")
		return err
	})
	if err != nil {
		return err
	}
	*commitUS = append(*commitUS, float64(d.Nanoseconds())/1e3)
	return nil
}

// tinyStats is a hand-sized STATS instance whose join counts are worked out
// by hand in the tests; the run-time self-test uses it too.
func tinyStats() *statsInputs {
	rows := func(vals ...[]int64) []rel.Row {
		out := make([]rel.Row, len(vals))
		for i, v := range vals {
			for _, x := range v {
				out[i] = append(out[i], rel.Int(x))
			}
		}
		return out
	}
	in := &statsInputs{base: statsData{
		"users":       rows([]int64{0, 600, 60, 0}, []int64{1, 50, 10, 0}, []int64{2, 900, 70, 0}),
		"posts":       rows([]int64{0, 0, 60, 2000, 5}, []int64{1, 0, 10, 100, 1}, []int64{2, 2, 70, 5000, 4}, []int64{3, 1, 99, 50, 9}),
		"comments":    rows([]int64{0, 0, 1, 0}, []int64{1, 0, 2, 3}, []int64{2, 2, 0, 0}, []int64{3, 3, 2, 7}),
		"votes":       rows([]int64{0, 0, 0, 2}, []int64{1, 2, 1, 2}, []int64{2, 2, 2, 1}, []int64{3, 3, 0, 2}),
		"badges":      rows([]int64{0, 0, 1}, []int64{1, 2, 1}, []int64{2, 2, 2}, []int64{3, 1, 1}),
		"posthistory": rows([]int64{0, 0, 0, 2}, []int64{1, 2, 1, 2}, []int64{2, 3, 1, 1}),
	}}
	in.drift = []driftSliceT{{"posts", rows([]int64{4, 2, 80, 10, 0})}}
	in.consts = make([][statsVariants][2]int64, len(statsTemplates))
	for ti, c := range [][2]int64{{500, 50}, {50, 1}, {0, 1000}, {500, 50}, {2, 50}, {0, 1}, {2, 3}, {500, 50}} {
		in.consts[ti][0] = c
	}
	return in
}

// statsCheckerLive shows the COUNT check accepts a right answer and
// rejects a corrupted one.
func statsCheckerLive() error {
	in := tinyStats()
	var good, bad checks
	(&statsRun{in: in, answers: []statsAnswer{{0, 0, 0, 2}, {1, 0, 0, 3}}}).verify(&good)
	(&statsRun{in: in, answers: []statsAnswer{{0, 0, 0, 2}, {1, 0, 0, 2}}}).verify(&bad)
	if !good.ok() || bad.ok() {
		return fmt.Errorf("stats COUNT check: right answers pass = %v, corrupted answer rejected = %v", good.ok(), !bad.ok())
	}
	return nil
}
