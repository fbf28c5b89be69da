package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"time"

	"neurdb"
	"neurdb/client"
	"neurdb/internal/aiengine"
	"neurdb/internal/executor"
	"neurdb/internal/nn"
	"neurdb/internal/optimizer"
	"neurdb/internal/rel"
	"neurdb/internal/sqlparse"
	"neurdb/internal/txn"
	"neurdb/internal/workload"
)

const (
	predictSetupRows = 8000 // labeled rows loaded before the first PREDICT
	predictRoundRows = 2000 // labeled rows inserted per round
	predictUnlabeled = 200  // rows PREDICT fills in per round
	predictMaxRounds = 128  // generated rounds; a run stops early if it uses them all
	predictClusterEv = 2    // the Avazu cluster changes every this many rounds
)

var predictFeatures = func() string {
	f := make([]string, workload.AvazuFields)
	for i := range f {
		f[i] = fmt.Sprintf("f%d", i)
	}
	return strings.Join(f, ", ")
}()

// predictSQL is the round's PREDICT: fine-tune on the rows labeled in the
// previous and the current round, fill in the unlabeled rows.
func predictSQL(round int) string {
	return fmt.Sprintf("PREDICT VALUE OF click_rate FROM ctr TRAIN ON %s WITH rnd >= %d", predictFeatures, max(round-1, 0))
}

const unlabeledSQL = `SELECT id FROM ctr WHERE click_rate IS NULL`

// predictRound is one round's generated rows. Unlabeled rows keep their
// true click_rate in truth.
type predictRound struct {
	labeled, unlabeled []rel.Row
	truth              map[int64]float64
}

// predictGen derives every round's rows from the seed: the Avazu generator
// fixes the clusters' feature and label functions, and each round draws
// from its own seeded stream.
type predictGen struct {
	seed int64
	av   *workload.Avazu
}

// round returns round r's rows (round 0 is the set-up load). Ids are dense
// in round order, labeled rows first.
func (g *predictGen) round(r int) predictRound {
	nLabeled := predictRoundRows
	firstID := int64(predictSetupRows + predictUnlabeled)
	if r == 0 {
		nLabeled, firstID = predictSetupRows, 0
	} else {
		firstID += int64(r-1) * (predictRoundRows + predictUnlabeled)
	}
	rng := rand.New(rand.NewSource(g.seed*1000003 + int64(r)))
	cluster := (r / predictClusterEv) % workload.AvazuClusters
	out := predictRound{truth: map[int64]float64{}}
	mk := func(id int64, labeled bool) rel.Row {
		gen := g.av.RowFrom(rng, cluster)
		row := make(rel.Row, 0, workload.AvazuFields+3)
		row = append(row, rel.Int(id), rel.Int(int64(r)))
		row = append(row, gen[:workload.AvazuFields]...)
		rate := gen[workload.AvazuFields]
		if labeled {
			return append(row, rate)
		}
		out.truth[id] = rate.AsFloat()
		return append(row, rel.Null())
	}
	id := firstID
	for i := 0; i < nLabeled; i++ {
		out.labeled = append(out.labeled, mk(id, true))
		id++
	}
	for i := 0; i < predictUnlabeled; i++ {
		out.unlabeled = append(out.unlabeled, mk(id, false))
		id++
	}
	return out
}

// hash fingerprints every round the run may use.
func (g *predictGen) hash() string {
	ih := newInputHash()
	for r := 0; r <= predictMaxRounds; r++ {
		pr := g.round(r)
		for _, rows := range [][]rel.Row{pr.labeled, pr.unlabeled} {
			for _, row := range rows {
				for _, v := range row {
					ih.str(sqlLiteral(v))
				}
			}
		}
		if r == 0 {
			ih.str(strings.Join(ctrColumns(), ","))
		}
	}
	return ih.sum()
}

func ctrColumns() []string {
	cols := []string{"id INT PRIMARY KEY", "rnd INT"}
	for i := 0; i < workload.AvazuFields; i++ {
		cols = append(cols, fmt.Sprintf("f%d INT", i))
	}
	return append(cols, "click_rate DOUBLE")
}

// predictConn is how a phase sends statements: over the wire, or traced
// through an in-process session.
type predictConn interface {
	write(sql string, wantRows int) error
	predict(round int) ([]float64, error)
	unlabeledIDs() ([]int64, error)
}

// wirePredict sends every statement over one client connection.
type wirePredict struct{ c *client.Conn }

func (w wirePredict) write(sql string, wantRows int) error {
	res, err := w.c.Exec(sql)
	if err == nil && res.Affected != int64(wantRows) {
		err = fmt.Errorf("%.40s... affected %d of %d rows", sql, res.Affected, wantRows)
	}
	return err
}

func (w wirePredict) predict(round int) ([]float64, error) {
	rows, err := queryRows(w.c, predictSQL(round))
	if err != nil {
		return nil, err
	}
	out := make([]float64, len(rows))
	for i, r := range rows {
		if len(r) != 1 {
			return nil, fmt.Errorf("PREDICT returned %d columns", len(r))
		}
		f, ok := r[0].(float64)
		if !ok {
			return nil, fmt.Errorf("PREDICT returned %T", r[0])
		}
		out[i] = f
	}
	return out, nil
}

func (w wirePredict) unlabeledIDs() ([]int64, error) {
	rows, err := queryRows(w.c, unlabeledSQL)
	if err != nil {
		return nil, err
	}
	ids := make([]int64, len(rows))
	for i, r := range rows {
		ids[i], _ = r[0].(int64)
	}
	return ids, nil
}

// predictRun is the closed loop's state, shared by the phases of a run.
type predictRun struct {
	gen      *predictGen
	round    int // last round run (0 = set-up)
	labeled  int64
	maeSum   float64
	maeN     int
	predicts int
}

// insertRows inserts rows in loadBatch-row statements.
func insertRows(pc predictConn, rows []rel.Row) error {
	for lo := 0; lo < len(rows); lo += loadBatch {
		chunk := rows[lo:min(lo+loadBatch, len(rows))]
		if err := pc.write(insertSQL("ctr", chunk), len(chunk)); err != nil {
			return err
		}
	}
	return nil
}

// doRound inserts round r's rows, runs and checks its PREDICT (timed into
// lat), and deletes the unlabeled rows again.
func (p *predictRun) doRound(pc predictConn, r int, lat *latencies, ck *checks) error {
	pr := p.gen.round(r)
	if err := insertRows(pc, pr.labeled); err != nil {
		return err
	}
	if err := insertRows(pc, pr.unlabeled); err != nil {
		return err
	}
	t0 := time.Now()
	preds, err := pc.predict(r)
	if err != nil {
		return err
	}
	if lat != nil {
		lat.add(time.Since(t0))
	}
	ids, err := pc.unlabeledIDs()
	if err != nil {
		return err
	}
	if mae, err := predictMAE(preds, ids, pr.truth); err != nil {
		ck.failf("round %d: %v", r, err)
	} else {
		p.maeSum += mae
		p.maeN++
	}
	lo := pr.unlabeled[0][0].AsInt()
	del := fmt.Sprintf("DELETE FROM ctr WHERE id >= %d AND id < %d", lo, lo+predictUnlabeled)
	if err := pc.write(del, predictUnlabeled); err != nil {
		return err
	}
	p.round = r
	p.labeled += int64(len(pr.labeled))
	p.predicts++
	return nil
}

// predictMAE checks that preds holds one finite prediction per unlabeled
// row (ids, in the same scan order) and returns the mean absolute error
// against the generator's true click_rate.
func predictMAE(preds []float64, ids []int64, truth map[int64]float64) (float64, error) {
	if len(preds) != len(truth) || len(ids) != len(truth) {
		return 0, fmt.Errorf("%d predictions for %d unlabeled rows (%d listed)", len(preds), len(truth), len(ids))
	}
	var sum float64
	for i, p := range preds {
		want, ok := truth[ids[i]]
		if !ok {
			return 0, fmt.Errorf("unlabeled row id %d was not inserted this round", ids[i])
		}
		if math.IsNaN(p) || math.IsInf(p, 0) {
			return 0, fmt.Errorf("prediction %d is %v", i, p)
		}
		sum += math.Abs(p - want)
	}
	return sum / float64(len(preds)), nil
}

// loop runs rounds until stop or the generated rounds run out.
func (p *predictRun) loop(stop <-chan struct{}, pc predictConn, acct *accounting, lat *latencies, ck *checks) {
	for p.round < predictMaxRounds && !stopped(stop) {
		err := p.doRound(pc, p.round+1, lat, ck)
		acct.record(0, err)
		if err != nil {
			return // the table no longer matches the round count
		}
	}
}

// loadPredict creates ctr and runs set-up round 0: the labeled load and
// the first PREDICT, which trains the model from scratch.
func loadPredict(c *client.Conn, p *predictRun) error {
	if _, err := c.Exec("CREATE TABLE ctr (" + strings.Join(ctrColumns(), ", ") + ")"); err != nil {
		return err
	}
	var ck checks
	if err := p.doRound(wirePredict{c}, 0, nil, &ck); err != nil {
		return err
	}
	if !ck.ok() {
		return fmt.Errorf("set-up PREDICT: %s", ck.fails[0])
	}
	return nil
}

// runPredict is the untraced run against a neurdb-server child process.
func runPredict(env *runEnv, out *outcome) error {
	gen := &predictGen{seed: env.seed, av: workload.NewAvazu(env.seed)}
	out.record["input_hash"] = gen.hash()
	var run *predictRun
	srv, setup, err := timedSetup(env.serverBin, env.dataDir(), setupReps, func(p *serverProc) error {
		c, err := p.connect()
		if err != nil {
			return err
		}
		defer c.Close()
		run = &predictRun{gen: gen}
		return loadPredict(c, run)
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
	run.maeSum, run.maeN, run.predicts = 0, 0, 0
	stop := runFor(secondsDur(env.seconds))
	t0 := time.Now()
	run.loop(stop, wirePredict{c}, &out.acct, lat, &out.checks)
	out.set("throughput", "op/s", float64(run.predicts)/time.Since(t0).Seconds())
	setLatency(out, lat, 90)
	rss, err := srv.peakRSSMiB()
	if err != nil {
		return err
	}
	out.set("peak_rss_mib", "MiB", rss)
	out.record["rounds"] = run.round
	out.record["predict_mae"] = ratio(run.maeSum, float64(run.maeN))
	c.Close()

	srv, restart, restarts, err := crashRestart(srv, env.serverBin, env.dataDir(), restartReps, func(c *client.Conn) error {
		_, err := queryInt(c, "SELECT COUNT(*) FROM ctr WHERE id = 0")
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
	if n, err := queryInt(c, "SELECT COUNT(*) FROM ctr"); err != nil {
		return err
	} else if n != run.labeled {
		out.checks.failf("after crash and restart: ctr has %d rows, want %d", n, run.labeled)
	}
	return nil
}

// tracedPredict runs a round's statements in-process, each write exactly
// once: inserts and the delete through a Session, the PREDICT through
// executor.RunPredict (the call the Session makes) so its TrainOutcome is
// visible. The unlabeled-row listing, the extraction scan and inference
// are re-executed beside it to time them on their own.
type tracedPredict struct {
	db   *neurdb.DB
	sess *neurdb.Session
	wire wirePredict
	tr   *tracer
	root int
	op   int64

	parse                                  parseTimer
	opt                                    optStats
	rttUS, writeUS, commitUS               []float64
	finetuneMS, samplesPS, loss, extractMS []float64
	inferMS                                []float64
	lastInputs                             []rel.Row
}

func (t *tracedPredict) write(sql string, wantRows int) error {
	return sessionWrite(t.tr, t.root, t.op, t.sess, sql, wantRows, &t.writeUS, &t.commitUS)
}

func (t *tracedPredict) predict(round int) ([]float64, error) {
	sql := predictSQL(round)
	st, err := t.parse.adhoc(t.tr, t.root, t.op, sql)
	if err != nil {
		return nil, err
	}
	pr := st.(*sqlparse.Predict)
	task, err := predictTask(t.db, pr)
	if err != nil {
		return nil, err
	}
	var res *executor.PredictResult
	_, err = t.tr.do("executor.predict", t.root, t.op, func() error {
		mgr := t.db.TxnManager()
		tx := mgr.Begin(txn.Snapshot, true)
		ctx := &executor.Ctx{Mgr: mgr, Txn: tx, Cat: t.db.Catalog(), Workers: runtime.GOMAXPROCS(0)}
		var err error
		res, err = executor.RunPredict(ctx, t.db.AIEngine(), task)
		mgr.Abort(tx)
		return err
	})
	if err != nil {
		return nil, err
	}
	if res.Train != nil {
		t.finetuneMS = append(t.finetuneMS, float64(res.Train.Duration.Nanoseconds())/1e6)
		t.samplesPS = append(t.samplesPS, res.Train.Throughput)
		if n := len(res.Train.Losses); n > 0 {
			t.loss = append(t.loss, res.Train.Losses[n-1])
		}
	}
	t.lastInputs = res.Inputs

	// Re-execute the extraction pass alone: one scan evaluating the
	// PREDICT's filters on every row, as RunPredict's first step does.
	d, err := t.tr.do("executor.extract", t.root, t.op, func() error {
		mgr := t.db.TxnManager()
		tx := mgr.Begin(txn.Snapshot, true)
		defer mgr.Abort(tx)
		ctx := &executor.Ctx{Mgr: mgr, Txn: tx, Cat: t.db.Catalog(), Workers: runtime.GOMAXPROCS(0)}
		n := 0
		return executor.ScanBatches(ctx, task.Table, func(b *rel.Batch) error {
			for _, row := range b.Rows {
				if row[task.TargetIdx].IsNull() || task.TrainFilter.Eval(row).AsBool() {
					n++
				}
			}
			return nil
		})
	})
	if err != nil {
		return nil, err
	}
	t.extractMS = append(t.extractMS, float64(d.Nanoseconds())/1e6)

	// Re-run inference alone on the same inputs.
	batches := inferBatches(res.Inputs, task)
	d, err = t.tr.do("aiengine.infer", t.root, t.op, func() error {
		_, err := t.db.AIEngine().Infer(res.MID, 0, &aiengine.SliceSource{Batches: batches})
		return err
	})
	if err != nil {
		return nil, err
	}
	t.inferMS = append(t.inferMS, float64(d.Nanoseconds())/1e6)
	return res.Predictions, nil
}

// unlabeledIDs lists the unlabeled rows over the wire and in-process (the
// difference is the wire overhead), then re-plans and re-executes the
// listing. It returns the ids of the rows PREDICT filled in, from the
// PREDICT's own inputs.
func (t *tracedPredict) unlabeledIDs() ([]int64, error) {
	var wireIDs []int64
	dWire, err := t.tr.do("client.select", t.root, t.op, func() (err error) {
		wireIDs, err = t.wire.unlabeledIDs()
		return err
	})
	if err != nil {
		return nil, err
	}
	dSess, err := t.tr.do("session.select", t.root, t.op, func() error {
		rows, err := t.sess.Query(unlabeledSQL)
		if err != nil {
			return err
		}
		_, err = drainLocal(rows)
		return err
	})
	if err != nil {
		return nil, err
	}
	t.rttUS = append(t.rttUS, float64((dWire-dSess).Nanoseconds())/1e3)
	sel, err := parseSelect(unlabeledSQL)
	if err != nil {
		return nil, err
	}
	rows, err := t.opt.replan(t.tr, t.root, t.op, t.db, sel, nil, "lookup")
	if err != nil {
		return nil, err
	}
	if len(rows) != len(wireIDs) {
		return nil, fmt.Errorf("%w: unlabeled rows: %d in-process, %d over the wire", errCheck, len(rows), len(wireIDs))
	}
	ids := make([]int64, len(t.lastInputs))
	for i, r := range t.lastInputs {
		ids[i] = r[0].AsInt()
	}
	return ids, nil
}

// predictTask binds a parsed PREDICT the way the Session does.
func predictTask(db *neurdb.DB, pr *sqlparse.Predict) (executor.PredictTask, error) {
	tbl, err := db.Catalog().Get(pr.Table)
	if err != nil {
		return executor.PredictTask{}, err
	}
	task := executor.PredictTask{
		Table:     tbl,
		TargetIdx: tbl.Schema.ColIndex(pr.Target),
		ModelName: tbl.Name + "." + strings.ToLower(pr.Target),
	}
	for _, name := range pr.TrainCols {
		task.FeatureIdxs = append(task.FeatureIdxs, tbl.Schema.ColIndex(name))
	}
	task.TrainFilter, err = optimizer.SingleTableQuery(tbl).BindExprPublic(pr.With)
	return task, err
}

// inferBatches featurizes rows for a timing-only inference call: ids land
// in each field's bucket range, like RunPredict's codecs.
func inferBatches(rows []rel.Row, task executor.PredictTask) []*aiengine.Batch {
	const buckets, batch = 32, 128
	var out []*aiengine.Batch
	for lo := 0; lo < len(rows); lo += batch {
		chunk := rows[lo:min(lo+batch, len(rows))]
		x := nn.NewMatrix(len(chunk), len(task.FeatureIdxs))
		for i, r := range chunk {
			for f, ci := range task.FeatureIdxs {
				b := int(r[ci].AsInt()) * buckets / workload.AvazuVocab
				x.Set(i, f, float64(f*buckets+min(max(b, 0), buckets-1)))
			}
		}
		out = append(out, &aiengine.Batch{X: x})
	}
	return out
}

// tracePredict is the traced run: the first half of the time runs rounds
// over the wire untraced against an in-process DB, the second half runs
// them through tracedPredict.
func tracePredict(env *runEnv, out *outcome) error {
	gen := &predictGen{seed: env.seed, av: workload.NewAvazu(env.seed)}
	out.record["input_hash"] = gen.hash()
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
	run := &predictRun{gen: gen}
	if err := loadPredict(c, run); err != nil {
		return err
	}

	half := secondsDur(env.seconds / 2)
	before := snapCounters(ip.db, true)
	roundsA := run.predicts
	t0 := time.Now()
	run.loop(runFor(half), wirePredict{c}, &out.acct, nil, &out.checks)
	tputA := float64(run.predicts-roundsA) / time.Since(t0).Seconds()
	after := snapCounters(ip.db, true)
	nA := run.predicts - roundsA
	setCounterMetrics(out, before, after, layerCounts{
		writeCommits: nA * (predictRoundRows/loadBatch + 2),
		rowsWritten:  nA * (predictRoundRows + predictUnlabeled),
	})
	out.set("models.bytes_per_version", "B", ratio(float64(after.modelBytes-before.modelBytes), float64(nA)))

	tp := &tracedPredict{db: ip.db, sess: ip.db.NewSession(), wire: wirePredict{c}, tr: newTracer()}
	defer tp.sess.Close()
	run.maeSum, run.maeN = 0, 0
	roundsB := run.predicts
	stop := runFor(half)
	t1 := time.Now()
	for run.round < predictMaxRounds && !stopped(stop) {
		tp.op++
		tp.root = tp.tr.begin("predict.round", -1, tp.op)
		err := run.doRound(tp, run.round+1, nil, &out.checks)
		tp.tr.end(tp.root)
		out.acct.record(0, err)
		if err != nil {
			break
		}
	}
	tputB := float64(run.predicts-roundsB) / time.Since(t1).Seconds()

	out.set("server.rtt_overhead_us", "us", median(tp.rttUS))
	out.set("sqlparse.parse_us", "us", tp.parse.us())
	out.set("txn.commit_us", "us", median(tp.commitUS))
	out.set("executor.extract_ms", "ms", median(tp.extractMS))
	out.set("aiengine.finetune_ms", "ms", median(tp.finetuneMS))
	out.set("aiengine.train_samples_per_s", "samples/s", median(tp.samplesPS))
	out.set("aiengine.final_loss", "loss", median(tp.loss))
	out.set("aiengine.infer_ms", "ms", median(tp.inferMS))
	out.set("aiengine.predict_mae", "abs_error", ratio(run.maeSum, float64(run.maeN)))
	out.record["executor.write_us"] = median(tp.writeUS)
	setOptMetrics(out, &tp.opt)
	if n, err := queryInt(c, "SELECT COUNT(*) FROM ctr"); err != nil {
		return err
	} else if n != run.labeled {
		out.checks.failf("after the traced run: ctr has %d rows, want %d", n, run.labeled)
	}
	if err := finishTrace(env, out, tp.tr, tputA, tputB); err != nil {
		return err
	}
	zeroMetrics(out, allLayerMetrics)
	return nil
}
