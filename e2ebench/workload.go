package main

import (
	"context"
	"fmt"
	"math"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"strings"
	"time"

	"repro/devudf"
	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/debug"
	"repro/internal/script"
	"repro/internal/wal"
	"repro/monetlite"
)

// ctx is the benchmark's root context: runs are bounded by their fixed
// operation count, not by cancellation.
var ctx = context.Background()

// class is one kind of operation; every class is timed and counted apart.
type class int

const (
	clsExtract class = iota
	clsProbe
	clsRemote
	clsSampleExtract
	clsSampleProbe
	clsDebug
	clsQuery
	clsAdhoc
	clsInsert
	numClasses
)

var classNames = [numClasses]string{
	"extract", "probe", "remote", "sample_extract", "sample_probe", "debug",
	"query", "adhoc", "insert",
}

// mixPattern is one tenth of an application block: 70% prepared queries,
// 20% ad hoc aggregates, 10% prepared inserts, interleaved.
var mixPattern = [10]class{
	clsQuery, clsQuery, clsAdhoc, clsQuery, clsQuery,
	clsInsert, clsQuery, clsAdhoc, clsQuery, clsQuery,
}

// spec defines a workload. A round is one IDE cycle (the paper's E4
// session: full extract, two full probes, one traditional round trip, a 1%
// sampled extract, ten sampled probes, one debugger session) followed by
// an application block of blockPatterns × mixPattern. Every workload runs
// every class, so every run reports every metric; the workloads differ in
// data size and in the share of time each class takes.
type spec struct {
	name          string
	numbersRows   int
	blockPatterns int
	// roundsPerSecond converts --seconds into a fixed round count, so the
	// same --seconds always issues the same operations (no time-bound
	// loop): the state a run builds is identical on both sides of a
	// comparison. Calibrated so a run's timed phase lasts about --seconds
	// on a 2-vCPU x86-64 container.
	roundsPerSecond float64
	warmupRounds    int
	setupReps       int
}

var specs = []spec{
	{name: "ide-loop", numbersRows: 50_000, blockPatterns: 5, roundsPerSecond: 5, warmupRounds: 1, setupReps: 11},
	{name: "serve-mixed", numbersRows: 2_000, blockPatterns: 50, roundsPerSecond: 9, warmupRounds: 2, setupReps: 11},
}

func lookupSpec(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

func (s spec) sampleRows() int { return s.numbersRows / 100 }

func (s spec) rounds(seconds int) int {
	return max(1, int(math.Round(float64(seconds)*s.roundsPerSecond)))
}

// env is one started system: the durable server recovered from the data
// directory, the IDE plugin client, and the application's connection.
type env struct {
	db   *monetlite.DB
	wal  *wal.Manager
	srv  *monetlite.Server
	ide  *devudf.Client
	app  *monetlite.Client
	qry  *monetlite.ClientStmt
	ins  *monetlite.ClientStmt
	info devudf.UDFInfo

	recoverDur time.Duration // wal.Open: snapshot restore + WAL replay
}

// start brings the system up from dataDir. This is the program's start-up
// work that setup_s measures.
//
// The IDE project lives in memory, as in the repository's own E4
// benchmarks: on a virtual machine, the project's small file reads and
// writes made a sampled probe 35-90% slower and were its least steady
// part, while the durability the WAL needs stays on disk.
func start(dataDir string, queryLog bool) (*env, error) {
	e := &env{db: monetlite.NewDB()}
	t0 := time.Now()
	m, err := wal.Open(dataDir, e.db, wal.Options{})
	if err != nil {
		return nil, fmt.Errorf("recover: %w", err)
	}
	e.recoverDur = time.Since(t0)
	e.wal = m
	if queryLog {
		e.db.QueryLog = monetlite.NewQueryLog(256)
	}
	if err := e.db.RegisterGoUDFElementwise("square_go", bench.SquareGo); err != nil {
		e.close()
		return nil, err
	}
	e.srv = monetlite.NewServer("demo", user, password, e.db)
	addr, err := e.srv.Listen("127.0.0.1:0")
	if err != nil {
		e.close()
		return nil, err
	}
	params, err := connParams(addr)
	if err != nil {
		e.close()
		return nil, err
	}
	settings := devudf.DefaultSettings()
	settings.Connection = params
	settings.DebugQuery = debugQuery
	settings.ProjectDir = "udfproject"
	if e.ide, err = devudf.Open(ctx, settings, devudf.WithFS(core.NewMemFS(nil)), devudf.WithPoolSize(1)); err != nil {
		e.close()
		return nil, err
	}
	if _, err := e.ide.ImportUDFs(ctx, udfName); err != nil {
		e.close()
		return nil, err
	}
	if e.info, _, err = e.ide.Project.LoadUDF(udfName); err != nil {
		e.close()
		return nil, err
	}
	if e.app, err = monetlite.DialContext(ctx, params); err != nil {
		e.close()
		return nil, err
	}
	if e.qry, err = e.app.Prepare(ctx, querySQL); err != nil {
		e.close()
		return nil, err
	}
	if e.ins, err = e.app.Prepare(ctx, insertSQL); err != nil {
		e.close()
		return nil, err
	}
	return e, nil
}

func connParams(addr string) (monetlite.ConnParams, error) {
	i := strings.LastIndexByte(addr, ':')
	var port int
	if _, err := fmt.Sscanf(addr[i+1:], "%d", &port); err != nil {
		return monetlite.ConnParams{}, fmt.Errorf("listen address %q: %w", addr, err)
	}
	return monetlite.ConnParams{Host: addr[:i], Port: port, Database: "demo", User: user, Password: password}, nil
}

// close stops everything start started, in reverse order. Errors are
// returned so the durability check knows the log was closed cleanly.
func (e *env) close() error {
	var errs []string
	if e.qry != nil {
		if err := e.qry.Close(ctx); err != nil {
			errs = append(errs, err.Error())
		}
	}
	if e.ins != nil {
		if err := e.ins.Close(ctx); err != nil {
			errs = append(errs, err.Error())
		}
	}
	if e.app != nil {
		e.app.Close()
	}
	if e.ide != nil {
		e.ide.Close()
	}
	if e.srv != nil {
		e.srv.Close()
	}
	if e.wal != nil {
		if err := e.wal.Close(); err != nil {
			errs = append(errs, err.Error())
		}
	}
	if len(errs) > 0 {
		return fmt.Errorf("shut down: %s", strings.Join(errs, "; "))
	}
	return nil
}

// runner executes one pass of a workload: set-up, warm-up, the timed
// rounds, and the end-of-run checks.
type runner struct {
	spec spec
	in   *inputs
	gen  *opGen
	dir  string
	e    *env
	sh   *shadow // non-nil in the traced pass only

	fullMAD float64
	sample  []int64 // the current sampled extract, read back from input.bin
	acked   []int64 // v of each acknowledged insert, by id - eventsTailRows
	expBuf  []int64

	counting  bool
	lat       [numClasses][]time.Duration
	attempted [numClasses]int
	failed    [numClasses]int
	problems  []string

	checkAlloc uint64 // bytes allocated by the benchmark's own checks in the timed phase
}

// result is what one pass measured.
type result struct {
	spec       spec
	setup      []time.Duration
	recover    []time.Duration
	lat        [numClasses][]time.Duration
	attempted  [numClasses]int
	failed     [numClasses]int
	problems   []string
	ops        int
	busy       time.Duration // sum of operation latencies
	wall       time.Duration // the timed phase, checks included
	allocBytes uint64
	numGC      uint32
	liveHeap   uint64
}

// mixSeconds is how long one round of sp's fixed mix takes with every
// operation at its class's median latency in lat.
func mixSeconds(sp spec, lat *[numClasses][]time.Duration) float64 {
	var t float64
	for c := range numClasses {
		t += float64(sp.perRound(c)) * quantile(lat[c], 0.5).Seconds()
	}
	return t
}

func (p *result) correct() bool { return len(p.problems) == 0 }

func (p *result) totals() (attempted, failed int) {
	for c := range numClasses {
		attempted += p.attempted[c]
		failed += p.failed[c]
	}
	return
}

// runPass runs one whole pass in dir. With sh non-nil the pass is traced.
func runPass(sp spec, seed int64, seconds int, dir string, sh *shadow) (*result, error) {
	in := genInputs(seed, sp.numbersRows)
	dataDir := filepath.Join(dir, "data")
	if err := buildDataDir(dataDir, in); err != nil {
		return nil, err
	}
	res := &result{spec: sp}
	var e *env
	for rep := 0; rep < sp.setupReps; rep++ {
		t0 := time.Now()
		var err error
		e, err = start(dataDir, sh != nil)
		if err != nil {
			return nil, err
		}
		res.setup = append(res.setup, time.Since(t0))
		res.recover = append(res.recover, e.recoverDur)
		if rep < sp.setupReps-1 {
			if err := e.close(); err != nil {
				return nil, err
			}
		}
	}
	rounds := sp.rounds(seconds)
	r := &runner{
		spec: sp, in: in, gen: newOpGen(seed, in), dir: dir, e: e, sh: sh,
		fullMAD: meanDeviation(in.numbers),
		acked:   make([]int64, 0, (rounds+sp.warmupRounds)*sp.blockPatterns+1),
	}
	for c := range numClasses {
		r.lat[c] = make([]time.Duration, 0, rounds*sp.perRound(class(c)))
	}
	if sh != nil {
		if err := sh.attach(r, res.recover); err != nil {
			e.close()
			return nil, err
		}
	}

	// Warm-up: the paper's Listing 4 (no abs()) must return about 0, then
	// untimed rounds fill caches and finish lazy set-up.
	r.checkListing4()
	for w := 0; w < sp.warmupRounds; w++ {
		r.round()
	}

	r.counting = true
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	if sh != nil {
		sh.beginTimed()
	}
	t0 := time.Now()
	for i := 0; i < rounds; i++ {
		r.round()
	}
	res.wall = time.Since(t0)
	runtime.ReadMemStats(&m1)
	r.counting = false
	runtime.GC()
	var m2 runtime.MemStats
	runtime.ReadMemStats(&m2)
	if sh != nil {
		sh.endTimed()
	}

	res.lat, res.attempted, res.failed = r.lat, r.attempted, r.failed
	for c := range numClasses {
		res.ops += len(r.lat[c]) + r.failed[c]
		for _, d := range r.lat[c] {
			res.busy += d
		}
	}
	res.allocBytes = m1.TotalAlloc - m0.TotalAlloc - min(r.checkAlloc, m1.TotalAlloc-m0.TotalAlloc)
	res.numGC = m1.NumGC - m0.NumGC
	res.liveHeap = m2.HeapAlloc

	r.finish(dataDir)
	res.problems = r.problems
	return res, nil
}

// perRound is how many operations of class c a round issues.
func (s spec) perRound(c class) int {
	switch c {
	case clsProbe:
		return 2
	case clsSampleProbe:
		return 10
	case clsQuery, clsAdhoc, clsInsert:
		n := 0
		for _, m := range mixPattern {
			if m == c {
				n++
			}
		}
		return n * s.blockPatterns
	}
	return 1
}

// finish runs the end-of-run checks outside the timed phase: the final
// insert count, then shut down, recover the data directory again and
// read back every acknowledged insert.
func (r *runner) finish(dataDir string) {
	want := int64(eventsTailRows + len(r.acked))
	if _, t, err := r.e.app.Query(ctx, `SELECT COUNT(*) AS n FROM events`); err != nil {
		r.problem("final count: %v", err)
	} else if err := checkCount(t, want); err != nil {
		r.problem("final count: %v", err)
	}
	if err := r.e.close(); err != nil {
		r.problem("%v", err)
	}
	if r.sh != nil {
		r.sh.close()
	}
	db := monetlite.NewDB()
	m, err := wal.Open(dataDir, db, wal.Options{SnapshotBytes: -1})
	if err != nil {
		r.problem("durability: recover: %v", err)
		return
	}
	defer m.Close()
	res, err := monetlite.Connect(db, user, password).Exec(
		fmt.Sprintf(`SELECT id, v FROM events WHERE id >= %d`, eventsTailRows))
	if err != nil {
		r.problem("durability: %v", err)
		return
	}
	if err := checkDurable(res.Table, r.acked); err != nil {
		r.problem("durability: %v", err)
	}
}

func (r *runner) problem(format string, args ...any) {
	if len(r.problems) < 20 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// done records one finished operation: its latency if it succeeded, a
// failure otherwise. It reports whether the output should be checked.
func (r *runner) done(c class, t0 time.Time, err error) bool {
	d := time.Since(t0)
	if r.sh != nil {
		r.sh.tr.record(classNames[c], r.sh.roundSpan, t0, d)
	}
	if r.counting {
		r.attempted[c]++
	}
	if err != nil {
		if r.counting {
			r.failed[c]++
		} else {
			r.problem("warm-up %s: %v", classNames[c], err)
		}
		return false
	}
	if r.counting {
		r.lat[c] = append(r.lat[c], d)
		if r.sh != nil {
			r.sh.observe(c, d)
		}
	}
	return true
}

// check runs a correctness check whose allocations are the benchmark's,
// not the program's.
func (r *runner) check(what string, fn func() error) {
	a0 := allocBytes()
	if err := fn(); err != nil {
		r.problem("%s: %v", what, err)
	}
	if r.counting {
		r.checkAlloc += allocBytes() - a0
	}
}

var allocSample = []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}

func allocBytes() uint64 {
	metrics.Read(allocSample)
	return allocSample[0].Value.Uint64()
}

func (r *runner) checkListing4() {
	_, t, err := r.e.app.Query(ctx, debugQuery)
	if err != nil {
		r.problem("listing 4: %v", err)
		return
	}
	if err := checkAboutZero(t, meanOf(r.in.numbers)); err != nil {
		r.problem("listing 4: %v", err)
	}
}

func (r *runner) round() {
	if r.sh != nil {
		r.sh.beginRound()
	}
	r.ideCycle()
	for b := 0; b < r.spec.blockPatterns; b++ {
		for _, c := range mixPattern {
			switch c {
			case clsQuery:
				r.query()
			case clsAdhoc:
				r.adhoc()
			case clsInsert:
				r.insert()
			}
		}
	}
	if r.sh != nil {
		r.sh.endRound()
	}
}

// ideCycle is one developer iteration of the paper's E4 loop.
func (r *runner) ideCycle() {
	c := r.e.ide
	body := bench.MeanDeviationFixedBody

	// 1. Full extract, compressed and encrypted.
	c.Settings.Transfer = devudf.TransferOptions{Compress: true, Encrypt: true, Seed: r.gen.sampleSeed()}
	t0 := time.Now()
	info, err := c.ExtractInputs(ctx, udfName)
	if r.done(clsExtract, t0, err) {
		r.check("extract", func() error { return r.checkExtract(info, r.in.numbers) })
		if r.sh != nil {
			r.sh.afterExtract(c.Settings.Transfer)
		}
	}

	// 2. Two full-input local probes.
	for k := 0; k < 2; k++ {
		t0 = time.Now()
		res, err := r.probe(body)
		if r.done(clsProbe, t0, err) {
			r.check("probe", func() error { return checkFloat("probe", res.Value, r.fullMAD) })
			if r.sh != nil && k == 0 {
				r.sh.afterProbe()
			}
		}
	}

	// 3. One traditional round trip: re-create on the server, re-run there.
	t0 = time.Now()
	t, err := c.TraditionalCycle(ctx, r.e.info, body)
	if r.done(clsRemote, t0, err) {
		r.check("remote", func() error { return checkScalar(t, r.fullMAD) })
		if r.sh != nil {
			r.sh.afterRemote()
		}
	}

	// 4. A 1% sampled extract.
	k := r.spec.sampleRows()
	c.Settings.Transfer = devudf.TransferOptions{Compress: true, Encrypt: true, SampleSize: k, Seed: r.gen.sampleSeed()}
	t0 = time.Now()
	info, err = c.ExtractInputs(ctx, udfName)
	sampled := r.done(clsSampleExtract, t0, err)
	if sampled {
		r.check("sample extract", func() error { return r.checkSample(info, k) })
	}
	if !sampled || len(r.sample) != k {
		return // the sampled steps need a valid sample
	}
	sampleMAD := meanDeviation(r.sample)

	// 5. Ten sampled local probes.
	for j := 0; j < 10; j++ {
		t0 = time.Now()
		res, err := r.probe(body)
		if r.done(clsSampleProbe, t0, err) {
			r.check("sample probe", func() error { return checkFloat("sample probe", res.Value, sampleMAD) })
			if r.sh != nil && j == 0 {
				r.sh.afterSampleProbe(body)
			}
		}
	}

	// 6. One debugger session on the sample.
	at := r.gen.breakAt(k)
	t0 = time.Now()
	out, err := r.debugRun(at)
	if r.done(clsDebug, t0, err) {
		r.check("debug", func() error { return checkDebug(out, r.sample, at) })
		if r.sh != nil {
			r.sh.afterDebug(at)
		}
	}
}

// probe is the devUDF iteration: edit the body in the IDE, run it locally.
func (r *runner) probe(body string) (*devudf.RunResult, error) {
	if err := r.e.ide.EditBody(udfName, body); err != nil {
		return nil, err
	}
	return r.e.ide.RunLocal(ctx, udfName)
}

// debugOutcome is what a debugger session showed.
type debugOutcome struct {
	locals map[string]script.Value
	result script.Value
}

// breakpointLine finds the line of the second loop's accumulation, where
// the conditional breakpoint goes.
func breakpointLine(src []string) int {
	for i, ln := range src {
		if strings.Contains(ln, "distance += abs(") {
			return i + 1
		}
	}
	return 0
}

func (r *runner) debugRun(at int64) (debugOutcome, error) {
	sess, err := r.e.ide.NewDebugSession(ctx, udfName, false)
	if err != nil {
		return debugOutcome{}, err
	}
	return driveDebug(sess, at)
}

// driveDebug is the developer's session: a conditional breakpoint inside
// the loop, Locals, three StepOvers, then continue to the end.
func driveDebug(sess *debug.Session, at int64) (debugOutcome, error) {
	var out debugOutcome
	line := breakpointLine(sess.Source())
	if line == 0 {
		return out, fmt.Errorf("no accumulation line in the debug script")
	}
	sess.SetBreakpoint(line, fmt.Sprintf("i == %d", at))
	ev := sess.Start()
	if ev.Reason != debug.ReasonBreakpoint || ev.Line != line {
		sess.Kill()
		return out, fmt.Errorf("expected a breakpoint stop at line %d, got %s at %d (%v)", line, ev.Reason, ev.Line, ev.Err)
	}
	locals, err := sess.Locals()
	if err != nil {
		sess.Kill()
		return out, err
	}
	out.locals = locals
	for s := 0; s < 3; s++ {
		if ev := sess.StepOver(); ev.Terminal {
			return out, fmt.Errorf("step %d ended the session: %s (%v)", s, ev.Reason, ev.Err)
		}
	}
	if ev := sess.Continue(); ev.Reason != debug.ReasonDone || ev.Err != nil {
		sess.Kill()
		return out, fmt.Errorf("expected the run to finish, got %s (%v)", ev.Reason, ev.Err)
	}
	env, err := sess.Result()
	if err != nil {
		return out, err
	}
	out.result, _ = env.Get("result")
	return out, nil
}

func (r *runner) query() {
	a := r.gen.query()
	t0 := time.Now()
	_, t, err := r.e.qry.Query(ctx, a.lo, a.hi, a.ne)
	if r.done(clsQuery, t0, err) {
		r.expBuf = r.in.expectQuery(a, r.expBuf[:0])
		if err := checkInts(t, "sq", r.expBuf); err != nil {
			r.problem("query %+v: %v", a, err)
		}
		if r.sh != nil {
			r.sh.afterQuery(a)
		}
	}
}

func (r *runner) adhoc() {
	a := r.gen.adhoc()
	sql := a.sql()
	t0 := time.Now()
	_, t, err := r.e.app.Query(ctx, sql)
	if r.done(clsAdhoc, t0, err) {
		if err := checkAggregate(t, r.in.expectAdhoc(a)); err != nil {
			r.problem("adhoc %q: %v", sql, err)
		}
		if r.sh != nil {
			r.sh.afterAdhoc(sql)
		}
	}
}

func (r *runner) insert() {
	id, v := r.gen.insert()
	note := eventNote(id)
	t0 := time.Now()
	_, err := r.e.ins.Exec(ctx, id, v, note)
	if r.done(clsInsert, t0, err) {
		if int(id)-eventsTailRows != len(r.acked) {
			r.problem("insert %d acknowledged out of order", id)
		}
		r.acked = append(r.acked, v)
		if r.sh != nil {
			r.sh.afterInsert(id, v, note)
		}
	}
}
