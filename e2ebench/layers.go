package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/devudf"
	"repro/internal/bench"
	"repro/internal/debug"
	"repro/internal/dump"
	"repro/internal/obs"
	"repro/internal/pickle"
	"repro/internal/script"
	"repro/internal/sqlparse"
	"repro/internal/storage"
	"repro/internal/transfer"
	"repro/internal/transform"
	"repro/internal/wal"
	"repro/internal/wire"
	"repro/monetlite"
)

// span is one timed interval of the traced pass. Spans of one round share
// the round's span as their root.
type span struct {
	id, parent int32
	name       string
	start, end time.Duration // since the tracer's origin
}

// tracer keeps the traced pass's spans in memory; they are written out
// when the run ends.
type tracer struct {
	origin time.Time
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now(), spans: make([]span, 0, 1<<16)} }

// record adds a finished span measured by the caller and returns its id.
func (t *tracer) record(name string, parent int32, start time.Time, d time.Duration) int32 {
	s := start.Sub(t.origin)
	t.spans = append(t.spans, span{id: int32(len(t.spans) + 1), parent: parent, name: name, start: s, end: s + d})
	return int32(len(t.spans))
}

// open starts a span whose end is set by close.
func (t *tracer) open(name string, parent int32) int32 {
	return t.record(name, parent, time.Now(), 0)
}

func (t *tracer) close(id int32) { t.spans[id-1].end = time.Since(t.origin) }

// selfTimes returns each span's duration minus the time its children
// cover, grouped by span name.
func (t *tracer) selfTimes() map[string][]time.Duration {
	self := make([]time.Duration, len(t.spans))
	for i, s := range t.spans {
		self[i] += s.end - s.start
		if s.parent > 0 {
			self[s.parent-1] -= s.end - s.start
		}
	}
	out := map[string][]time.Duration{}
	for i, s := range t.spans {
		out[s.name] = append(out[s.name], self[i])
	}
	return out
}

// write stores the spans as tab-separated id, parent, name, start and end
// in nanoseconds.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "id\tparent\tname\tstart_ns\tend_ns")
	for _, s := range t.spans {
		fmt.Fprintf(w, "%d\t%d\t%s\t%d\t%d\n", s.id, s.parent, s.name, s.start.Nanoseconds(), s.end.Nanoseconds())
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// appEvery spaces out the layer probes behind application operations: one
// in appEvery of them is repeated layer by layer.
const appEvery = 4

// shadow repeats, in the traced pass, the work behind an operation one
// layer at a time, calling each layer's public functions directly, each
// call inside a span. Counts (bytes, steps, syscalls) are recorded beside
// the spans.
type shadow struct {
	tr        *tracer
	roundSpan int32
	r         *runner

	// Layer work runs behind the operations of every other timed round
	// only. The rounds in between run exactly as untraced, so comparing the
	// two halves of one pass gives the tracing overhead free of the host's
	// drift between two passes (which moved it by ±30%).
	timed  bool
	active bool                           // this round repeats its operations layer by layer
	rounds int                            // timed rounds begun
	lat    [2][numClasses][]time.Duration // latencies in untraced [0] and traced [1] rounds

	conn    *monetlite.Conn // embedded session on the served database
	qry     *monetlite.Stmt
	walStmt *monetlite.Stmt // inserts into scratch databases with and without a WAL
	walMgr  *wal.Manager
	memStmt *monetlite.Stmt
	walDir  string

	createSQL string

	values   map[string][]float64
	appCount int

	segAtStart   uint64
	walAtStart   int64
	insertsTimed int
}

func newShadow() *shadow {
	return &shadow{tr: newTracer(), values: map[string][]float64{}}
}

func (s *shadow) value(name string, v float64) { s.values[name] = append(s.values[name], v) }

// layer times one layer call as a child of parent.
func (s *shadow) layer(name string, parent int32, fn func() error) error {
	t0 := time.Now()
	err := fn()
	s.tr.record(name, parent, t0, time.Since(t0))
	if err != nil {
		s.r.problem("layer %s: %v", name, err)
	}
	return err
}

// attach binds the shadow to a started pass.
func (s *shadow) attach(r *runner, recovered []time.Duration) error {
	s.r = r
	// Set-up ran before tracing started: record its recoveries as spans
	// ending now.
	for _, d := range recovered {
		s.tr.record("wal.recover", 0, time.Now().Add(-d), d)
	}
	s.conn = monetlite.Connect(r.e.db, user, password)
	var err error
	if s.createSQL, err = createFunctionSQL(r.e.info, bench.MeanDeviationFixedBody); err != nil {
		return err
	}
	if s.qry, err = s.conn.Prepare(querySQL); err != nil {
		return err
	}
	s.walDir = filepath.Join(r.dir, "shadow-wal")
	if err := os.RemoveAll(s.walDir); err != nil {
		return err
	}
	walDB := monetlite.NewDB()
	if s.walMgr, err = wal.Open(s.walDir, walDB, wal.Options{}); err != nil {
		return err
	}
	memDB := monetlite.NewDB()
	for _, db := range []*monetlite.DB{walDB, memDB} {
		c := monetlite.Connect(db, user, password)
		if _, err := c.Exec(`CREATE TABLE events (id INTEGER, v INTEGER, note STRING)`); err != nil {
			return err
		}
		st, err := c.Prepare(insertSQL)
		if err != nil {
			return err
		}
		if db == walDB {
			s.walStmt = st
		} else {
			s.memStmt = st
		}
	}
	return s.restoreProbe()
}

func (s *shadow) close() {
	if s.walMgr != nil {
		if err := s.walMgr.Close(); err != nil {
			s.r.problem("shadow wal: %v", err)
		}
		s.walMgr = nil
	}
}

func (s *shadow) beginRound() {
	s.roundSpan = s.tr.open("round", 0)
	if s.timed {
		s.rounds++
		s.active = s.rounds%2 == 0
	}
}

func (s *shadow) endRound() { s.tr.close(s.roundSpan) }

func (s *shadow) observe(c class, d time.Duration) {
	k := 0
	if s.active {
		k = 1
	}
	s.lat[k][c] = append(s.lat[k][c], d)
}

// overheadPct is how much longer a round of the mix takes, at median
// latencies, in traced rounds than in untraced ones, in percent.
func (s *shadow) overheadPct() float64 {
	plain := mixSeconds(s.r.spec, &s.lat[0])
	if plain == 0 {
		return 0
	}
	return 100 * (mixSeconds(s.r.spec, &s.lat[1])/plain - 1)
}

func (s *shadow) beginTimed() {
	s.timed = true
	s.segAtStart = lastSegment(filepath.Join(s.r.dir, "data"))
	s.walAtStart = dirBytes(s.walDir)
}

// endTimed takes the measurements that need the system idle: syscalls per
// wire operation, checkpoint time, and the WAL counts of the timed phase.
func (s *shadow) endTimed() {
	s.timed, s.active = false, false
	s.value("wal.checkpoints", float64(lastSegment(filepath.Join(s.r.dir, "data"))-s.segAtStart))
	if s.insertsTimed > 0 {
		s.value("wal.bytes_per_insert", float64(dirBytes(s.walDir)-s.walAtStart)/float64(s.insertsTimed))
	}
	s.crossCheck()
	s.syscallProbe()
	root := s.tr.open("shadow.checkpoint", 0)
	for i := 0; i < 3; i++ {
		_ = s.layer("wal.checkpoint", root, s.r.e.db.Checkpoint)
	}
	s.tr.close(root)
}

// crossCheck prints the server's own per-stage split of the last queries
// it served (the query log behind sys.query_log), beside which the
// benchmark's embedded and wire figures can be read. It is not a metric.
func (s *shadow) crossCheck() {
	type split struct {
		n      int64
		total  int64
		stages [obs.NumStages]int64
	}
	kinds := []struct{ name, prefix string }{
		{"query", "SELECT square_go"}, {"adhoc", "SELECT COUNT"}, {"insert", "INSERT"},
	}
	splits := make([]split, len(kinds))
	for _, e := range s.r.e.db.QueryLog.Snapshot() {
		for k, kind := range kinds {
			if strings.HasPrefix(e.Query, kind.prefix) {
				sp := &splits[k]
				sp.n++
				sp.total += e.Total
				for i := range sp.stages {
					sp.stages[i] += e.StageNanos(i)
				}
			}
		}
	}
	for k, sp := range splits {
		if sp.n == 0 {
			continue
		}
		var b strings.Builder
		fmt.Fprintf(&b, "server split %-6s n=%d total_us=%.1f", kinds[k].name, sp.n, float64(sp.total)/float64(sp.n)/1e3)
		for i, name := range obs.StageNames {
			fmt.Fprintf(&b, " %s_us=%.1f", name, float64(sp.stages[i])/float64(sp.n)/1e3)
		}
		fmt.Fprintln(os.Stderr, b.String())
	}
}

// restoreProbe times restoring the data directory's newest snapshot into
// an empty database.
func (s *shadow) restoreProbe() error {
	snap, err := newestSnapshot(filepath.Join(s.r.dir, "data"))
	if err != nil {
		return err
	}
	data, err := os.ReadFile(snap)
	if err != nil {
		return err
	}
	root := s.tr.open("shadow.setup", 0)
	for i := 0; i < 3; i++ {
		_ = s.layer("dump.restore", root, func() error { return dump.Restore(monetlite.NewDB(), bytes.NewReader(data)) })
	}
	s.tr.close(root)
	return nil
}

// afterExtract splits a full extract into its layers: the SQL rewrite, the
// rewritten query run embedded, transfer (deflate + AES) both ways, and
// pickling of the inputs both ways.
func (s *shadow) afterExtract(opts transfer.Options) {
	if !s.active {
		return
	}
	root := s.tr.open("shadow.extract", s.roundSpan)
	defer s.tr.close(root)
	var sql string
	if s.layer("transform.rewrite", root, func() (err error) {
		sql, err = transform.RewriteToExtract(debugQuery, udfName, opts)
		return err
	}) != nil {
		return
	}
	var res *monetlite.Result
	if s.layer("engine.extract", root, func() (err error) { res, err = s.conn.Exec(sql); return err }) != nil {
		return
	}
	col, err := res.Table.Column("payload")
	if err != nil || col.Len() != 1 {
		s.r.problem("layer engine.extract: no payload")
		return
	}
	packed := col.Blobs[0]
	s.value("transfer.payload_kb", float64(len(packed))/1024)
	var raw []byte
	if s.layer("transfer.unpack", root, func() (err error) { raw, err = transfer.Unpack(packed, password); return err }) != nil {
		return
	}
	_ = s.layer("transfer.pack", root, func() error { _, err := transfer.Pack(raw, password, opts); return err })

	p := s.r.e.ide.Project
	input, err := p.FS().ReadFile(p.InputPath(udfName))
	if err != nil {
		s.r.problem("layer pickle: %v", err)
		return
	}
	s.value("pickle.input_kb", float64(len(input))/1024)
	var params script.Value
	if s.layer("pickle.load", root, func() (err error) { params, err = pickle.Loads(input); return err }) != nil {
		return
	}
	_ = s.layer("pickle.dump", root, func() error { _, err := pickle.Dumps(params); return err })
}

// runScript runs the generated local script the way a local run does.
func (s *shadow) runScript(mod *script.Module) (int64, error) {
	in := script.NewInterp()
	in.FS = s.r.e.ide.Project.FS()
	in.Stdout = io.Discard
	err := in.RunInEnv(mod, in.NewGlobals())
	return in.Steps(), err
}

func (s *shadow) parseScript() (*script.Module, error) {
	src, err := s.r.e.ide.Project.LoadUDFSource(udfName)
	if err != nil {
		return nil, err
	}
	return script.Parse(udfName+".py", src)
}

// afterProbe splits a full-input probe: the interpreter's run of the
// script on the full input.
func (s *shadow) afterProbe() {
	if !s.active {
		return
	}
	root := s.tr.open("shadow.probe", s.roundSpan)
	defer s.tr.close(root)
	mod, err := s.parseScript()
	if err != nil {
		s.r.problem("layer script.parse: %v", err)
		return
	}
	var steps int64
	t0 := time.Now()
	steps, err = s.runScript(mod)
	d := time.Since(t0)
	s.tr.record("script.run", root, t0, d)
	if err != nil {
		s.r.problem("layer script.run: %v", err)
		return
	}
	s.value("script.steps", float64(steps))
	s.value("script.ns_per_step", float64(d.Nanoseconds())/float64(steps))
}

// afterSampleProbe splits a sampled probe: the project file work and the
// script parse.
func (s *shadow) afterSampleProbe(body string) {
	if !s.active {
		return
	}
	root := s.tr.open("shadow.sample_probe", s.roundSpan)
	defer s.tr.close(root)
	p := s.r.e.ide
	var src string
	if s.layer("devudf.project", root, func() (err error) {
		if _, src, err = p.Project.LoadUDF(udfName); err != nil {
			return err
		}
		return p.EditBody(udfName, body)
	}) != nil {
		return
	}
	_ = s.layer("script.parse", root, func() error { _, err := script.Parse(udfName+".py", src); return err })
}

// afterDebug compares a debugger session with a plain run on the same
// sample.
func (s *shadow) afterDebug(at int64) {
	if !s.active {
		return
	}
	root := s.tr.open("shadow.debug", s.roundSpan)
	defer s.tr.close(root)
	mod, err := s.parseScript()
	if err != nil {
		s.r.problem("layer debug: %v", err)
		return
	}
	fs := s.r.e.ide.Project.FS()
	_ = s.layer("debug.session", root, func() error {
		sess := debug.NewSession(mod, debug.Config{Setup: func(in *script.Interp) {
			in.FS = fs
			in.Stdout = io.Discard
		}})
		_, err := driveDebug(sess, at)
		return err
	})
	_ = s.layer("debug.plain", root, func() error { _, err := s.runScript(mod); return err })
}

// afterRemote runs the traditional round trip's two statements embedded.
func (s *shadow) afterRemote() {
	if !s.active {
		return
	}
	root := s.tr.open("shadow.remote", s.roundSpan)
	defer s.tr.close(root)
	_ = s.layer("engine.remote", root, func() error {
		if _, err := s.conn.Exec(s.createSQL); err != nil {
			return err
		}
		res, err := s.conn.Exec(debugQuery)
		if err == nil {
			err = checkScalar(res.Table, s.r.fullMAD)
		}
		return err
	})
}

// createFunctionSQL is the CREATE OR REPLACE FUNCTION the traditional
// round trip sends, rendered from the imported UDF's signature.
func createFunctionSQL(info devudf.UDFInfo, body string) (string, error) {
	schema := func(ps []devudf.ParamInfo) (storage.Schema, error) {
		var out storage.Schema
		for _, p := range ps {
			t, err := storage.ParseType(p.Type)
			if err != nil {
				return nil, err
			}
			out = append(out, storage.ColumnDef{Name: p.Name, Type: t})
		}
		return out, nil
	}
	params, err := schema(info.Params)
	if err != nil {
		return "", err
	}
	returns, err := schema(info.Returns)
	if err != nil {
		return "", err
	}
	return sqlparse.Format(&sqlparse.CreateFunction{
		Name: info.Name, Params: params, Returns: returns, IsTable: info.IsTable,
		Language: info.Language, Body: body, OrReplace: true,
	}), nil
}

// afterQuery runs one in appEvery prepared queries embedded with the same
// binds, and encodes and decodes its result with the wire codec.
func (s *shadow) afterQuery(a queryArgs) {
	if !s.active || s.next() {
		return
	}
	root := s.tr.open("shadow.query", s.roundSpan)
	defer s.tr.close(root)
	var res *monetlite.Result
	if s.layer("engine.query", root, func() (err error) { res, err = s.qry.Query(a.lo, a.hi, a.ne); return err }) != nil {
		return
	}
	var payload []byte
	_ = s.layer("wire.encode", root, func() error { payload = wire.EncodeResult("", res.Table); return nil })
	s.value("wire.result_kb", float64(len(payload))/1024)
	_ = s.layer("wire.decode", root, func() error { _, _, err := wire.DecodeResult(payload); return err })
}

func (s *shadow) next() (skip bool) {
	s.appCount++
	return s.appCount%appEvery != 0
}

// afterAdhoc parses and runs one in appEvery ad hoc queries embedded.
func (s *shadow) afterAdhoc(sql string) {
	if !s.active || s.next() {
		return
	}
	root := s.tr.open("shadow.adhoc", s.roundSpan)
	defer s.tr.close(root)
	_ = s.layer("sqlparse.parse", root, func() error { _, err := sqlparse.Parse(sql); return err })
	_ = s.layer("engine.adhoc", root, func() error { _, err := s.conn.Exec(sql); return err })
}

// afterInsert repeats every insert embedded, into a database with a WAL
// and into one without.
func (s *shadow) afterInsert(id, v int64, note string) {
	if !s.active {
		return
	}
	s.insertsTimed++
	root := s.tr.open("shadow.insert", s.roundSpan)
	defer s.tr.close(root)
	_ = s.layer("wal.insert", root, func() error { _, err := s.walStmt.Exec(id, v, note); return err })
	_ = s.layer("mem.insert", root, func() error { _, err := s.memStmt.Exec(id, v, note); return err })
}

// syscallProbe counts the read and write system calls the whole process
// (client and server) makes per prepared query over the wire.
func (s *shadow) syscallProbe() {
	const n = 200
	base0, err := readProcIO()
	if err != nil {
		// A measurement this host cannot make, not a fault of the program:
		// the counts read 0.
		fmt.Fprintf(os.Stderr, "syscall counts unavailable: %v\n", err)
		s.value("wire.read_syscalls_per_op", 0)
		s.value("wire.write_syscalls_per_op", 0)
		return
	}
	base1, _ := readProcIO()
	a := queryArgs{lo: 0, hi: queryWidth, ne: -1}
	before, _ := readProcIO()
	for i := 0; i < n; i++ {
		if _, _, err := s.r.e.qry.Query(ctx, a.lo, a.hi, a.ne); err != nil {
			s.r.problem("syscalls: %v", err)
			return
		}
	}
	after, _ := readProcIO()
	// Reading /proc/self/io costs syscalls of its own: subtract one read's
	// worth, measured by the two back-to-back reads.
	s.value("wire.read_syscalls_per_op", float64((after.syscr-before.syscr)-(base1.syscr-base0.syscr))/n)
	s.value("wire.write_syscalls_per_op", float64((after.syscw-before.syscw)-(base1.syscw-base0.syscw))/n)
}

type procIO struct{ syscr, syscw int64 }

func readProcIO() (procIO, error) {
	data, err := os.ReadFile("/proc/self/io")
	if err != nil {
		return procIO{}, err
	}
	var p procIO
	for _, ln := range strings.Split(string(data), "\n") {
		k, v, ok := strings.Cut(ln, ": ")
		if !ok {
			continue
		}
		n, _ := strconv.ParseInt(v, 10, 64)
		switch k {
		case "syscr":
			p.syscr = n
		case "syscw":
			p.syscw = n
		}
	}
	return p, nil
}

// lastSegment is the newest WAL segment's sequence number in dir; each
// checkpoint starts a new segment.
func lastSegment(dir string) uint64 {
	var last uint64
	ents, _ := os.ReadDir(dir)
	for _, e := range ents {
		var seq uint64
		if _, err := fmt.Sscanf(e.Name(), "wal-%d.log", &seq); err == nil && seq > last {
			last = seq
		}
	}
	return last
}

func newestSnapshot(dir string) (string, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return "", err
	}
	var snaps []string
	for _, e := range ents {
		if strings.HasPrefix(e.Name(), "snap-") && strings.HasSuffix(e.Name(), ".dump") {
			snaps = append(snaps, e.Name())
		}
	}
	if len(snaps) == 0 {
		return "", fmt.Errorf("no snapshot in %s", dir)
	}
	sort.Strings(snaps)
	return filepath.Join(dir, snaps[len(snaps)-1]), nil
}

func dirBytes(dir string) int64 {
	var n int64
	ents, _ := os.ReadDir(dir)
	for _, e := range ents {
		if info, err := e.Info(); err == nil {
			n += info.Size()
		}
	}
	return n
}
