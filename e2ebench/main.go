// Command e2ebench is the repository's end-to-end benchmark. It runs one
// workload against the durable wire server and the devUDF IDE client, in
// this process, and prints every metric by name and unit plus the number
// of operations attempted and failed. The last line of standard output is
// one JSON object; everything else goes to standard error.
//
//	e2ebench --workload ide-loop --seed 1 --seconds 20 --trace 0
//	e2ebench -steady 10 --seconds 20 [--workload serve-mixed]
//
// See README.md for the workloads, the metrics and their bounds.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

func main() { os.Exit(run()) }

func run() int {
	workload := flag.String("workload", "", "workload to run: ide-loop or serve-mixed (with -steady, empty means both)")
	seed := flag.Int64("seed", 1, "seed the inputs and the operation sequence are generated from (with -steady, the first seed)")
	seconds := flag.Int("seconds", 20, "length of the timed phase; fixes the number of rounds")
	trace := flag.Int("trace", 0, "0: end-to-end metrics from an untraced run; 1: per-layer metrics from a traced run")
	out := flag.String("out", filepath.Join(".bench_build", "e2ebench"), "directory for the run's data directory, project and spans")
	steady := flag.Int("steady", 0, "run each workload this many times, one seed each, and print each metric's median and quartiles")
	flag.Parse()
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "e2ebench: --seconds must be at least 1 and --trace 0 or 1")
		return 2
	}
	if *steady > 0 {
		return steadiness(*workload, *seed, *seconds, *trace, *out, *steady)
	}
	sp, ok := lookupSpec(*workload)
	if !ok {
		fmt.Fprintf(os.Stderr, "e2ebench: unknown workload %q\n", *workload)
		return 2
	}
	rep, err := runWorkload(sp, *seed, *seconds, *trace == 1, *out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "e2ebench: %v\n", err)
		return 1
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintf(os.Stderr, "e2ebench: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the run's result line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runWorkload runs one workload in a fresh directory under out. Untraced,
// it reports the end-to-end metrics. Traced, it runs the same pass twice
// from identical state: untraced, for the GC count, then traced, for the
// per-layer metrics and the tracing overhead.
func runWorkload(sp spec, seed int64, seconds int, traced bool, out string) (*report, error) {
	dir := filepath.Join(out, fmt.Sprintf("run-%s-%d", sp.name, os.Getpid()))
	defer os.RemoveAll(dir)
	plain, err := runPass(sp, seed, seconds, dir, nil)
	if err != nil {
		return nil, err
	}
	passes := []*result{plain}
	var metrics map[string]metric
	if !traced {
		metrics = endToEnd(plain)
	} else {
		runtime.GC()
		sh := newShadow()
		tracedRes, err := runPass(sp, seed, seconds, dir, sh)
		if err != nil {
			return nil, err
		}
		passes = append(passes, tracedRes)
		metrics = perLayer(plain, tracedRes, sh)
		spans := filepath.Join(out, "spans-"+sp.name+".tsv")
		if err := sh.tr.write(spans); err != nil {
			return nil, err
		}
		fmt.Fprintf(os.Stderr, "spans written to %s\n", spans)
		printSelfTimes(sh.tr)
	}
	rep := &report{Correct: true, Metrics: metrics}
	for _, p := range passes {
		printAccounting(p)
		a, f := p.totals()
		rep.Attempted += a
		rep.Failed += f
		if !p.correct() {
			rep.Correct = false
		}
	}
	printMetrics(metrics)
	return rep, nil
}

// endToEnd derives the metrics a user of the system sees from an
// untraced pass. Every figure is built from medians: ops_per_s is the
// fixed mix's operations per second with each operation at its class's
// median latency (a mean over operations moved with every host stall).
func endToEnd(p *result) map[string]metric {
	ms := func(c class) metric { return metric{quantile(p.lat[c], 0.5).Seconds() * 1e3, "ms"} }
	ops := float64(max(p.ops, 1))
	return map[string]metric{
		"setup_s":             {quantile(p.setup, 0.5).Seconds(), "s"},
		"ops_per_s":           {opsPerRound(p.spec) / mixSeconds(p.spec, &p.lat), "1/s"},
		"alloc_kb_per_op":     {float64(p.allocBytes) / ops / 1024, "KB"},
		"live_heap_mb":        {float64(p.liveHeap) / (1 << 20), "MB"},
		"extract_p50_ms":      ms(clsExtract),
		"probe_p50_ms":        ms(clsProbe),
		"sample_probe_p50_ms": ms(clsSampleProbe),
		"remote_p50_ms":       ms(clsRemote),
		"debug_p50_ms":        ms(clsDebug),
		"query_p50_ms":        ms(clsQuery),
		"adhoc_p50_ms":        ms(clsAdhoc),
		"insert_p50_ms":       ms(clsInsert),
	}
}

// perLayer derives the per-layer metrics from the traced pass's spans and
// counts; plain is the untraced pass over the same operations.
func perLayer(plain, traced *result, sh *shadow) map[string]metric {
	self := sh.tr.selfTimes()
	med := func(name string) time.Duration { return quantile(self[name], 0.5) }
	us := func(name string) metric { return metric{med(name).Seconds() * 1e6, "us"} }
	ms := func(name string) metric { return metric{med(name).Seconds() * 1e3, "ms"} }
	val := func(name, unit string) metric { return metric{medianOf(sh.values[name]), unit} }
	remote := quantile(traced.lat[clsRemote], 0.5)
	query := quantile(traced.lat[clsQuery], 0.5)
	return map[string]metric{
		"devudf.project_us":          us("devudf.project"),
		"transform.rewrite_us":       us("transform.rewrite"),
		"engine.extract_ms":          ms("engine.extract"),
		"transfer.pack_ms":           ms("transfer.pack"),
		"transfer.unpack_ms":         ms("transfer.unpack"),
		"transfer.payload_kb":        val("transfer.payload_kb", "KB"),
		"pickle.dump_ms":             ms("pickle.dump"),
		"pickle.load_ms":             ms("pickle.load"),
		"pickle.input_kb":            val("pickle.input_kb", "KB"),
		"script.parse_us":            us("script.parse"),
		"script.run_ms":              ms("script.run"),
		"script.steps":               val("script.steps", "count"),
		"script.ns_per_step":         val("script.ns_per_step", "ns"),
		"debug.session_ms":           ms("debug.session"),
		"debug.overhead_x":           {float64(med("debug.session")) / float64(max(med("debug.plain"), 1)), "x"},
		"sqlparse.parse_us":          us("sqlparse.parse"),
		"engine.remote_ms":           ms("engine.remote"),
		"wire.remote_overhead_ms":    {(remote - med("engine.remote")).Seconds() * 1e3, "ms"},
		"engine.query_us":            us("engine.query"),
		"wire.query_overhead_us":     {(query - med("engine.query")).Seconds() * 1e6, "us"},
		"wire.encode_us":             us("wire.encode"),
		"wire.decode_us":             us("wire.decode"),
		"wire.result_kb":             val("wire.result_kb", "KB"),
		"wire.read_syscalls_per_op":  val("wire.read_syscalls_per_op", "1/op"),
		"wire.write_syscalls_per_op": val("wire.write_syscalls_per_op", "1/op"),
		"engine.adhoc_us":            us("engine.adhoc"),
		"wal.append_us":              {(med("wal.insert") - med("mem.insert")).Seconds() * 1e6, "us"},
		"wal.bytes_per_insert":       val("wal.bytes_per_insert", "B"),
		"wal.checkpoints":            val("wal.checkpoints", "count"),
		"wal.checkpoint_ms":          ms("wal.checkpoint"),
		"wal.recover_ms":             ms("wal.recover"),
		"dump.restore_ms":            ms("dump.restore"),
		"runtime.gc_cycles_per_kop":  {float64(plain.numGC) / (float64(max(plain.ops, 1)) / 1000), "1/kop"},
		"trace.overhead_pct":         {sh.overheadPct(), "%"},
	}
}

func opsPerRound(sp spec) float64 {
	n := 0
	for c := range numClasses {
		n += sp.perRound(c)
	}
	return float64(n)
}

func printAccounting(p *result) {
	fmt.Fprintf(os.Stderr, "%s: timed phase %.2fs, %d operations, %.2fs in operations\n",
		p.spec.name, p.wall.Seconds(), p.ops, p.busy.Seconds())
	fmt.Fprintf(os.Stderr, "%-15s %9s %7s %11s\n", "class", "attempted", "failed", "p50_ms")
	for c := range numClasses {
		fmt.Fprintf(os.Stderr, "%-15s %9d %7d %11.4f\n", classNames[c], p.attempted[c], p.failed[c],
			quantile(p.lat[c], 0.5).Seconds()*1e3)
	}
	for _, msg := range p.problems {
		fmt.Fprintf(os.Stderr, "CHECK FAILED: %s\n", msg)
	}
}

func printMetrics(m map[string]metric) {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(os.Stderr, "%-28s %14.6g %s\n", n, m[n].Value, m[n].Unit)
	}
}

// printSelfTimes prints each span name's count and median self time: the
// per-layer breakdown, plus the benchmark's own time between operations
// (the round spans' self time).
func printSelfTimes(tr *tracer) {
	self := tr.selfTimes()
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(os.Stderr, "%-20s %8s %14s %14s\n", "span", "count", "self_p50_us", "self_total_ms")
	for _, n := range names {
		var total time.Duration
		for _, d := range self[n] {
			total += d
		}
		fmt.Fprintf(os.Stderr, "%-20s %8d %14.2f %14.2f\n", n, len(self[n]),
			quantile(self[n], 0.5).Seconds()*1e6, total.Seconds()*1e3)
	}
}
