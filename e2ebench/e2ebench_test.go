package main

import (
	"encoding/json"
	"os"
	"slices"
	"testing"

	"repro/internal/script"
	"repro/internal/storage"
)

// benchmarkMetrics reads the metric names BENCHMARK.json declares.
func benchmarkMetrics(t *testing.T) (endToEnd, perLayer []string) {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
		PerLayer  []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	for _, w := range spec.Workloads {
		if _, ok := lookupSpec(w.Name); !ok {
			t.Errorf("BENCHMARK.json names workload %q, which the benchmark does not define", w.Name)
		}
	}
	for _, m := range spec.EndToEnd {
		endToEnd = append(endToEnd, m.Name)
	}
	for _, m := range spec.PerLayer {
		perLayer = append(perLayer, m.Name)
	}
	return endToEnd, perLayer
}

// TestSmoke runs both workloads, untraced and traced, on a few operations
// and small data: every operation succeeds, every check passes, and each
// run prints exactly the metrics BENCHMARK.json declares.
func TestSmoke(t *testing.T) {
	endToEnd, perLayer := benchmarkMetrics(t)
	for _, sp := range specs {
		sp.numbersRows = 800
		sp.blockPatterns = 1
		sp.roundsPerSecond = 2
		sp.setupReps = 2
		for _, traced := range []bool{false, true} {
			rep, err := runWorkload(sp, 7, 1, traced, t.TempDir())
			if err != nil {
				t.Fatalf("%s traced=%v: %v", sp.name, traced, err)
			}
			if !rep.Correct || rep.Failed != 0 || rep.Attempted == 0 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d", sp.name, traced, rep.Correct, rep.Attempted, rep.Failed)
			}
			want := endToEnd
			if traced {
				want = perLayer
			}
			var got []string
			for name := range rep.Metrics {
				got = append(got, name)
			}
			slices.Sort(got)
			want = slices.Sorted(slices.Values(want))
			if !slices.Equal(got, want) {
				t.Errorf("%s traced=%v: metrics\n%v\nwant\n%v", sp.name, traced, got, want)
			}
		}
	}
}

func intCol(name string, xs ...int64) *storage.Column {
	return &storage.Column{Name: name, Typ: storage.TInt, Ints: xs}
}

func floatCol(name string, xs ...float64) *storage.Column {
	return &storage.Column{Name: name, Typ: storage.TFloat, Flts: xs}
}

func table(cols ...*storage.Column) *storage.Table { return &storage.Table{Name: "t", Cols: cols} }

// TestChecksRejectWrongValues shows that no check passes vacuously: each
// accepts the right expected value and rejects a wrong one.
func TestChecksRejectWrongValues(t *testing.T) {
	sample := []int64{4, 8, 15, 16, 23, 42}
	col := append([]int64{1, 2, 3}, sample...)
	at := int64(3)
	debugOut := func(i int64, distance, result float64) debugOutcome {
		return debugOutcome{
			locals: map[string]script.Value{
				"i": script.IntVal(i), "mean": script.FloatVal(meanOf(sample)), "distance": script.FloatVal(distance),
			},
			result: script.FloatVal(result),
		}
	}
	okDebug := debugOut(at, partialDeviation(sample, int(at)), meanDeviation(sample))
	agg := aggregate{cnt: 2, total: 9, fmin: 0.25, fmax: 0.5}
	aggTable := table(intCol("cnt", 2), intCol("total", 9), floatCol("fmin", 0.25), floatCol("fmax", 0.5))

	cases := []struct {
		name      string
		right     error
		wrongs    []error
		wrongNote string
	}{
		{"mean deviation", checkFloat("probe", script.FloatVal(meanDeviation(sample)), meanDeviation(sample)),
			[]error{checkFloat("probe", script.FloatVal(meanDeviation(sample)), meanDeviation(sample)*1.001),
				checkFloat("probe", script.StrVal("x"), 1)}, "off by 0.1%, not a number"},
		{"remote scalar", checkScalar(table(floatCol("r", 2.5)), 2.5),
			[]error{checkScalar(table(floatCol("r", 2.5)), 2.6), checkScalar(table(intCol("r", 2)), 2)}, "wrong value, wrong type"},
		{"listing 4", checkAboutZero(table(floatCol("r", 1e-12)), 5000),
			[]error{checkAboutZero(table(floatCol("r", 0.5)), 5000)}, "clearly non-zero"},
		{"full extract", checkSameRows(col, col),
			[]error{checkSameRows(col[1:], col), checkSameRows(append(slices.Clone(col[:len(col)-1]), 99), col)}, "missing row, changed row"},
		{"sample", checkDrawn(sample, col, len(sample)),
			[]error{checkDrawn(sample, col, len(sample)+1), checkDrawn([]int64{4, 4}, col, 2), checkDrawn([]int64{4, 77}, col, 2)},
			"wrong size, value drawn twice, value not in column"},
		{"debugger", checkDebug(okDebug, sample, at),
			[]error{
				checkDebug(debugOut(at+1, partialDeviation(sample, int(at)), meanDeviation(sample)), sample, at),
				checkDebug(debugOut(at, partialDeviation(sample, int(at))+1, meanDeviation(sample)), sample, at),
				checkDebug(debugOut(at, partialDeviation(sample, int(at)), meanDeviation(sample)+1), sample, at),
			}, "wrong i, wrong partial sum, wrong result"},
		{"prepared query", checkInts(table(intCol("sq", 1, 4, 9)), "sq", []int64{1, 4, 9}),
			[]error{checkInts(table(intCol("sq", 1, 4, 9)), "sq", []int64{1, 4, 10}), checkInts(table(intCol("sq", 1, 4)), "sq", []int64{1, 4, 9})},
			"wrong row, missing row"},
		{"ad hoc aggregate", checkAggregate(aggTable, agg),
			[]error{checkAggregate(aggTable, aggregate{cnt: 3, total: 9, fmin: 0.25, fmax: 0.5}),
				checkAggregate(aggTable, aggregate{cnt: 2, total: 9, fmin: 0.25, fmax: 0.75})}, "wrong count, wrong max"},
		{"insert count", checkCount(table(intCol("n", 12)), 12),
			[]error{checkCount(table(intCol("n", 12)), 13)}, "one insert lost"},
		{"durability", checkDurable(table(intCol("id", eventsTailRows+1, eventsTailRows), intCol("v", 7, 5)), []int64{5, 7}),
			[]error{checkDurable(table(intCol("id", eventsTailRows), intCol("v", 5)), []int64{5, 7}),
				checkDurable(table(intCol("id", eventsTailRows, eventsTailRows+1), intCol("v", 5, 8)), []int64{5, 7})},
			"acknowledged insert missing, value changed"},
	}
	for _, c := range cases {
		if c.right != nil {
			t.Errorf("%s: rejected the right value: %v", c.name, c.right)
		}
		for i, err := range c.wrongs {
			if err == nil {
				t.Errorf("%s: accepted wrong value %d of (%s)", c.name, i, c.wrongNote)
			}
		}
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(n=4).
func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v; want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if q1, q3 := quartiles([]float64{1, 2, 4}); q1 != 1 || q3 != 4 {
		t.Errorf("quartiles = %v, %v; want 1, 4", q1, q3)
	}
}
