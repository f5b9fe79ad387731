package main

// Correctness checks. Each compares the program's output with a Go
// computation over the generated inputs, never with a stored copy of an
// earlier output.

import (
	"fmt"
	"math"
	"sort"

	"repro/devudf"
	"repro/internal/pickle"
	"repro/internal/script"
	"repro/internal/storage"
)

const relTol = 1e-9

func closeTo(got, want float64) bool {
	return math.Abs(got-want) <= relTol*math.Max(1, math.Abs(want))
}

func checkFloat(what string, v script.Value, want float64) error {
	got, ok := script.AsFloat(v)
	if !ok {
		return fmt.Errorf("%s returned %v, not a number", what, v)
	}
	if !closeTo(got, want) {
		return fmt.Errorf("%s returned %v, want %v", what, got, want)
	}
	return nil
}

// checkScalar checks a one-row, one-column DOUBLE result.
func checkScalar(t *storage.Table, want float64) error {
	if t == nil || t.NumRows() != 1 || len(t.Cols) != 1 || t.Cols[0].Typ != storage.TFloat {
		return fmt.Errorf("want one DOUBLE cell, got %v", describe(t))
	}
	if got := t.Cols[0].Flts[0]; !closeTo(got, want) {
		return fmt.Errorf("got %v, want %v", got, want)
	}
	return nil
}

// checkAboutZero checks Listing 4's result: without abs() the deviations
// cancel, leaving rounding error relative to the mean.
func checkAboutZero(t *storage.Table, mean float64) error {
	if t == nil || t.NumRows() != 1 || len(t.Cols) != 1 || t.Cols[0].Typ != storage.TFloat {
		return fmt.Errorf("want one DOUBLE cell, got %v", describe(t))
	}
	if got := t.Cols[0].Flts[0]; math.Abs(got) > 1e-6*math.Max(1, mean) {
		return fmt.Errorf("got %v, want about 0", got)
	}
	return nil
}

func describe(t *storage.Table) string {
	if t == nil {
		return "no table"
	}
	return fmt.Sprintf("%d rows × %d columns", t.NumRows(), len(t.Cols))
}

// readInput returns the numbers column the last extract stored in the
// project's input.bin.
func (r *runner) readInput() ([]int64, error) {
	p := r.e.ide.Project
	v, err := pickle.LoadFile(p.FS(), p.InputPath(udfName))
	if err != nil {
		return nil, err
	}
	return inputColumn(v)
}

func inputColumn(v script.Value) ([]int64, error) {
	d, ok := v.(*script.DictVal)
	if !ok {
		return nil, fmt.Errorf("input.bin holds %T, not a parameter dict", v)
	}
	col, ok := d.GetStr("column")
	if !ok {
		return nil, fmt.Errorf("input.bin has no 'column' parameter")
	}
	l, ok := col.(*script.ListVal)
	if !ok {
		return nil, fmt.Errorf("'column' is %T, not a list", col)
	}
	out := make([]int64, len(l.Items))
	for i, it := range l.Items {
		x, ok := script.AsInt(it)
		if !ok {
			return nil, fmt.Errorf("'column'[%d] = %v is not an integer", i, it)
		}
		out[i] = x
	}
	return out, nil
}

// checkExtract checks a full extract: every row, in order.
func (r *runner) checkExtract(info *devudf.ExtractInfo, want []int64) error {
	if !info.Compressed || !info.Encrypted {
		return fmt.Errorf("payload not compressed and encrypted: %+v", *info)
	}
	got, err := r.readInput()
	if err != nil {
		return err
	}
	return checkSameRows(got, want)
}

func checkSameRows(got, want []int64) error {
	if len(got) != len(want) {
		return fmt.Errorf("extracted %d rows, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			return fmt.Errorf("row %d: extracted %d, want %d", i, got[i], want[i])
		}
	}
	return nil
}

// checkSample checks a sampled extract and keeps the sample for the
// sampled probes and the debugger.
func (r *runner) checkSample(info *devudf.ExtractInfo, k int) error {
	r.sample = nil
	got, err := r.readInput()
	if err != nil {
		return err
	}
	if err := checkDrawn(got, r.in.numbers, k); err != nil {
		return err
	}
	if info.SampleRows != int64(k) || info.TotalRows != int64(len(r.in.numbers)) {
		return fmt.Errorf("extract reports %d of %d rows, want %d of %d", info.SampleRows, info.TotalRows, k, len(r.in.numbers))
	}
	r.sample = got
	return nil
}

// checkDrawn checks that sample holds exactly k rows, all drawn from col
// (as a multiset: no value more often than col holds it).
func checkDrawn(sample, col []int64, k int) error {
	if len(sample) != k {
		return fmt.Errorf("sample holds %d rows, want %d", len(sample), k)
	}
	left := make(map[int64]int, len(col))
	for _, x := range col {
		left[x]++
	}
	for i, x := range sample {
		if left[x] == 0 {
			return fmt.Errorf("sample row %d = %d is not in the column", i, x)
		}
		left[x]--
	}
	return nil
}

// checkDebug checks the breakpoint's locals against Go partial sums and
// the session's final result against the sample's deviation.
func checkDebug(out debugOutcome, sample []int64, at int64) error {
	i, ok := script.AsInt(out.locals["i"])
	if !ok || i != at {
		return fmt.Errorf("stopped with i = %v, want %d", out.locals["i"], at)
	}
	if err := checkFloat("local mean", out.locals["mean"], meanOf(sample)); err != nil {
		return err
	}
	if err := checkFloat("local distance", out.locals["distance"], partialDeviation(sample, int(at))); err != nil {
		return err
	}
	return checkFloat("debugged result", out.result, meanDeviation(sample))
}

// checkInts checks an integer column against want, row for row.
func checkInts(t *storage.Table, name string, want []int64) error {
	if t == nil {
		return fmt.Errorf("no result table")
	}
	col, err := t.Column(name)
	if err != nil {
		return err
	}
	if col.Len() != len(want) {
		return fmt.Errorf("%d rows, want %d", col.Len(), len(want))
	}
	for i, w := range want {
		if col.Ints[i] != w {
			return fmt.Errorf("row %d: %d, want %d", i, col.Ints[i], w)
		}
	}
	return nil
}

func checkAggregate(t *storage.Table, want aggregate) error {
	if t == nil || t.NumRows() != 1 || len(t.Cols) != 4 {
		return fmt.Errorf("want one row of 4 columns, got %v", describe(t))
	}
	got := aggregate{cnt: t.Cols[0].Ints[0], total: t.Cols[1].Ints[0], fmin: t.Cols[2].Flts[0], fmax: t.Cols[3].Flts[0]}
	if got != want {
		return fmt.Errorf("got %+v, want %+v", got, want)
	}
	return nil
}

func checkCount(t *storage.Table, want int64) error {
	if t == nil || t.NumRows() != 1 || len(t.Cols) != 1 || len(t.Cols[0].Ints) != 1 {
		return fmt.Errorf("want one INTEGER cell, got %v", describe(t))
	}
	if got := t.Cols[0].Ints[0]; got != want {
		return fmt.Errorf("%d rows, want %d", got, want)
	}
	return nil
}

// checkDurable checks that the recovered events rows past the WAL tail
// are exactly the acknowledged inserts.
func checkDurable(t *storage.Table, acked []int64) error {
	if t == nil {
		return fmt.Errorf("no result table")
	}
	ids, err := t.Column("id")
	if err != nil {
		return err
	}
	vs, err := t.Column("v")
	if err != nil {
		return err
	}
	if ids.Len() != len(acked) {
		return fmt.Errorf("recovered %d inserts, %d were acknowledged", ids.Len(), len(acked))
	}
	order := make([]int, ids.Len())
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return ids.Ints[order[a]] < ids.Ints[order[b]] })
	for k, row := range order {
		if id := ids.Ints[row]; id != int64(eventsTailRows+k) || vs.Ints[row] != acked[k] {
			return fmt.Errorf("recovered row (%d, %d), want (%d, %d)", id, vs.Ints[row], eventsTailRows+k, acked[k])
		}
	}
	return nil
}
