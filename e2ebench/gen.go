package main

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"strconv"
	"strings"

	"repro/internal/bench"
	"repro/internal/wal"
	"repro/monetlite"
)

// Shapes of the generated tables. The numbers column is sized per workload
// (spec.numbersRows); the rest is shared.
const (
	statRows       = 4096 // static table read by the prepared and ad hoc queries
	statIMax       = 512  // stat.i is uniform in [0, statIMax)
	queryWidth     = 8    // prepared query: lo <= i < lo+queryWidth
	adhocWidth     = 64   // ad hoc query: lo <= i < lo+adhocWidth
	eventsTailRows = 4000 // events rows in the WAL tail of the data directory
	eventsBatch    = 500  // rows per INSERT in that tail
	numbersMax     = 10000

	user     = "monetdb"
	password = "monetdb"
	udfName  = "mean_deviation"

	debugQuery  = `SELECT mean_deviation(i) FROM numbers`
	querySQL    = `SELECT square_go(i) AS sq FROM stat WHERE i >= ? AND i < ? AND f <> ?`
	insertSQL   = `INSERT INTO events VALUES (?, ?, ?)`
	adhocFormat = `SELECT COUNT(*) AS cnt, SUM(i) AS total, MIN(f) AS fmin, MAX(f) AS fmax ` +
		`FROM stat WHERE i >= %d AND i < %d AND f < %s`
)

// inputs is everything a run derives from its seed: the tables the data
// directory holds. The program sees them only through that directory.
type inputs struct {
	numbers []int64
	statI   []int64
	statF   []float64
	eventV  []int64 // v of the events rows in the WAL tail, by id
}

func genInputs(seed int64, numbersRows int) *inputs {
	rng := rand.New(rand.NewSource(seed))
	in := &inputs{
		numbers: make([]int64, numbersRows),
		statI:   make([]int64, statRows),
		statF:   make([]float64, statRows),
		eventV:  make([]int64, eventsTailRows),
	}
	for i := range in.numbers {
		in.numbers[i] = rng.Int63n(numbersMax)
	}
	for i := range in.statI {
		in.statI[i] = rng.Int63n(statIMax)
		in.statF[i] = float64(rng.Intn(1_000_000)) / 1e6
	}
	for i := range in.eventV {
		in.eventV[i] = rng.Int63n(1_000_000)
	}
	return in
}

// buildDataDir writes a fresh data directory for in: a snapshot holding
// numbers, stat, the (buggy, Listing 4) mean_deviation UDF and an empty
// events table, followed by a WAL tail of events inserts. It goes through
// the program's own WAL, so recovery reads exactly what a server wrote.
func buildDataDir(dir string, in *inputs) error {
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	db := monetlite.NewDB()
	m, err := wal.Open(dir, db, wal.Options{SnapshotBytes: -1})
	if err != nil {
		return err
	}
	conn := monetlite.Connect(db, user, password)
	stmts := []string{
		`CREATE TABLE numbers (i INTEGER)`,
		valuesInsert("numbers", len(in.numbers), func(sb *strings.Builder, r int) {
			sb.WriteString(strconv.FormatInt(in.numbers[r], 10))
		}),
		`CREATE TABLE stat (i INTEGER, f DOUBLE)`,
		valuesInsert("stat", statRows, func(sb *strings.Builder, r int) {
			sb.WriteString(strconv.FormatInt(in.statI[r], 10))
			sb.WriteString(", ")
			sb.WriteString(formatFloat(in.statF[r]))
		}),
		bench.MeanDeviationBuggy,
		`CREATE TABLE events (id INTEGER, v INTEGER, note STRING)`,
	}
	for _, sql := range stmts {
		if _, err := conn.Exec(sql); err != nil {
			m.Close()
			return fmt.Errorf("build data dir: %w", err)
		}
	}
	if err := db.Checkpoint(); err != nil {
		m.Close()
		return err
	}
	for lo := 0; lo < eventsTailRows; lo += eventsBatch {
		sql := valuesInsert("events", eventsBatch, func(sb *strings.Builder, r int) {
			id := lo + r
			fmt.Fprintf(sb, "%d, %d, '%s'", id, in.eventV[id], eventNote(int64(id)))
		})
		if _, err := conn.Exec(sql); err != nil {
			m.Close()
			return fmt.Errorf("build data dir: %w", err)
		}
	}
	return m.Close()
}

func valuesInsert(table string, rows int, row func(*strings.Builder, int)) string {
	var sb strings.Builder
	sb.WriteString("INSERT INTO ")
	sb.WriteString(table)
	sb.WriteString(" VALUES ")
	for r := 0; r < rows; r++ {
		if r > 0 {
			sb.WriteByte(',')
		}
		sb.WriteByte('(')
		row(&sb, r)
		sb.WriteByte(')')
	}
	return sb.String()
}

func formatFloat(f float64) string { return strconv.FormatFloat(f, 'g', -1, 64) }

func eventNote(id int64) string { return "e" + strconv.FormatInt(id, 10) }

// ---- Go oracles ----

// meanDeviation is the fixed body's computation (mean absolute deviation)
// in the order the UDF performs it.
func meanDeviation(xs []int64) float64 {
	mean := meanOf(xs)
	dist := 0.0
	for _, x := range xs {
		dist += math.Abs(float64(x) - mean)
	}
	return dist / float64(len(xs))
}

func meanOf(xs []int64) float64 {
	var sum int64
	for _, x := range xs {
		sum += x
	}
	return float64(sum) / float64(len(xs))
}

// partialDeviation is the fixed body's `distance` before loop iteration k.
func partialDeviation(xs []int64, k int) float64 {
	mean := meanOf(xs)
	dist := 0.0
	for _, x := range xs[:k] {
		dist += math.Abs(float64(x) - mean)
	}
	return dist
}

// queryArgs are the binds of one prepared query.
type queryArgs struct {
	lo, hi int64
	ne     float64
}

// expectQuery appends the squares the prepared query must return, in row
// order.
func (in *inputs) expectQuery(a queryArgs, dst []int64) []int64 {
	for r, i := range in.statI {
		if i >= a.lo && i < a.hi && in.statF[r] != a.ne {
			dst = append(dst, i*i)
		}
	}
	return dst
}

// adhocArgs are the literals of one ad hoc aggregate query.
type adhocArgs struct {
	lo, hi int64
	lt     float64
}

// aggregate is the ad hoc query's one result row.
type aggregate struct {
	cnt, total int64
	fmin, fmax float64
}

func (in *inputs) expectAdhoc(a adhocArgs) aggregate {
	agg := aggregate{fmin: math.Inf(1), fmax: math.Inf(-1)}
	for r, i := range in.statI {
		f := in.statF[r]
		if i >= a.lo && i < a.hi && f < a.lt {
			agg.cnt++
			agg.total += i
			agg.fmin = math.Min(agg.fmin, f)
			agg.fmax = math.Max(agg.fmax, f)
		}
	}
	return agg
}

func (a adhocArgs) sql() string { return fmt.Sprintf(adhocFormat, a.lo, a.hi, formatFloat(a.lt)) }

// opGen draws the arguments of every operation of a pass from the seed, so
// two passes (and two runs) with one seed issue the same operations.
type opGen struct {
	rng    *rand.Rand
	in     *inputs
	nextID int64
}

func newOpGen(seed int64, in *inputs) *opGen {
	return &opGen{rng: rand.New(rand.NewSource(seed ^ 0x5eed0fe2e)), in: in, nextID: eventsTailRows}
}

func (g *opGen) query() queryArgs {
	lo := g.rng.Int63n(statIMax - queryWidth)
	a := queryArgs{lo: lo, hi: lo + queryWidth, ne: float64(g.rng.Intn(1_000_000)) / 1e6}
	if g.rng.Intn(2) == 0 {
		// Exclude a value the range holds, so the <> filter drops a row.
		for r, i := range g.in.statI {
			if i >= a.lo && i < a.hi {
				a.ne = g.in.statF[r]
				break
			}
		}
	}
	return a
}

func (g *opGen) adhoc() adhocArgs {
	for {
		lo := g.rng.Int63n(statIMax - adhocWidth)
		a := adhocArgs{lo: lo, hi: lo + adhocWidth, lt: 0.25 + float64(g.rng.Intn(750_000))/1e6}
		if g.in.expectAdhoc(a).cnt > 0 {
			return a
		}
	}
}

// insert returns the next event row; ids continue after the WAL tail.
func (g *opGen) insert() (id, v int64) {
	id = g.nextID
	g.nextID++
	return id, g.rng.Int63n(1_000_000)
}

// sampleSeed and breakAt vary the sampled extract and the breakpoint from
// round to round.
func (g *opGen) sampleSeed() int64   { return g.rng.Int63n(1 << 30) }
func (g *opGen) breakAt(n int) int64 { return g.rng.Int63n(int64(n)) }
