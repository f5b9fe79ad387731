package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"slices"
	"sort"
	"strconv"
	"time"
)

// quantile returns the q-quantile of ds, interpolating linearly between
// the closest ranks. It sorts ds in place.
func quantile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	slices.Sort(ds)
	pos := q * float64(len(ds)-1)
	lo := int(math.Floor(pos))
	if lo >= len(ds)-1 {
		return ds[len(ds)-1]
	}
	frac := pos - float64(lo)
	return ds[lo] + time.Duration(frac*float64(ds[lo+1]-ds[lo]))
}

func medianOf(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartiles the way Python's
// statistics.quantiles(xs, n=4) computes them (the default, exclusive
// method), so the figures printed here are the ones a reader recomputes.
func quartiles(xs []float64) (q1, q3 float64) {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n == 1 {
		return s[0], s[0]
	}
	at := func(i int) float64 {
		m := n + 1
		j := max(1, min(i*m/4, n-1))
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

// steadiness runs each workload runs times, each with its own seed, and
// prints every metric's median, quartiles and spread (interquartile range
// over median): the figures the bounds in BENCHMARK.json are set from.
func steadiness(workload string, seed int64, seconds, trace int, out string, runs int) int {
	names := []string{workload}
	if workload == "" {
		names = nil
		for _, s := range specs {
			names = append(names, s.name)
		}
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "e2ebench: %v\n", err)
		return 1
	}
	status := 0
	for _, w := range names {
		if _, ok := lookupSpec(w); !ok {
			fmt.Fprintf(os.Stderr, "e2ebench: unknown workload %q\n", w)
			return 2
		}
		values := map[string][]float64{}
		units := map[string]string{}
		var failShare []float64
		for i := 0; i < runs; i++ {
			s := seed + int64(i)
			cmd := exec.Command(self, "--workload", w, "--seed", strconv.FormatInt(s, 10),
				"--seconds", strconv.Itoa(seconds), "--trace", strconv.Itoa(trace), "-out", out)
			var stdout bytes.Buffer
			cmd.Stdout = &stdout
			t0 := time.Now()
			err := cmd.Run()
			rep, perr := lastReport(stdout.Bytes())
			if err != nil || perr != nil || !rep.Correct {
				fmt.Fprintf(os.Stderr, "%s seed %d: run failed (%v, %v, correct=%v); rerun it alone to see its output\n",
					w, s, err, perr, rep != nil && rep.Correct)
				status = 1
				continue
			}
			fmt.Fprintf(os.Stderr, "%s seed %d: %.1fs, %d attempted, %d failed\n", w, s, time.Since(t0).Seconds(), rep.Attempted, rep.Failed)
			failShare = append(failShare, float64(rep.Failed)/float64(rep.Attempted))
			for n, m := range rep.Metrics {
				values[n] = append(values[n], m.Value)
				units[n] = m.Unit
			}
		}
		ms := make([]string, 0, len(values))
		for n := range values {
			ms = append(ms, n)
		}
		sort.Strings(ms)
		fmt.Printf("workload %s: %d runs, --seconds %d, --trace %d, failed share %v\n", w, len(failShare), seconds, trace, failShare)
		fmt.Printf("%-28s %-6s %12s %12s %12s %8s\n", "metric", "unit", "median", "q1", "q3", "spread")
		for _, n := range ms {
			med := medianOf(values[n])
			q1, q3 := quartiles(values[n])
			spread := math.NaN()
			if med != 0 {
				spread = (q3 - q1) / math.Abs(med)
			}
			fmt.Printf("%-28s %-6s %12.6g %12.6g %12.6g %8.4f\n", n, units[n], med, q1, q3, spread)
		}
		for _, n := range ms {
			fmt.Fprintf(os.Stderr, "%s %s: %.5g\n", w, n, values[n])
		}
	}
	return status
}

// lastReport parses the result line a run prints last.
func lastReport(stdout []byte) (*report, error) {
	var last []byte
	sc := bufio.NewScanner(bytes.NewReader(stdout))
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) > 0 {
			last = append(last[:0], sc.Bytes()...)
		}
	}
	if last == nil {
		return nil, fmt.Errorf("no result line")
	}
	var rep report
	if err := json.Unmarshal(last, &rep); err != nil {
		return nil, err
	}
	return &rep, nil
}
