package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// spec is the part of BENCHMARK.json compare reads.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

func readSpec(path string) (*spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("parse %s: %w", path, err)
	}
	return &s, nil
}

// side is one file's untraced runs of one workload: the metric values of
// its correct runs, in file order, and how many runs were excluded for
// being incorrect or having failed operations.
type side struct {
	values   map[string][]float64
	excluded int
}

// readRecords loads the untraced runs of an -out file, by workload.
func readRecords(path string) (map[string]*side, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	runs := map[string]*side{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<22)
	for line := 1; sc.Scan(); line++ {
		var rec record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		if rec.Trace != 0 {
			continue
		}
		s := runs[rec.Workload]
		if s == nil {
			s = &side{values: map[string][]float64{}}
			runs[rec.Workload] = s
		}
		if !rec.Correct || rec.Failed != 0 {
			s.excluded++
			continue
		}
		for name, m := range rec.Metrics {
			s.values[name] = append(s.values[name], m.Value)
		}
	}
	return runs, sc.Err()
}

// verdict judges B against A for one metric, by the rules the
// repository's performance claims follow:
//
//   - better: B wins at least nine tenths of the runs paired in file
//     order, and the medians differ by more than A's interquartile range;
//   - worse: B's median is worse than A's by more than the bound;
//   - unresolved: either side's spread (IQR over median) exceeds the
//     bound, unless every run of B reads better than every run of A;
//   - same: none of these.
func verdict(a, b []float64, higherBetter bool, bound float64) string {
	dir := -1.0
	if higherBetter {
		dir = 1
	}
	q1a, ma, q3a := quartiles(a)
	q1b, mb, q3b := quartiles(b)
	pairs := min(len(a), len(b))
	wins := 0
	for i := 0; i < pairs; i++ {
		if dir*(b[i]-a[i]) > 0 {
			wins++
		}
	}
	if pairs > 0 && float64(wins) >= 0.9*float64(pairs) && dir*(mb-ma) > q3a-q1a {
		return "better"
	}
	if dir*(ma-mb) > bound*math.Abs(ma) {
		return "worse"
	}
	spread := math.Max(ratio(q3a-q1a, math.Abs(ma)), ratio(q3b-q1b, math.Abs(mb)))
	sa, sb := sortedCopy(a), sortedCopy(b)
	allBetter := len(sa) > 0 && len(sb) > 0 &&
		(higherBetter && sb[0] > sa[len(sa)-1] || !higherBetter && sb[len(sb)-1] < sa[0])
	if spread > bound && !allBetter {
		return "unresolved"
	}
	return "same"
}

// compare prints, for each workload and end-to-end metric, each side's
// median and quartiles, its spread, and the verdict, over the correct
// runs only. When B has more incorrect runs of a workload than A, every
// metric of the workload is "invalid": a gain does not count when more
// operations fail than before. It exits 1 when any metric reads worse or
// invalid.
func compare(args []string, specPath string, stdout, stderr io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(stderr, "usage: cs31bench compare A.jsonl B.jsonl")
		return 2
	}
	sp, err := readSpec(specPath)
	if err != nil {
		fmt.Fprintf(stderr, "cs31bench: %v\n", err)
		return 2
	}
	a, err := readRecords(args[0])
	if err != nil {
		fmt.Fprintf(stderr, "cs31bench: %v\n", err)
		return 2
	}
	b, err := readRecords(args[1])
	if err != nil {
		fmt.Fprintf(stderr, "cs31bench: %v\n", err)
		return 2
	}
	fmt.Fprintf(stdout, "%-17s %-17s %5s %32s %32s  %s\n", "workload", "metric", "runs",
		"A median [q1, q3] spread", "B median [q1, q3] spread", "verdict")
	count := map[string]int{}
	for _, w := range sp.Workloads {
		sa, sb := a[w.Name], b[w.Name]
		if sa == nil || sb == nil {
			continue
		}
		if sa.excluded+sb.excluded > 0 {
			fmt.Fprintf(stdout, "%-17s excluded incorrect runs: A %d, B %d\n", w.Name, sa.excluded, sb.excluded)
		}
		for _, m := range sp.EndToEnd {
			va, vb := sa.values[m.Name], sb.values[m.Name]
			v := "invalid"
			if sb.excluded <= sa.excluded {
				if len(va) == 0 || len(vb) == 0 {
					continue
				}
				v = verdict(va, vb, m.Better == "higher", m.Bound)
			}
			count[v]++
			summary := func(xs []float64) string {
				q1, q2, q3 := quartiles(xs)
				return fmt.Sprintf("%.4g [%.4g, %.4g] %5.1f%%", q2, q1, q3, 100*ratio(q3-q1, math.Abs(q2)))
			}
			fmt.Fprintf(stdout, "%-17s %-17s %2d/%-2d %32s %32s  %s\n", w.Name, m.Name, len(va), len(vb),
				summary(va), summary(vb), v)
		}
	}
	fmt.Fprintf(stdout, "%d better, %d worse, %d unresolved, %d same, %d invalid\n",
		count["better"], count["worse"], count["unresolved"], count["same"], count["invalid"])
	if count["worse"] > 0 || count["invalid"] > 0 {
		return 1
	}
	return 0
}
