package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// Compare mode: perfbench compare BENCHMARK.json base.jsonl [change.jsonl]
//
// A result set is a JSON-lines file as sweep.sh writes it, one run per
// line: {"workload": …, "seed": …, "result": <the run's last output line>}.
// For each workload and end-to-end metric, compare prints the median and
// quartiles of each set. With one set it prints the spread (interquartile
// range over the median) against the metric's bound. With two it gives a
// verdict under the bounds in BENCHMARK.json:
//
//   - unresolved: either set spreads wider than the bound, and not every
//     change run is better than every base run;
//   - worse: the change's median is worse by more than the bound;
//   - better: the change's median is better by more than the bound;
//   - same: otherwise.
//
// A gain inside the bound reads as same: claiming it needs paired runs of
// both commits, which two result sets do not give. A noisy set is
// unresolved even when all its runs are worse than the base: its median
// says neither how much worse nor that it is within the bound.
//
// The exit code is 1 when any metric is worse or unresolved, since neither
// shows the change within its bounds, and 0 otherwise.

type benchSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

type runLine struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Result   struct {
		Correct bool                  `json:"correct"`
		Metrics map[string]jsonMetric `json:"metrics"`
	} `json:"result"`
}

// resultSet maps workload → metric → values over runs.
type resultSet map[string]map[string][]float64

func readSet(path string) (resultSet, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer func() { _ = f.Close() }() // read only
	set := resultSet{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for line := 1; sc.Scan(); line++ {
		var r runLine
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		if !r.Result.Correct {
			return nil, fmt.Errorf("%s:%d: run of %s seed %d was not correct", path, line, r.Workload, r.Seed)
		}
		if set[r.Workload] == nil {
			set[r.Workload] = map[string][]float64{}
		}
		for k, m := range r.Result.Metrics {
			set[r.Workload][k] = append(set[r.Workload][k], m.Value)
		}
	}
	return set, sc.Err()
}

func compareMain(args []string) int {
	if len(args) < 2 || len(args) > 3 {
		fmt.Fprintln(os.Stderr, "usage: perfbench compare BENCHMARK.json base.jsonl [change.jsonl]")
		return 2
	}
	raw, err := os.ReadFile(args[0])
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench compare: %v\n", err)
		return 2
	}
	var spec benchSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench compare: %s: %v\n", args[0], err)
		return 2
	}
	var sets []resultSet
	for _, p := range args[1:] {
		s, err := readSet(p)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench compare: %v\n", err)
			return 2
		}
		sets = append(sets, s)
	}
	names := map[string]bool{}
	for _, s := range sets {
		for w := range s {
			names[w] = true
		}
	}
	var wls []string
	for w := range names {
		wls = append(wls, w)
	}
	sort.Strings(wls)
	failed := false
	for _, w := range wls {
		fmt.Printf("%s\n", w)
		for _, m := range spec.EndToEnd {
			base := sets[0][w][m.Name]
			if len(sets) == 1 {
				if len(base) == 0 {
					continue
				}
				med := median(base)
				q1, q3 := quartiles(base)
				sp := spread(base)
				state := "steady"
				switch {
				case sp > m.Bound:
					state = "NOISY"
				case sp > m.Bound/3:
					state = "ok"
				}
				fmt.Printf("  %-18s %12.6g %-3s [%.6g, %.6g] n=%d spread %.4f bound %.2f %s\n",
					m.Name, med, m.Unit, q1, q3, len(base), sp, m.Bound, state)
				continue
			}
			chg := sets[1][w][m.Name]
			if len(base) == 0 || len(chg) == 0 {
				fmt.Printf("  %-18s missing in one set\n", m.Name)
				continue
			}
			v := verdict(base, chg, m.Better == "lower", m.Bound)
			failed = failed || v == "worse" || v == "unresolved"
			b1, b3 := quartiles(base)
			c1, c3 := quartiles(chg)
			fmt.Printf("  %-18s base %.6g [%.6g, %.6g]  change %.6g [%.6g, %.6g] %s  %+.2f%%  %s\n",
				m.Name, median(base), b1, b3, median(chg), c1, c3, m.Unit,
				100*(median(chg)/median(base)-1), v)
		}
	}
	if failed {
		return 1
	}
	return 0
}

// spread is the interquartile range over the median.
func spread(xs []float64) float64 {
	q1, q3 := quartiles(xs)
	if med := median(xs); med != 0 {
		return (q3 - q1) / med
	}
	return 0
}

// verdict classifies the change set against the base set.
func verdict(base, chg []float64, lowerBetter bool, bound float64) string {
	gain := median(chg)/median(base) - 1
	if lowerBetter {
		gain = -gain
	}
	switch {
	case max(spread(base), spread(chg)) > bound && !allBetter(base, chg, lowerBetter):
		return "unresolved"
	case gain < -bound:
		return "worse"
	case gain > bound:
		return "better"
	}
	return "same"
}

// allBetter reports whether every change run is better than every base run.
func allBetter(base, chg []float64, lowerBetter bool) bool {
	bmin, bmax := minMax(base)
	cmin, cmax := minMax(chg)
	if lowerBetter {
		return cmax < bmin
	}
	return cmin > bmax
}

func minMax(xs []float64) (lo, hi float64) {
	s := sortedCopy(xs)
	return s[0], s[len(s)-1]
}
