package main

import (
	"fmt"
	"math"
	"os"
	"sort"
)

// agreeRuns is how many untraced runs (seeds seed, seed+1, ...) make
// one set; each set also holds one traced run.
const agreeRuns = 3

// layerTolerance stands in for a bound on per-layer metrics, which
// have none.
const layerTolerance = 0.10

// runAgree runs the full set twice with the same code and seeds and
// reports, per (metric, workload), whether the two sets agree within
// the metric's own bound:
//
//	agree       medians within the bound, and each set's own spread within it
//	unresolved  medians within the bound, but a set's spread exceeds it
//	disagree    medians further apart than the bound
//
// An end-to-end metric that disagrees with itself cannot gate a change
// and belongs on the per-layer list.
func runAgree(cfg runConfig) error {
	type key struct{ workload, metric string }
	sets := [2]map[key][]float64{{}, {}}
	for s := range sets {
		for _, w := range workloadDefs {
			for r := 0; r <= agreeRuns; r++ {
				c := cfg
				c.seed, c.trace = cfg.seed+int64(r%agreeRuns), r == agreeRuns
				res, err := runChild(w.Name, c, false)
				if err != nil {
					return err
				}
				if !res.Correct {
					return fmt.Errorf("%s: incorrect result in set %d", w.Name, s+1)
				}
				for name, m := range res.Metrics {
					sets[s][key{w.Name, name}] = append(sets[s][key{w.Name, name}], m.Value)
				}
				fmt.Fprintf(os.Stderr, "agree: set %d %s run %d done\n", s+1, w.Name, r+1)
			}
		}
	}
	spread := func(vs []float64) float64 {
		if len(vs) < 2 || median(vs) == 0 {
			return 0
		}
		s := sorted(vs)
		return (s[len(s)-1] - s[0]) / math.Abs(median(vs))
	}
	counts := map[string]int{}
	report := func(defs []metricDef, endToEnd bool) {
		for _, m := range defs {
			for _, w := range workloadDefs {
				a, b := sets[0][key{w.Name, m.Name}], sets[1][key{w.Name, m.Name}]
				if !m.appliesTo(w.Name) || len(a) == 0 {
					continue
				}
				bound := layerTolerance
				if endToEnd {
					bound = m.Bound
				}
				ma, mb := median(a), median(b)
				diff := 0.0
				if ma != mb {
					diff = math.Abs(mb-ma) / math.Max(math.Abs(ma), 1e-12)
				}
				verdict := "agree"
				switch {
				case diff > bound:
					verdict = "disagree"
				case math.Max(spread(a), spread(b)) > bound:
					verdict = "unresolved"
				}
				if endToEnd {
					counts[verdict]++
				}
				exact := ""
				if diff == 0 && spread(a) == 0 && spread(b) == 0 {
					exact = " exact"
				}
				fmt.Printf("%-10s %-34s %-16s %14.6g %14.6g  diff %5.1f%%  spread %5.1f%% %5.1f%%  bound %4.0f%%%s\n",
					verdict, m.Name, w.Name, ma, mb, 100*diff, 100*spread(a), 100*spread(b), 100*bound, exact)
			}
		}
	}
	fmt.Println("# end-to-end metrics (bound = the metric's own)")
	report(endToEnd, true)
	fmt.Printf("# per-layer metrics (one traced run a set; tolerance %.0f%%)\n", 100*layerTolerance)
	report(perLayer, false)
	var names []string
	for v := range counts {
		names = append(names, v)
	}
	sort.Strings(names)
	for _, v := range names {
		fmt.Printf("# end-to-end %s: %d\n", v, counts[v])
	}
	if counts["disagree"] > 0 {
		return fmt.Errorf("%d end-to-end (metric, workload) pairs disagree between two sets of the same code", counts["disagree"])
	}
	return nil
}
