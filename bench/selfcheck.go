package main

import (
	"fmt"
	"os"
)

// selfCheck runs n sets of the chosen workload (all five when none is
// named) back to back on one seed and prints, per (metric, workload),
// min / median / max and whether max-min stays within the metric's bound
// (counts must repeat exactly).
func selfCheck(opt options, n int) bool {
	names := []string{opt.workload}
	if opt.workload == "" {
		names = names[:0]
		for _, w := range workloads {
			names = append(names, w.name)
		}
	}
	bounds := map[string]float64{}
	for _, m := range endToEnd {
		bounds[m.Name] = m.Bound
	}
	ok := true
	for _, name := range names {
		series := map[string][]float64{}
		units := map[string]string{}
		for i := 0; i < n; i++ {
			o := opt
			o.workload = name
			res, err := run(o)
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s set %d: %v\n", name, i, err)
				return false
			}
			if !res.correct {
				fmt.Printf("%-16s set %d: %d of %d operations failed\n", name, i, res.failed, res.attempted)
				ok = false
			}
			line := fmt.Sprintf("%-16s set %d:", name, i)
			for _, m := range res.sortedNames() {
				v := res.metrics[m]
				series[m] = append(series[m], v.Value)
				units[m] = v.Unit
				if _, gated := bounds[m]; gated {
					line += fmt.Sprintf(" %s=%.5g", m, v.Value)
				}
			}
			fmt.Println(line)
		}
		for _, m := range sortedKeys(series) {
			sp := spreadOf(series[m])
			bound, gated := bounds[m]
			verdict := "-"
			switch {
			case exactCounts[m]:
				verdict = passFail(sp.pass(0, true))
			case gated:
				verdict = passFail(sp.pass(bound, false))
			}
			if verdict == "FAIL" {
				ok = false
			}
			fmt.Printf("%-16s %-34s %s %-8s %s\n", name, m, sp, units[m], verdict)
		}
	}
	return ok
}

func passFail(ok bool) string {
	if ok {
		return "PASS"
	}
	return "FAIL"
}
