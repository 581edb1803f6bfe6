package main

import (
	"fmt"
	"os"
)

// selfCheckRuns is the number of runs per set.
const selfCheckRuns = 3

// selfCheck answers whether the benchmark can tell a regression from its
// own noise on this machine: every workload runs in two interleaved sets
// (A B A B …, each run with another seed), and a metric whose set medians
// differ by more than its bound fails the check. Both sets are the same code,
// so a gap in either direction is noise.
func selfCheck(seconds int) error {
	failed := false
	for _, w := range workloads {
		sets := [2]map[string][]float64{{}, {}}
		for i := 0; i < 2*selfCheckRuns; i++ {
			r, err := runTimed(w.scaled(seconds), int64(i+1), setupRepeats)
			if err != nil {
				return err
			}
			if !r.correct {
				return fmt.Errorf("%s: run %d incorrect: %v", w.name, i, r.problems)
			}
			for name, v := range endToEnd(r) {
				sets[i%2][name] = append(sets[i%2][name], v)
			}
			fmt.Fprintf(os.Stderr, "bench: selfcheck %s run %d/%d done\n", w.name, i+1, 2*selfCheckRuns)
		}
		fmt.Printf("%s\n", w.name)
		for _, def := range endToEndMetrics {
			a, b := sets[0][def.name], sets[1][def.name]
			ma, mb := median(a), median(b)
			gap := (mb - ma) / ma
			if gap < 0 {
				gap = -gap
			}
			verdict := "ok"
			if gap > def.bound {
				verdict, failed = "FAIL", true
			}
			fmt.Printf("  %-15s A %.6g [%.6g, %.6g]  B %.6g [%.6g, %.6g]  gap %.4f  bound %.3f  %s\n",
				def.name, ma, quantile(a, 0.25), quantile(a, 0.75), mb, quantile(b, 0.25), quantile(b, 0.75), gap, def.bound, verdict)
		}
	}
	if failed {
		return fmt.Errorf("selfcheck: a set-median gap exceeds its bound; lengthen the workload, do not widen the bound")
	}
	return nil
}
