// Command bench is the repository's benchmark: four fixed-count workloads
// driven through the service's HTTP handler in the configuration `tasted`
// ships, six end-to-end metrics, and a traced run that attributes the time
// to layers by replaying the detect path through public calls. See
// README.md in this directory.
//
//	bash bench/run.sh --workload scan_cpu --seed 1 --seconds 20 --trace 0
//	bash bench/run.sh --workload serve_miss --seed 1 --seconds 20 --trace 1
//	bash bench/run.sh --selfcheck
//	cd bench && go run . -regen-fixture
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
)

// metricValue is one reported metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// withUnits attaches each metric's unit; a value without a declared unit is
// a bug in this program.
func withUnits(values map[string]float64, units map[string]string) map[string]metricValue {
	out := make(map[string]metricValue, len(values))
	for name, v := range values {
		unit, ok := units[name]
		if !ok {
			panic("bench: metric " + name + " has no declared unit")
		}
		out[name] = metricValue{Value: v, Unit: unit}
	}
	return out
}

// runTimed is the untraced run: repeated set-up, timed passes, parity probe.
func runTimed(w workload, seed int64, repeats int) (*runResult, error) {
	s, setupSeconds, err := repeatedSetUp(w, seed, repeats)
	if err != nil {
		return nil, err
	}
	defer s.close()
	r := timedPasses(w, seed, s, nil)
	r.setupSeconds = setupSeconds
	if err := parityProbe(s, seed); err != nil {
		r.fail("%v", err)
	}
	return r, nil
}

func run(w workload, seed int64, trace bool) (result, error) {
	if trace {
		return runTraced(w, seed, "out")
	}
	r, err := runTimed(w, seed, setupRepeats)
	if err != nil {
		return result{}, err
	}
	for i, p := range r.passes {
		fmt.Fprintf(os.Stderr, "bench: %s pass %d: %.3f s, %.1f tables/s, p50 %.3f ms, %d/%d failed\n",
			w.name, i, p.wall.Seconds(), p.tablesPerSec(), quantile(p.latencies, 0.5), p.failed, p.attempted)
	}
	for _, problem := range r.problems {
		fmt.Fprintf(os.Stderr, "bench: %s: INCORRECT: %s\n", w.name, problem)
	}
	attempted, failed := r.attempted()
	return result{Correct: r.correct, Attempted: attempted, Failed: failed, Metrics: withUnits(endToEnd(r), endToEndUnits)}, nil
}

func main() {
	var (
		name      = flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
		seed      = flag.Int64("seed", 1, "derives every tenant corpus and request plan")
		seconds   = flag.Int("seconds", nominalSeconds, "scales the number of timed passes (sized for 20)")
		trace     = flag.Int("trace", 0, "1 = traced run: per-layer metrics and out/trace_<workload>.json instead of end-to-end metrics")
		selfcheck = flag.Bool("selfcheck", false, "run every workload in two interleaved sets and compare the set medians against the bounds")
		regen     = flag.Bool("regen-fixture", false, "retrain the model fixture into ./fixture (≈3 min; run from bench/)")
	)
	flag.Parse()
	applyRuntime()
	switch {
	case *regen:
		if err := regenFixture("fixture"); err != nil {
			fatal(err)
		}
	case *selfcheck:
		if err := selfCheck(*seconds); err != nil {
			fatal(err)
		}
	default:
		w, ok := findWorkload(*name)
		if !ok || *seconds < 1 {
			fatal(fmt.Errorf("need -workload (one of %s) and -seconds ≥ 1", strings.Join(workloadNames(), ", ")))
		}
		fmt.Fprintf(os.Stderr, "bench: %s seed %d: gomaxprocs %d, clients %d\n", w.name, *seed, procs(), w.clientCount())
		res, err := run(w.scaled(*seconds), *seed, *trace != 0)
		if err != nil {
			fatal(err)
		}
		line, err := json.Marshal(res)
		if err != nil {
			fatal(err)
		}
		fmt.Println(string(line))
		if !res.Correct {
			os.Exit(1)
		}
	}
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}
