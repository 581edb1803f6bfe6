package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/adtd"
	"repro/internal/service"
	"repro/internal/simdb"
)

// nominalSeconds is the -seconds value the pass counts below are sized for
// on the 2-core reference sandbox. Another -seconds scales the number of
// timed passes, never the size of a pass: work is always a fixed count of
// operations, so f1 and scanned_ratio repeat exactly for a given seed.
const nominalSeconds = 20

// setupRepeats is how many times a run sets up from scratch; setup_s is the
// median, and the last set-up serves the timed passes.
const setupRepeats = 3

// probeTables sizes the sequential-vs-shipped-mode parity probe.
const probeTables = 20

// minF1 fails a run whose model answers are clearly broken; the fixture
// model scores 0.83–0.88 across seeds.
const minF1 = 0.75

// workload is one traffic shape. Every workload is a closed loop: batch
// scanners and /v1/detect callers both wait for their reply.
type workload struct {
	name string
	why  string
	// serve selects single-table requests from closed-loop clients against
	// one long-lived service; otherwise each pass is one bulk whole-database
	// request against a fresh service (cold caches).
	serve bool
	// clients is the number of closed-loop clients of a serve workload, at
	// most procs().
	clients int
	latency simdb.LatencyProfile
	// tables is the tenant size; 0 means one table per timed request.
	tables int
	// passes is the number of timed passes at nominalSeconds.
	passes int
	// perPass is the number of requests per pass (serve only).
	perPass int
	// zipf draws the request plan Zipf(1.2) over the tenant; otherwise every
	// table is requested exactly once.
	zipf bool
	// warm sizes the separate warm-up tenant of the workloads whose timed
	// requests must all be first-time requests.
	warm int
	// quick marks the smoke-test size: the traced run then replays fewer
	// tables and repeats its layer measurements less often.
	quick bool
}

var workloads = []workload{
	{
		name: "scan_cpu", tables: 120, passes: 18, warm: 60, latency: simdb.NoLatency,
		why: "bulk scan, no storage latency: model forwards, kernels, tokenizer and the cross-table coalescer are the whole cost",
	},
	{
		name: "scan_io", tables: 120, passes: 8, warm: 60, latency: simdb.PaperLatency(3.0),
		why: "bulk scan behind a 15 ms round trip: storage wait dominates, so prefetch, workers and I/O overlap show and kernels do not",
	},
	{
		name: "serve_hot", serve: true, clients: 1, zipf: true, tables: 240, passes: 100, perPass: 5000, latency: simdb.NoLatency,
		why: "Zipf single-table requests over a cached working set: result-cache reads, singleflight and JSON are the whole cost",
	},
	{
		name: "serve_miss", serve: true, clients: 2, passes: 7, perPass: 150, warm: 60, latency: simdb.PaperLatency(1.0),
		why: "every table requested once at paper latency: the unbatched B=1 path, batcher window, cache writes; no request reuses another",
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// scaled sizes the workload for a -seconds value.
func (w workload) scaled(seconds int) workload {
	w.passes = (w.passes*seconds + nominalSeconds/2) / nominalSeconds
	if w.passes < 3 {
		w.passes = 3
	}
	return w
}

// toy shrinks the workload for the smoke test.
func (w workload) toy() workload {
	w.passes, w.quick = 2, true
	if w.warm > 0 {
		w.warm = 5
	}
	if w.tables > 0 {
		w.tables = 20
	}
	if w.serve {
		w.perPass = 20
	}
	return w
}

// reps is how often the traced run repeats a measurement it would repeat n
// times at full size.
func (w workload) reps(n int) int {
	if w.quick && n > 5 {
		return 5
	}
	return n
}

// clientCount caps the workload's clients at procs(): more clients than
// cores would measure the scheduler.
func (w workload) clientCount() int {
	if w.clients > procs() {
		return procs()
	}
	return w.clients
}

func (w workload) tenantSize() int {
	if w.tables > 0 {
		return w.tables
	}
	return w.passes * w.perPass
}

// passResult is one timed pass.
type passResult struct {
	wall      time.Duration
	latencies []float64 // ms per request
	attempted int
	failed    int
	tables    int
	// first holds, canonical and by table, the clean responses of a serve
	// pass that had no reference answer to be compared with.
	first map[string][]byte
}

func (p passResult) tablesPerSec() float64 { return float64(p.tables) / p.wall.Seconds() }

// decodeDetect parses a 200 detect response.
func decodeDetect(status int, body []byte) (*service.DetectResponse, bool) {
	if status != http.StatusOK {
		return nil, false
	}
	var resp service.DetectResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return nil, false
	}
	return &resp, true
}

// scanPass times one bulk detect of tn on a fresh node and scores it into q.
// It returns the canonical response, which every pass of a run must repeat
// byte for byte. inspect, when set, sees the node before it is closed.
func scanPass(model *adtd.Model, tn *tenant, q *quality, inspect func(*node)) (passResult, []byte, error) {
	n, err := newNode(model, tn)
	if err != nil {
		return passResult{}, nil, err
	}
	defer n.close()
	runtime.GC()
	status, body, took := n.post(bulkBody(tn.name))
	res := passResult{wall: took, latencies: []float64{ms(took)}, attempted: 1}
	resp, ok := decodeDetect(status, body)
	if ok {
		res.tables = len(resp.Tables)
		ok = q.add(resp, tn) && len(resp.Tables) == len(tn.tables)
	}
	if !ok {
		res.failed = 1
	}
	if inspect != nil {
		inspect(n)
	}
	return res, canonical(body), nil
}

// servePass drives plan (indices into tn.tables) through n from the given
// number of closed-loop clients, client c taking every clients-th request. A response
// to a table in refs must equal its reference; other responses are kept,
// and scored into q and returned in first after the clock stops.
func servePass(n *node, tn *tenant, clients int, plan []int, refs map[string][]byte, q *quality) passResult {
	bodies := make([][]byte, len(tn.tables))
	for _, i := range plan {
		if bodies[i] == nil {
			bodies[i] = tableBody(tn.name, tn.tables[i].Name)
		}
	}
	type clientOut struct {
		lat    []float64
		failed int
		fresh  [][]byte
	}
	outs := make([]clientOut, clients)
	runtime.GC()
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			out := &outs[c]
			out.lat = make([]float64, 0, len(plan)/clients+1)
			for k := c; k < len(plan); k += clients {
				status, body, took := n.post(bodies[plan[k]])
				out.lat = append(out.lat, ms(took))
				if ref, ok := refs[tn.tables[plan[k]].Name]; ok {
					if status != http.StatusOK || !sameCanonical(body, ref) {
						out.failed++
					}
				} else if status != http.StatusOK {
					out.failed++
				} else {
					out.fresh = append(out.fresh, body)
				}
			}
		}(c)
	}
	wg.Wait()
	res := passResult{wall: time.Since(start), attempted: len(plan), tables: len(plan), first: map[string][]byte{}}
	for _, out := range outs {
		res.latencies = append(res.latencies, out.lat...)
		res.failed += out.failed
		for _, body := range out.fresh {
			resp, ok := decodeDetect(http.StatusOK, body)
			if !ok || !q.add(resp, tn) || len(resp.Tables) != 1 {
				res.failed++
				continue
			}
			res.first[resp.Tables[0].Table] = canonical(body)
		}
	}
	return res
}

// zipfPlan draws count requests Zipf(1.2) over n tables. A table's rank is
// its place in the data set, so which tables are popular is a property of
// the data, and the seed decides only the sequence of draws.
func zipfPlan(rng *rand.Rand, n, count int) []int {
	z := rand.NewZipf(rng, 1.2, 1, uint64(n-1))
	plan := make([]int, count)
	for i := range plan {
		plan[i] = int(z.Uint64())
	}
	return plan
}

// setUp performs one full set-up for w (see the setup type) and times it.
func setUp(w workload, seed int64) (*setup, error) {
	start := time.Now()
	model, err := loadFixture()
	if err != nil {
		return nil, err
	}
	main := newTenant("tenant", 0, w.tenantSize(), w.latency, planRNG(seed, 0))
	s := &setup{model: model, tenant: main}
	switch {
	case !w.serve:
		// Timed passes run on fresh nodes; the warm-up pass only brings the
		// process (kernel packs, tensor arenas, heap) to steady state.
		warm := newTenant("warm", 1, w.warm, w.latency, planRNG(seed, 1))
		res, _, err := scanPass(model, warm, newQuality(), nil)
		if err != nil {
			return nil, err
		}
		if res.failed > 0 {
			return nil, fmt.Errorf("%s: warm-up scan failed", w.name)
		}
	case w.zipf:
		// The working set is requested once: this fills both cache tiers, and
		// these uncached answers are the references every timed, cached
		// response must equal.
		if s.node, err = newNode(model, main); err != nil {
			return nil, err
		}
		res := servePass(s.node, main, w.clientCount(), planRNG(seed, 3).Perm(len(main.tables)), nil, newQuality())
		if res.failed > 0 {
			return nil, fmt.Errorf("%s: %d warm-up requests failed", w.name, res.failed)
		}
		s.refs = res.first
	default:
		warm := newTenant("warm", 1, w.warm, w.latency, planRNG(seed, 1))
		if s.node, err = newNode(model, main, warm); err != nil {
			return nil, err
		}
		res := servePass(s.node, warm, w.clientCount(), planRNG(seed, 3).Perm(w.warm), nil, newQuality())
		if res.failed > 0 {
			return nil, fmt.Errorf("%s: %d warm-up requests failed", w.name, res.failed)
		}
	}
	s.seconds = time.Since(start).Seconds()
	return s, nil
}

func (s *setup) close() {
	if s.node != nil {
		s.node.close()
	}
}

// repeatedSetUp sets up setupRepeats times and returns the last set-up with
// the median set-up time.
func repeatedSetUp(w workload, seed int64, repeats int) (*setup, float64, error) {
	var last *setup
	var times []float64
	for i := 0; i < repeats; i++ {
		if last != nil {
			last.close()
		}
		s, err := setUp(w, seed)
		if err != nil {
			return nil, 0, err
		}
		last = s
		times = append(times, s.seconds)
		runtime.GC()
	}
	return last, median(times), nil
}

// runResult is what one timed run of a workload measured.
type runResult struct {
	setupSeconds float64
	passes       []passResult
	quality      *quality
	correct      bool
	problems     []string
}

func (r *runResult) fail(format string, args ...interface{}) {
	r.correct = false
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

func (r *runResult) attempted() (attempted, failed int) {
	for _, p := range r.passes {
		attempted += p.attempted
		failed += p.failed
	}
	return
}

// timedPasses runs w's timed passes over a finished set-up. inspect, when
// set, sees the serving node after every pass (the traced run reads its
// counters there).
func timedPasses(w workload, seed int64, s *setup, inspect func(*node)) *runResult {
	r := &runResult{quality: newQuality(), correct: true}
	main := s.tenant
	var plans [][]int
	if w.serve {
		rng := planRNG(seed, 4)
		once := rng.Perm(len(main.tables)) // every table exactly once, split over the passes
		for p := 0; p < w.passes; p++ {
			if w.zipf {
				plans = append(plans, zipfPlan(rng, len(main.tables), w.perPass))
			} else {
				plans = append(plans, once[p*w.perPass:(p+1)*w.perPass])
			}
		}
	}
	var canon []byte
	for p := 0; p < w.passes; p++ {
		if w.serve {
			r.passes = append(r.passes, servePass(s.node, main, w.clientCount(), plans[p], s.refs, r.quality))
			if inspect != nil {
				inspect(s.node)
			}
			continue
		}
		// Each scan pass is scored on its own so the run's quality is that
		// of one pass, not of the same answers counted w.passes times.
		q := newQuality()
		res, c, err := scanPass(s.model, main, q, inspect)
		if err != nil {
			r.fail("pass %d: %v", p, err)
		}
		if canon == nil {
			canon, r.quality = c, q
		} else if !bytes.Equal(c, canon) {
			r.fail("pass %d answered differently from pass 0", p)
		}
		r.passes = append(r.passes, res)
	}
	if w.zipf {
		// Timed responses were checked byte-for-byte against the warm-up
		// answers; quality is scored once per distinct table from those, so a
		// popular table does not weigh in f1 by its request count.
		for _, t := range main.tables {
			resp, ok := decodeDetect(http.StatusOK, s.refs[t.Name])
			if !ok || !r.quality.add(resp, main) {
				r.fail("reference answer for %s is degraded or malformed", t.Name)
			}
		}
	}
	if _, failed := r.attempted(); failed > 0 {
		r.fail("%d operations failed or came back degraded", failed)
	}
	if f1 := r.quality.f1.F1(); f1 < minF1 {
		r.fail("f1 %.4f is below %.2f", f1, minF1)
	}
	return r
}

// parityProbe detects a small tenant sequentially and in the shipped
// pipelined mode on fresh nodes; the two answers must match byte for byte.
func parityProbe(s *setup, seed int64) error {
	probe := newTenant("probe", 2, probeTables, simdb.NoLatency, planRNG(seed, 2))
	var answers [2][]byte
	for i, body := range [][]byte{[]byte(`{"database":"probe"}`), bulkBody("probe")} {
		n, err := newNode(s.model, probe)
		if err != nil {
			return err
		}
		status, resp, _ := n.post(body)
		n.close()
		if status != http.StatusOK {
			return fmt.Errorf("parity probe: status %d", status)
		}
		answers[i] = canonical(resp)
	}
	if !bytes.Equal(answers[0], answers[1]) {
		return fmt.Errorf("parity probe: pipelined answer differs from sequential")
	}
	return nil
}

// endToEnd reduces a run to the end-to-end metrics. Each timing is computed
// per pass and the run reports its best pass: a neighbour on the shared host
// can only slow a pass down (by up to 40 % for seconds to minutes at a time
// on the cached workload), so the fastest pass is the one closest to what the
// code costs and repeats within a few percent where the median over passes
// moves by a quarter.
func endToEnd(r *runResult) map[string]float64 {
	var tps, p50 []float64
	for _, p := range r.passes {
		tps = append(tps, p.tablesPerSec())
		p50 = append(p50, quantile(p.latencies, 0.50))
	}
	sort.Float64s(tps)
	sort.Float64s(p50)
	return map[string]float64{
		"setup_s":        r.setupSeconds,
		"tables_per_s":   tps[len(tps)-1],
		"latency_ms_p50": p50[0],
		"f1":             r.quality.f1.F1(),
		"scanned_ratio":  r.quality.scannedRatio(),
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// quantile returns the nearest-rank q-quantile of xs (not modified).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}
