package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"time"

	"repro/internal/adtd"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/metrics"
	"repro/internal/service"
	"repro/internal/simdb"
	"repro/internal/tensor"
)

// The serving configuration `tasted` ships (cmd/tasted flag defaults): a
// later change that fixes a losing default must show up here as a gain, so
// nothing below is tuned for the benchmark.
const (
	shippedCacheBytes  = 64 << 20
	shippedResultBytes = 16 << 20
	shippedBatchWindow = 2 * time.Millisecond
	shippedMaxBatch    = 8
)

// procs is GOMAXPROCS and the closed-loop client count of the serve
// workloads: min(nproc, 2), so a wider machine measures the same shape.
func procs() int {
	if n := runtime.NumCPU(); n < 2 {
		return n
	}
	return 2
}

// tenant is one simulated tenant database plus the ground truth the
// database itself never sees.
type tenant struct {
	name   string
	server *simdb.Server
	tables []*corpus.Table       // in data-set order, whatever order they were loaded in
	truth  map[string][][]string // table → per-column labels
}

// datasetSeed generates the benchmark's tenant corpora. The data is a fixed
// data set, as the paper's test splits are; -seed derives what is done with
// it: the order tables are loaded and therefore scanned in, and every
// request plan. A corpus regenerated per seed moves the scanned-column share
// by ±5 % and tables/s by ±8 % between seeds (the content tower's cost is
// superlinear in it), which no regression bound could tell from a slowdown;
// with fixed data, f1 and scanned_ratio repeat to the last bit and the
// timings differ only by what the run itself does. It must not be 1, the
// generator seed the fixture model was trained on.
const datasetSeed = 20250928

// newTenant builds data set number k (n WikiTable-profile tables) as a
// tenant database, loaded in the order rng shuffles it into.
func newTenant(name string, k int64, n int, latency simdb.LatencyProfile, rng *rand.Rand) *tenant {
	g := corpus.NewGenerator(corpus.DefaultRegistry(), corpus.WikiTableProfile(n), datasetSeed+k)
	tn := &tenant{name: name, server: simdb.NewServer(latency), truth: map[string][][]string{}}
	for i := 0; i < n; i++ {
		tn.tables = append(tn.tables, g.Table())
	}
	loaded := append([]*corpus.Table(nil), tn.tables...)
	rng.Shuffle(n, func(i, j int) { loaded[i], loaded[j] = loaded[j], loaded[i] })
	tn.server.LoadTables(name, loaded)
	for _, t := range tn.tables {
		labels := make([][]string, len(t.Columns))
		for i, c := range t.Columns {
			labels[i] = c.Labels
		}
		tn.truth[t.Name] = labels
	}
	return tn
}

// node is one serving process's worth of state: detector, service, batcher.
type node struct {
	det     *core.Detector
	svc     *service.Service
	handler http.Handler
}

// newNode builds a detector and service the way cmd/tasted does and
// registers the tenants.
func newNode(model *adtd.Model, tenants ...*tenant) (*node, error) {
	opts := core.DefaultOptions()
	opts.CacheBytes = shippedCacheBytes
	opts.ResultCacheBytes = shippedResultBytes
	det, err := core.NewDetector(model, opts)
	if err != nil {
		return nil, err
	}
	svc := service.New(det)
	auto := core.AutoMode()
	svc.SetDefaultMode(core.ExecMode{Pipelined: true, PrepWorkers: auto.PrepWorkers, InferWorkers: auto.InferWorkers})
	svc.EnableBatching(shippedBatchWindow, shippedMaxBatch)
	for _, tn := range tenants {
		svc.RegisterTenant(tn.name, tn.server)
	}
	return &node{det: det, svc: svc, handler: svc.Handler()}, nil
}

func (n *node) close() { n.svc.Close() }

// post sends one /v1/detect body through the service's HTTP handler
// in-process and returns the status, the response body, and the time the
// handler took (decode, detect, encode).
func (n *node) post(body []byte) (int, []byte, time.Duration) {
	req, err := http.NewRequest(http.MethodPost, "/v1/detect", bytes.NewReader(body))
	if err != nil {
		panic(err) // constant method and URL
	}
	rec := httptest.NewRecorder()
	start := time.Now()
	n.handler.ServeHTTP(rec, req)
	return rec.Code, rec.Body.Bytes(), time.Since(start)
}

// stats fetches /v1/stats through the handler.
func (n *node) stats() (service.StatsResponse, error) {
	var out service.StatsResponse
	rec := httptest.NewRecorder()
	n.handler.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/stats", nil))
	if rec.Code != http.StatusOK {
		return out, fmt.Errorf("/v1/stats: status %d", rec.Code)
	}
	return out, json.Unmarshal(rec.Body.Bytes(), &out)
}

func bulkBody(db string) []byte {
	return []byte(fmt.Sprintf(`{"database":%q,"pipelined":true}`, db))
}

func tableBody(db, table string) []byte {
	return []byte(fmt.Sprintf(`{"database":%q,"tables":[%q]}`, db, table))
}

// durationKey precedes the only field of a detect response that differs
// between two correct answers to the same request.
var durationKey = []byte(`"duration_ms":`)

// durationSpan locates the digits of body's duration_ms value.
func durationSpan(body []byte) (from, to int, ok bool) {
	i := bytes.Index(body, durationKey)
	if i < 0 {
		return 0, 0, false
	}
	from = i + len(durationKey)
	to = from
	for to < len(body) && body[to] >= '0' && body[to] <= '9' {
		to++
	}
	return from, to, true
}

// canonical returns body with its duration_ms value replaced by 0, so equal
// detections compare byte-equal.
func canonical(body []byte) []byte {
	from, to, ok := durationSpan(body)
	if !ok {
		return body
	}
	out := append(make([]byte, 0, len(body)), body[:from]...)
	return append(append(out, '0'), body[to:]...)
}

// sameCanonical reports whether canonical(body) equals ref without
// allocating, for the per-request check of the serve workloads.
func sameCanonical(body, ref []byte) bool {
	from, to, ok := durationSpan(body)
	if !ok {
		return bytes.Equal(body, ref)
	}
	return len(ref) == len(body)-(to-from)+1 && ref[from] == '0' &&
		bytes.Equal(body[:from], ref[:from]) && bytes.Equal(body[to:], ref[from+1:])
}

// quality accumulates the two model-facing end-to-end metrics over detect
// responses: micro-F1 against ground truth and the scanned-column ratio.
type quality struct {
	f1             *metrics.F1Accumulator
	total, scanned int
}

func newQuality() *quality { return &quality{f1: metrics.NewF1Accumulator()} }

// add scores one decoded response and reports whether it was a clean,
// complete answer (no degradation, no errors, every column accounted for).
func (q *quality) add(resp *service.DetectResponse, tn *tenant) bool {
	ok := !resp.Degraded && len(resp.Errors) == 0
	for _, t := range resp.Tables {
		labels, known := tn.truth[t.Table]
		if !known || len(labels) != len(t.Columns) || t.Skipped {
			ok = false
			continue
		}
		for i, c := range t.Columns {
			q.f1.Add(c.Types, labels[i])
		}
	}
	q.total += resp.TotalColumns
	q.scanned += resp.ScannedColumns
	return ok
}

func (q *quality) scannedRatio() float64 {
	if q.total == 0 {
		return 0
	}
	return float64(q.scanned) / float64(q.total)
}

// setup is everything between process start and ready for one workload:
// the fixture model (corpus, vocabulary, checkpoint, both hashes verified),
// the seed's tenants loaded into simdb, a serving node, and the workload's
// fixed warm-up.
type setup struct {
	model *adtd.Model
	// tenant is the workload's own; a warm-up tenant does not outlive set-up.
	tenant *tenant
	// node is the long-lived service of the serve workloads; the scan
	// workloads build a fresh one per pass.
	node *node
	// refs holds, for the cached workload, each table's canonical response
	// as first answered (uncached) during warm-up.
	refs    map[string][]byte
	seconds float64
}

func applyRuntime() {
	runtime.GOMAXPROCS(procs())
	tensor.SetParallelism(tensor.DefaultParallelism())
	tensor.SetQuantize(false)
}

// planRNG is the generator for one of the things a run derives from -seed:
// salt tells them apart (tenant load orders, warm-up order, request plan,
// trace sample).
func planRNG(seed int64, salt int64) *rand.Rand {
	return rand.New(rand.NewSource(seed*1000003 + salt))
}
