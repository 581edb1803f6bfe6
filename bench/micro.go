package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"time"

	"repro/internal/adtd"
	"repro/internal/cache"
	"repro/internal/fleet"
	"repro/internal/nn"
	"repro/internal/pipeline"
	"repro/internal/tensor"
)

// Layer measurements that no workload isolates: fixed-count loops over one
// public function each, on inputs taken from the run's own tenant. Each
// reports the median of its per-call (or per-batch-of-calls) timings.

// perCall times reps executions of fn, each covering calls calls, and
// returns the median time of one call.
func perCall(reps, calls int, fn func()) time.Duration {
	times := make([]float64, reps)
	for i := range times {
		start := time.Now()
		fn()
		times[i] = float64(time.Since(start)) / float64(calls)
	}
	return time.Duration(median(times))
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// attentionCost is the arithmetic and compulsory fp64 memory traffic of one
// self-attention forward over l tokens — computed from the tensor sizes, not
// measured. Projections Q, K, V, O are 2·l·h² flops each; scores and the
// weighted sum are 2·l²·h each. Traffic: input and output (l·h each), the
// four weight matrices and biases, and the heads·l² score matrix written
// once and read once.
func attentionCost(l, hidden, heads int) (flops, bytes float64) {
	L, H, N := float64(l), float64(hidden), float64(heads)
	return 8*L*H*H + 4*L*L*H, 8 * (2*L*H + 4*H*H + 4*H + 2*N*L*L)
}

func microLayers(w workload, s *setup, rp *replayer, m map[string]float64) error {
	cfg := s.model.Cfg
	tn := s.tenant

	// tokenizer: every name, comment and the first cells of every column.
	var texts []string
	for _, t := range tn.tables {
		texts = append(texts, t.Name, t.Comment)
		for _, c := range t.Columns {
			texts = append(texts, c.Name, c.Comment)
			texts = append(texts, c.Values[:rp.opts.CellsPerColumn]...)
		}
	}
	tok := s.model.Encoder().Tok
	var ids []int
	tokens := 0
	for _, text := range texts {
		ids = tok.EncodeAppend(ids[:0], text)
		tokens += len(ids)
	}
	sweep := perCall(15, 1, func() {
		for _, text := range texts {
			ids = tok.EncodeAppend(ids[:0], text)
		}
	})
	m["tokenizer.tokens_per_s"] = float64(tokens) / sweep.Seconds()

	// adtd: the batched content forward the coalescers issue, eight
	// single-chunk requests kept from the replay (their latents are
	// cache-owned views, so they survive repeated forwards).
	if len(rp.reqs) == 0 {
		return fmt.Errorf("micro: the replay left no reusable content request")
	}
	b8 := make([]adtd.ContentRequest, 8)
	for i := range b8 {
		b8[i] = rp.reqs[i%len(rp.reqs)]
	}
	n := rp.opts.CellsPerColumn
	fp := perCall(w.reps(15), 1, func() { s.model.PredictContentBatchQ(b8, n, nil) })
	m["adtd.content_forward_b8_ms_p50"] = ms(fp)
	m["adtd.content_ms_per_chunk_b8"] = ms(fp) / 8
	// Without the int8 kernels (tensor.QuantizeAvailable) the preference is a
	// no-op and this reads the same as the fp64 line.
	quant := true
	m["adtd.content_forward_b8_int8_ms_p50"] = ms(perCall(w.reps(15), 1, func() { s.model.PredictContentBatchQ(b8, n, &quant) }))

	// nn/tensor: one attention block at the single-table and the merged
	// batched sequence length, and the projection it is made of.
	rng := rand.New(rand.NewSource(1))
	att := nn.NewMultiHeadAttention(cfg.Hidden, cfg.Heads, rng)
	for _, p := range att.Params() {
		p.SetRequiresGrad(false)
	}
	for _, c := range []struct {
		l, reps int
		name    string
	}{{128, 200, "nn.attention_l128"}, {512, 25, "nn.attention_l512"}} {
		x := tensor.New(c.l, cfg.Hidden)
		for i := range x.Data {
			x.Data[i] = rng.NormFloat64()
		}
		m[c.name+"_us"] = us(perCall(w.reps(c.reps), 1, func() { att.Forward(x, x, nil) }))
		m[c.name+"_flops"], m[c.name+"_bytes"] = attentionCost(c.l, cfg.Hidden, cfg.Heads)
	}
	x, wgt, dst := make([]float64, 128*cfg.Hidden), make([]float64, cfg.Hidden*cfg.Hidden), make([]float64, 128*cfg.Hidden)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	for i := range wgt {
		wgt[i] = rng.NormFloat64()
	}
	m["tensor.linear_us"] = us(perCall(200, 10, func() {
		for i := 0; i < 10; i++ {
			tensor.LinearInto(dst, x, 128, cfg.Hidden, wgt, cfg.Hidden, 0, cfg.Hidden, nil)
		}
	}))

	// cache: the result tier with rows shaped like one table's answer. The
	// latent tier is timed in-path by the replay.
	res := cache.NewResult(shippedResultBytes, 0)
	const entries = 2000
	keys := make([]string, entries)
	rows := make([][][]float64, entries)
	for i := range keys {
		keys[i] = fmt.Sprintf("g1/qfalse/%064x", i)
		rows[i] = [][]float64{make([]float64, s.model.Types.Len()), make([]float64, s.model.Types.Len())}
	}
	m["cache.result_put_ns"] = float64(perCall(1, entries, func() {
		for i, k := range keys {
			res.Put(k, rows[i])
		}
	}))
	m["cache.result_get_ns"] = float64(perCall(15, entries, func() {
		for _, k := range keys {
			res.Get(k)
		}
	}))

	// pipeline: scheduler cost per stage over jobs that do nothing.
	const jobs = 2000
	noop := func(context.Context) error { return nil }
	auto := pipeline.Scheduler{Pipelined: true, Workers: 4}
	var schedErr error
	dispatch := perCall(7, jobs*4, func() {
		batch := make([]*pipeline.Job, jobs)
		for i := range batch {
			batch[i] = &pipeline.Job{ID: "j", Stages: []pipeline.Stage{
				{Kind: pipeline.Prep, Name: "s1", Run: noop}, {Kind: pipeline.Infer, Name: "s2", Run: noop},
				{Kind: pipeline.Prep, Name: "s3", Run: noop}, {Kind: pipeline.Infer, Name: "s4", Run: noop},
			}}
		}
		if _, err := auto.RunStats(context.Background(), batch); err != nil {
			schedErr = err
		}
	})
	if schedErr != nil {
		return schedErr
	}
	m["pipeline.dispatch_us_per_stage"] = us(dispatch)

	// fleet: ring lookup, and the coordinator in front of replicas that
	// answer a canned 200 without a socket. No workload routes through the
	// fleet; it is parked in ROADMAP.md.
	replicas := map[string]string{}
	ring := fleet.NewRing(0)
	for i := 0; i < 4; i++ {
		name := fmt.Sprintf("replica-%d", i)
		replicas[name] = "http://" + name + ".invalid"
		ring.Add(name)
	}
	routeKeys := make([]string, 1000)
	for i := range routeKeys {
		routeKeys[i] = tn.name + "/" + tn.tables[i%len(tn.tables)].Name
	}
	m["fleet.ring_lookup_ns"] = float64(perCall(15, len(routeKeys), func() {
		for _, k := range routeKeys {
			ring.Owner(k)
		}
	}))
	coord := fleet.NewCoordinator(replicas, fleet.Config{Client: &http.Client{Transport: cannedReplica{}}}).Handler()
	body := tableBody(tn.name, tn.tables[0].Name)
	var status int
	proxy := perCall(15, 100, func() {
		for i := 0; i < 100; i++ {
			rec := httptest.NewRecorder()
			coord.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/detect", bytes.NewReader(body)))
			status = rec.Code
		}
	})
	if status != http.StatusOK {
		return fmt.Errorf("micro: coordinator answered %d over canned replicas", status)
	}
	m["fleet.proxy_overhead_us"] = us(proxy)

	// registry/tensor: decoding and validating the fixture checkpoint into a
	// model of the same shape.
	sibling, err := s.model.Sibling()
	if err != nil {
		return err
	}
	var loadErr error
	m["registry.checkpoint_load_ms"] = ms(perCall(5, 1, func() {
		if err := sibling.Load(bytes.NewReader(fixtureCkpt)); err != nil {
			loadErr = err
		}
	}))
	return loadErr
}

// cannedReplica answers every proxied request with an empty 200 detect
// response, so the coordinator's own cost is all that is timed.
type cannedReplica struct{}

func (cannedReplica) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.Body != nil {
		_, _ = io.Copy(io.Discard, req.Body) // a bytes.Reader cannot fail
		req.Body.Close()
	}
	return &http.Response{
		StatusCode: http.StatusOK, Status: "200 OK", Proto: "HTTP/1.1", ProtoMajor: 1, ProtoMinor: 1,
		Header:  http.Header{"Content-Type": []string{"application/json"}},
		Body:    io.NopCloser(strings.NewReader(`{"database":"tenant","tables":[],"degraded":false}`)),
		Request: req,
	}, nil
}
