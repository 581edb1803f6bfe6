package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/adtd"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/metafeat"
	"repro/internal/service"
	"repro/internal/simdb"
)

// The traced run measures layers from outside the program: it replays one
// table's detect path by hand through the public calls internal/core makes,
// with a span around each, then times core.DetectTable, service.Detect and
// the HTTP handler on the same table. The four are separate executions on
// cold (or, for the cached workload, equally warm) state; parent links
// express which layer's work contains which, and a layer's self time is its
// span minus its children. Spans inside the program are a later change
// (ROADMAP item 5).

// tracePasses is how many workload passes the traced run counts over, and
// traceSample how many tables it replays.
const (
	tracePasses = 2
	traceSample = 30
)

// span is one timed call. Start is relative to the trace's first span.
type span struct {
	ID      int     `json:"id"`
	Parent  int     `json:"parent,omitempty"`
	Name    string  `json:"name"`
	Table   string  `json:"table"`
	StartUS float64 `json:"start_us"`
	DurUS   float64 `json:"dur_us"`
	// Aside marks a span timed outside its parent's interval: a second
	// execution of work the parent does internally (input building inside a
	// forward), or a wait read from the program's own counter.
	Aside bool `json:"aside,omitempty"`
}

type tracer struct {
	t0    time.Time
	spans []span
}

func (t *tracer) add(parent int, name, table string, start time.Time, d time.Duration, aside bool) int {
	if t.t0.IsZero() {
		t.t0 = start
	}
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Name: name, Table: table, Aside: aside,
		StartUS: us(start.Sub(t.t0)), DurUS: us(d),
	})
	return id
}

// timed runs fn inside a span.
func (t *tracer) timed(parent int, name, table string, fn func()) int {
	start := time.Now()
	fn()
	return t.add(parent, name, table, start, time.Since(start), false)
}

// reparent hangs every root span recorded since index from under parent,
// except parent itself.
func (t *tracer) reparent(from, parent int) {
	for i := from; i < len(t.spans); i++ {
		if t.spans[i].Parent == 0 && t.spans[i].ID != parent {
			t.spans[i].Parent = parent
		}
	}
}

// durations returns the DurUS of every span called name.
func (t *tracer) durations(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s.DurUS)
		}
	}
	return out
}

// replayer holds what a hand replay needs besides the table: the model, the
// detector options the service runs with, and bench-owned cache tiers
// standing in for the detector's private ones.
type replayer struct {
	tr      *tracer
	model   *adtd.Model
	opts    core.Options
	latent  *cache.Latent
	results *cache.Result
	// reqs collects one reusable single-chunk content request per replayed
	// table, for the batched-forward measurements.
	reqs []adtd.ContentRequest
}

func newReplayer(tr *tracer, model *adtd.Model) *replayer {
	return &replayer{
		tr: tr, model: model, opts: core.DefaultOptions(),
		latent:  cache.NewLatent(shippedCacheBytes, 0),
		results: cache.NewResult(shippedResultBytes, 0),
	}
}

// admitted and uncertain restate §3.2/§3.3 as internal/core applies them.
func (r *replayer) admitted(probs []float64, threshold float64) []string {
	var out []string
	for i, p := range probs {
		if i > 0 && p >= threshold {
			out = append(out, r.model.Types.Name(i))
		}
	}
	sort.Strings(out)
	return out
}

func (r *replayer) uncertain(probs []float64) bool {
	for _, p := range probs {
		if p > r.opts.Alpha && p < r.opts.Beta {
			return true
		}
	}
	return false
}

// tokenizeAside re-runs the tokenizer over texts as an aside under parent
// and returns the token count.
func (r *replayer) tokenizeAside(parent int, table string, texts []string) int {
	tok := r.model.Encoder().Tok
	var ids []int
	tokens := 0
	start := time.Now()
	for _, s := range texts {
		ids = tok.EncodeAppend(ids[:0], s)
		tokens += len(ids)
	}
	r.tr.add(parent, "tokenizer.encode", table, start, time.Since(start), true)
	return tokens
}

// replay detects one table by hand, connecting per request as the
// single-table serving path does. hot replays the cached path instead: every
// model forward and latent access is replaced by a read of the bench-owned
// result tier, which a prior cold replay of the same table filled.
func (r *replayer) replay(ctx context.Context, tn *tenant, table string, hot bool) (*core.TableResult, error) {
	tr := r.tr
	var conn *simdb.Conn
	var err error
	tr.timed(0, "simdb.connect", table, func() { conn, err = tn.server.Connect(ctx, tn.name) })
	if err != nil {
		return nil, err
	}
	defer tr.timed(0, "simdb.close", table, func() { conn.Close() })
	var tm *simdb.TableMeta
	tr.timed(0, "simdb.table_metadata", table, func() { tm, err = conn.TableMetadata(ctx, table) })
	if err != nil {
		return nil, err
	}
	var info *metafeat.TableInfo
	var chunks []*metafeat.TableInfo
	tr.timed(0, "metafeat.build", table, func() {
		info = metafeat.FromTableMeta(tm)
		chunks = info.Split(r.opts.SplitThreshold)
	})

	res := &core.TableResult{Table: table}
	var p1 [][]float64
	for ci, chunk := range chunks {
		key := fmt.Sprintf("%s#%d", table, ci)
		if hot {
			tr.timed(0, "cache.result_get", table, func() {
				rows, _ := r.results.Get("meta/" + key)
				p1 = append(p1, rows...)
			})
			continue
		}
		var menc *adtd.MetaEncoding
		var probs [][]float64
		fwd := tr.timed(0, "adtd.meta_forward", table, func() { menc, probs = r.model.PredictMetaQ(chunk, false, nil) })
		start := time.Now()
		r.model.Encoder().BuildMetaInput(chunk, false)
		build := tr.add(fwd, "adtd.build_meta_input", table, start, time.Since(start), true)
		texts := []string{chunk.Name, chunk.Comment}
		for _, c := range chunk.Columns {
			texts = append(texts, c.Name, c.Comment, c.DataType)
		}
		r.tokenizeAside(build, table, texts)
		tr.timed(0, "cache.latent_put", table, func() {
			if !r.latent.Put(key, menc) {
				menc.Release()
			}
		})
		r.results.Put("meta/"+key, probs)
		p1 = append(p1, probs...)
	}

	var pending []int
	for g, row := range p1 {
		cr := core.ColumnResult{Table: table, Column: info.Columns[g].Name, Phase: 1, Probs: row}
		cr.Admitted = r.admitted(row, r.opts.Beta)
		if r.uncertain(row) {
			cr.Uncertain = true
			pending = append(pending, g)
		}
		res.Columns = append(res.Columns, cr)
	}
	if len(pending) == 0 {
		return res, nil
	}

	names := make([]string, len(pending))
	for i, g := range pending {
		names[i] = info.Columns[g].Name
	}
	var content map[string][]string
	tr.timed(0, "simdb.scan_columns", table, func() {
		content, err = conn.ScanColumns(ctx, table, names, simdb.ScanOptions{
			Strategy: r.opts.Strategy, Rows: r.opts.RowsToRead, Seed: r.opts.ScanSeed,
		})
	})
	if err != nil {
		return nil, err
	}
	for _, g := range pending {
		info.Columns[g].Values = content[info.Columns[g].Name]
	}
	res.ScannedColumns = len(pending)

	isPending := make(map[int]bool, len(pending))
	for _, g := range pending {
		isPending[g] = true
	}
	var reqs []adtd.ContentRequest
	var globals [][]int
	var keys []string
	off := 0
	for ci, chunk := range chunks {
		var cols, gs []int
		for local := range chunk.Columns {
			if isPending[off+local] {
				cols, gs = append(cols, local), append(gs, off+local)
			}
		}
		off += len(chunk.Columns)
		if len(cols) == 0 {
			continue
		}
		key := fmt.Sprintf("%s#%d", table, ci)
		reqs = append(reqs, adtd.ContentRequest{Table: chunk, Cols: cols})
		globals, keys = append(globals, gs), append(keys, key)
	}
	var batch [][][]float64
	if hot {
		for _, key := range keys {
			tr.timed(0, "cache.result_get", table, func() {
				rows, _ := r.results.Get("content/" + key)
				batch = append(batch, rows)
			})
		}
	} else {
		for i, key := range keys {
			tr.timed(0, "cache.latent_get", table, func() { reqs[i].Menc = r.latent.Get(key) })
			if reqs[i].Menc == nil {
				return nil, fmt.Errorf("replay %s: latent %s evicted between put and get", table, key)
			}
		}
		fwd := tr.timed(0, "adtd.content_forward", table, func() {
			batch = r.model.PredictContentBatchQ(reqs, r.opts.CellsPerColumn, nil)
		})
		for i, req := range reqs {
			start := time.Now()
			r.model.Encoder().BuildContentInput(req.Table, req.Cols, r.opts.CellsPerColumn)
			build := tr.add(fwd, "adtd.build_content_input", table, start, time.Since(start), true)
			var texts []string
			for _, c := range req.Cols {
				vals := req.Table.Columns[c].Values
				if len(vals) > r.opts.CellsPerColumn {
					vals = vals[:r.opts.CellsPerColumn]
				}
				texts = append(texts, vals...)
			}
			r.tokenizeAside(build, table, texts)
			r.results.Put("content/"+keys[i], batch[i])
		}
		if len(reqs) == 1 {
			r.reqs = append(r.reqs, reqs[0])
		}
	}
	for i, gs := range globals {
		for slot, g := range gs {
			cr := &res.Columns[g]
			cr.Phase, cr.Probs = 2, batch[i][slot]
			cr.Admitted = r.admitted(batch[i][slot], r.opts.AdmitThreshold)
		}
	}
	return res, nil
}

// tableTimes is one sample table's decomposition, in µs.
type tableTimes struct {
	leaves, batcherWait, core, svc, handler float64
	edge                                    float64 // connect + close, children of the service layer
}

// traceTable replays table and times the three enclosing layers on it. The
// three nodes are fresh (cold) ones, or the run's warmed node three times.
func traceTable(ctx context.Context, r *replayer, tn *tenant, nodes [3]*node, table string, hot bool) (tableTimes, error) {
	tr := r.tr
	var tt tableTimes
	first := len(tr.spans)
	if hot {
		// The cold replay fills the bench-owned tiers the hot replay reads; its
		// spans still feed the adtd.* and cache.latent_* metrics.
		var err error
		fill := tr.timed(0, "replay.cold_fill", table, func() { _, err = r.replay(ctx, tn, table, false) })
		if err != nil {
			return tt, err
		}
		tr.reparent(first, fill)
		first = len(tr.spans)
	}
	replayed, err := r.replay(ctx, tn, table, hot)
	if err != nil {
		return tt, err
	}
	for _, s := range tr.spans[first:] {
		switch {
		case s.Aside:
		case s.Name == "simdb.connect" || s.Name == "simdb.close":
			tt.edge += s.DurUS
		default:
			tt.leaves += s.DurUS
		}
	}

	conn, err := tn.server.Connect(ctx, tn.name)
	if err != nil {
		return tt, err
	}
	defer conn.Close()
	wait0 := batcherQueueDelay.Sum()
	var direct *core.TableResult
	coreID := tr.timed(0, "core.detect_table", table, func() { direct, err = nodes[0].det.DetectTable(ctx, conn, tn.name, table) })
	if err != nil {
		return tt, err
	}
	tt.core = tr.spans[coreID-1].DurUS
	if wait := (batcherQueueDelay.Sum() - wait0) * 1e6; wait > 0 {
		tt.batcherWait = wait
		tr.add(coreID, "service.batcher_wait", table, tr.t0.Add(time.Duration(tr.spans[coreID-1].StartUS*1e3)), time.Duration(wait*1e3), true)
	}
	// Marshal cannot fail on strings, ints, bools and finite probabilities.
	want, _ := json.Marshal(direct)
	got, _ := json.Marshal(replayed)
	if !bytes.Equal(want, got) {
		return tt, fmt.Errorf("replay of %s differs from core.DetectTable:\n replay %s\n direct %s", table, got, want)
	}

	req := service.DetectRequest{Database: tn.name, Tables: []string{table}}
	var apiErr *service.APIError
	svcID := tr.timed(0, "service.detect", table, func() { _, apiErr = nodes[1].svc.Detect(ctx, req) })
	if apiErr != nil {
		return tt, apiErr
	}
	tt.svc = tr.spans[svcID-1].DurUS
	var status int
	handlerID := tr.timed(0, "service.handler", table, func() { status, _, _ = nodes[2].post(tableBody(tn.name, table)) })
	if status != http.StatusOK {
		return tt, fmt.Errorf("handler: status %d for %s", status, table)
	}
	tt.handler = tr.spans[handlerID-1].DurUS

	// Containment: handler ⊃ service ⊃ {connect, core ⊃ replayed leaves, close}.
	for i := first; i < len(tr.spans); i++ {
		s := &tr.spans[i]
		if s.Parent != 0 {
			continue
		}
		switch s.Name {
		case "service.handler":
		case "service.detect":
			s.Parent = handlerID
		case "core.detect_table", "simdb.connect", "simdb.close":
			s.Parent = svcID
		default:
			s.Parent = coreID
		}
	}
	return tt, nil
}

// traceTables replays a seeded sample of the tenant's tables and reduces the
// spans to the replay-derived layer metrics.
func traceTables(w workload, seed int64, s *setup, r *replayer, m map[string]float64) (meanReplayUS float64, err error) {
	ctx := context.Background()
	tn := s.tenant
	order := planRNG(seed, 5).Perm(len(tn.tables))
	if sample := w.reps(traceSample); len(order) > sample {
		order = order[:sample]
	}
	var times []tableTimes
	for _, i := range order {
		nodes := [3]*node{s.node, s.node, s.node}
		if !w.zipf {
			for k := range nodes {
				if nodes[k], err = newNode(s.model, tn); err != nil {
					return 0, err
				}
			}
		}
		tt, err := traceTable(ctx, r, tn, nodes, tn.tables[i].Name, w.zipf)
		if !w.zipf {
			for _, n := range nodes {
				n.close()
			}
		}
		if err != nil {
			return 0, err
		}
		times = append(times, tt)
	}

	pick := func(f func(tableTimes) float64) []float64 {
		out := make([]float64, len(times))
		for i, tt := range times {
			out[i] = f(tt)
		}
		return out
	}
	sum := func(xs []float64) (t float64) {
		for _, x := range xs {
			t += x
		}
		return
	}
	tr := r.tr
	m["simdb.connect_ms"] = median(tr.durations("simdb.connect")) / 1e3
	m["simdb.table_metadata_ms"] = median(tr.durations("simdb.table_metadata")) / 1e3
	m["simdb.scan_columns_ms"] = median(tr.durations("simdb.scan_columns")) / 1e3
	m["metafeat.build_us"] = median(tr.durations("metafeat.build"))
	m["adtd.build_meta_input_us"] = median(tr.durations("adtd.build_meta_input"))
	m["adtd.build_content_input_us"] = median(tr.durations("adtd.build_content_input"))
	m["adtd.meta_forward_ms_p50"] = median(tr.durations("adtd.meta_forward")) / 1e3
	m["adtd.content_forward_b1_ms_p50"] = median(tr.durations("adtd.content_forward")) / 1e3
	m["cache.latent_put_ns"] = median(tr.durations("cache.latent_put")) * 1e3
	m["cache.latent_get_ns"] = median(tr.durations("cache.latent_get")) * 1e3
	m["core.detect_table_ms_p50"] = median(pick(func(t tableTimes) float64 { return t.core })) / 1e3
	m["core.self_ms"] = median(pick(func(t tableTimes) float64 { return t.core - t.leaves - t.batcherWait })) / 1e3
	handler := sum(pick(func(t tableTimes) float64 { return t.handler }))
	attributed := sum(pick(func(t tableTimes) float64 { return t.leaves + t.edge + t.batcherWait }))
	replayed := sum(pick(func(t tableTimes) float64 { return t.leaves + t.edge }))
	m["trace.unattributed_share"] = (handler - attributed) / handler
	m["trace.replay_vs_e2e"] = replayed / handler
	if err := glue(ctx, w, s, order, m); err != nil {
		return 0, err
	}
	return replayed / float64(len(times)), nil
}

// glueRepeats is how often glue times each layer on each sample table.
const glueRepeats = 20

// glue measures what the service and the HTTP front end add around
// core.DetectTable. A few microseconds cannot be read off the difference of
// two separate 30 ms executions, so this is timed where it resolves: on
// cached repeats of the sample tables against a zero-latency twin of the
// tenant, the three layers alternating, medians per table. Neither cost
// depends on storage latency or cache state: both layers do the same
// decoding, keying, connecting and encoding either way.
func glue(ctx context.Context, w workload, s *setup, sample []int, m map[string]float64) error {
	tn := newTenant("glue", 0, len(s.tenant.tables), simdb.NoLatency, planRNG(0, 0))
	n, err := newNode(s.model, tn)
	if err != nil {
		return err
	}
	defer n.close()
	conn, err := tn.server.Connect(ctx, tn.name)
	if err != nil {
		return err
	}
	defer conn.Close()
	var self, front []float64
	for _, i := range sample {
		table := tn.tables[i].Name
		req := service.DetectRequest{Database: tn.name, Tables: []string{table}}
		body := tableBody(tn.name, table)
		var core, svc, handler []float64
		for rep := 0; rep <= w.reps(glueRepeats); rep++ {
			start := time.Now()
			if _, err := n.det.DetectTable(ctx, conn, tn.name, table); err != nil {
				return err
			}
			t1 := time.Now()
			if _, apiErr := n.svc.Detect(ctx, req); apiErr != nil {
				return apiErr
			}
			t2 := time.Now()
			status, _, took := n.post(body)
			if status != http.StatusOK {
				return fmt.Errorf("glue: status %d for %s", status, table)
			}
			if rep == 0 {
				continue // the first round fills the caches
			}
			core, svc, handler = append(core, us(t1.Sub(start))), append(svc, us(t2.Sub(t1))), append(handler, us(took))
		}
		self = append(self, median(svc)-median(core))
		front = append(front, median(handler)-median(svc))
	}
	m["service.self_us"] = median(self)
	m["service.http_us"] = median(front)
	return nil
}

// runTraced is the -trace 1 run: one set-up, tracePasses workload passes with
// every counter read before and after, the per-table replay, the layer
// micro-measurements, and the span file.
func runTraced(w workload, seed int64, outDir string) (result, error) {
	w.passes = tracePasses
	s, err := setUp(w, seed)
	if err != nil {
		return result{}, err
	}
	defer s.close()
	m := map[string]float64{}

	c := startCounters(s)
	r := timedPasses(w, seed, s, c.inspect)
	if err := c.finish(w, s, r, m); err != nil {
		return result{}, err
	}

	tr := &tracer{}
	rp := newReplayer(tr, s.model)
	meanReplayUS, err := traceTables(w, seed, s, rp, m)
	if err != nil {
		return result{}, err
	}
	var walls, tables []float64
	for _, p := range r.passes {
		walls = append(walls, p.wall.Seconds())
		tables = append(tables, float64(p.tables))
	}
	m["pipeline.overlap_ratio"] = meanReplayUS / 1e6 * median(tables) / median(walls)

	if err := microLayers(w, s, rp, m); err != nil {
		return result{}, err
	}

	if err := writeSpans(outDir, w, seed, tr); err != nil {
		return result{}, err
	}
	for _, problem := range r.problems {
		fmt.Fprintf(os.Stderr, "bench: %s: INCORRECT: %s\n", w.name, problem)
	}
	attempted, failed := r.attempted()
	return result{Correct: r.correct, Attempted: attempted, Failed: failed, Metrics: withUnits(m, perLayerUnits)}, nil
}

func writeSpans(dir string, w workload, seed int64, tr *tracer) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	out, err := json.Marshal(struct {
		Workload   string `json:"workload"`
		Seed       int64  `json:"seed"`
		GoMaxProcs int    `json:"gomaxprocs"`
		Spans      []span `json:"spans"`
	}{w.name, seed, procs(), tr.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace_"+w.name+".json"), out, 0o644)
}
