package core

import (
	"slices"

	"repro/internal/adtd"
	"repro/internal/metafeat"
)

// classifier is what a detect's two inference stages run, captured once per
// request: s2 calls phase1 per chunk, s4 calls phase2 once per table. ADTD
// (adtdClassifier) runs through the latent and result tiers; a Baseline
// (baselineClassifier) touches neither.
type classifier interface {
	// types is the type space every probability row indexes.
	types() *adtd.TypeSpace
	// phase1 returns chunk ci's Phase-1 rows, one per column; a nil row
	// defers its column to Phase 2.
	phase1(j *tableJob, ci int) [][]float64
	// phase2 answers j's uncertain columns (eachPending, answer).
	phase2(j *tableJob)
}

// Baseline is a single-phase content classifier, TURL or Doduo
// (internal/baselines), that NewBaselineDetector runs in place of ADTD.
// Predict returns a chunk's probability rows, indexed by TypeSpace, reading
// each column's first n non-empty cells when withContent. It may return
// fewer rows than the chunk has columns (anchors truncated past the model's
// input length); the columns without a row get no types.
type Baseline interface {
	Predict(chunk *metafeat.TableInfo, n int, withContent bool) [][]float64
	TypeSpace() *adtd.TypeSpace
}

// adtdClassifier runs the request's ADTD model.
type adtdClassifier struct{ m *adtd.Model }

func (c adtdClassifier) types() *adtd.TypeSpace { return c.m.Types }

// phase1 runs the metadata tower over the chunk, unless the result tier
// already holds its rows, and caches the chunk's latents for s4. One key per
// chunk, the hash of its metadata: it names the chunk's Phase-1 result, so
// a repeat detect over unchanged metadata skips the metadata tower, and its
// latents, so those s4 finds were encoded from this metadata and never
// another version's. It is computed even with both tiers off: a disabled
// latent tier still counts s4's misses.
func (c adtdClassifier) phase1(j *tableJob, ci int) [][]float64 {
	d, chunk := j.d, j.chunks[ci]
	key := d.metaResultKey(c.m, chunk)
	j.keys = append(j.keys, key)
	if d.results.Enabled() {
		if probs, ok := d.results.Get(key); ok {
			return probs
		}
	}
	menc, probs := c.m.PredictMeta(chunk, d.Opts.UseHistogram)
	if !d.cache.Put(key, menc) {
		// Not consumed (disabled, oversized, or an equal entry already
		// cached): the fresh graph goes back to the tensor arena.
		menc.Release()
	}
	d.results.Put(key, probs)
	return probs
}

// phase2 runs the content tower over every chunk with uncertain columns in
// one batched forward (PredictContentBatch), which amortizes kernel dispatch
// and classifier overhead across chunks, reusing cached metadata latents
// when available and recomputing them otherwise.
func (c adtdClassifier) phase2(j *tableJob) {
	d, n := j.d, j.d.Opts.CellsPerColumn
	j.p2keys = slices.Grow(j.p2keys[:0], len(j.chunks))[:len(j.chunks)]
	clear(j.p2keys)
	var reqs []adtd.ContentRequest
	var globalsPerReq [][]int
	var keysPerReq []string
	j.eachPending(func(ci int, globals, cols []int) {
		chunk := j.chunks[ci]
		// Result-cache fast path: the key chains the chunk's Phase-1 key
		// (its metadata) with the cells the content tower reads of each
		// requested column, so changed content the model sees yields a
		// different key and stale memoized answers simply never resolve
		// again.
		var rkey string
		if d.results.Enabled() {
			rkey = d.contentResultKey(c.m, j.keys[ci], chunk, cols, n)
			j.p2keys[ci] = rkey
			if rows, ok := d.results.Get(rkey); ok && len(rows) == len(globals) {
				j.answer(globals, rows)
				return
			}
		}
		menc := d.cache.Get(j.keys[ci])
		if menc != nil {
			j.latentHits++
		} else {
			if d.cache.Enabled() {
				j.latentMisses++
			}
			// Latents not cached (tier disabled or evicted): re-encode the
			// chunk's metadata, the duplicate metadata-tower computation the
			// latent cache exists to avoid (§4.2.2). The batch call releases
			// this fresh encoding; cached ones are graph-free views and
			// survive it.
			menc = c.m.EncodeMetadata(c.m.Encoder().BuildMetaInput(chunk, d.Opts.UseHistogram))
		}
		reqs = append(reqs, adtd.ContentRequest{Menc: menc, Table: chunk, Cols: cols})
		globalsPerReq = append(globalsPerReq, globals)
		keysPerReq = append(keysPerReq, rkey)
	})
	if len(reqs) == 0 {
		return
	}
	j.forwards++
	batch := c.m.PredictContentBatch(reqs, n)
	for r, globals := range globalsPerReq {
		j.answer(globals, batch[r])
		if keysPerReq[r] != "" {
			// Memoize only full successes: degraded and error paths never
			// reach here, so cached entries are always clean answers.
			d.results.Put(keysPerReq[r], batch[r])
		}
	}
}

// baselineClassifier runs a Baseline. It reads content only in Phase 2,
// where s3 has scanned every column Phase 1 deferred.
type baselineClassifier struct{ m Baseline }

func (c baselineClassifier) types() *adtd.TypeSpace { return c.m.TypeSpace() }

// phase1 defers every column, or with Phase 2 off answers them from the
// metadata alone.
func (c baselineClassifier) phase1(j *tableJob, ci int) [][]float64 {
	chunk := j.chunks[ci]
	rows := make([][]float64, len(chunk.Columns))
	if j.d.Opts.P2Disabled() {
		copy(rows, c.m.Predict(chunk, j.d.Opts.CellsPerColumn, false))
	}
	return rows
}

// phase2 predicts each chunk with pending columns from its content, one
// forward per chunk. A column Predict returned no row for gets a nil row.
func (c baselineClassifier) phase2(j *tableJob) {
	j.eachPending(func(ci int, globals, cols []int) {
		j.forwards++
		rows := c.m.Predict(j.chunks[ci], j.d.Opts.CellsPerColumn, true)
		picked := make([][]float64, len(cols))
		for i, col := range cols {
			if col < len(rows) {
				picked[i] = rows[col]
			}
		}
		j.answer(globals, picked)
	})
}
