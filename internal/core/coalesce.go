// Cross-table inference batching within one DetectDatabase call
// (DESIGN.md §16): s4 stages submit their content-tower chunks here instead
// of forwarding immediately, and a flush merges submissions from many
// tables into a handful of padded batched forwards. On a many-small-tables
// database this collapses N per-table forwards into ~N·chunks/BatchChunks.
//
// A flush runs its merged batch directly, as one PredictContentBatchQ under
// the request's own quantization preference — never through the detector's
// ContentInferencer (the service-level cross-request Batcher). A flush has
// already waited for all the company it can get: every scheduler worker of
// the request is blocked in submit, so parking the batch for the Batcher's
// timer window would only idle the cores. Request-scoped flushes never wait
// on a timer. The results are deterministic: the per-(chunk, column) key
// spans make every chunk's output bit-identical regardless of which other
// chunks share its forward (the §16 determinism argument, pinned by
// TestPipelineGoldenParity).
//
// A flush triggers when the pending chunk count reaches BatchChunks, or when
// every table that could still contribute is already waiting — len(waiting)
// ≥ min(active tables, scheduler workers) — which is also the deadlock brake:
// a submission can never wait on work the blocked workers would have to run.
package core

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/adtd"
	"repro/internal/pipeline"
)

// rbResult is one submission's demuxed outcome.
type rbResult struct {
	rows [][][]float64
	err  error
}

// rbCall is one table's pending s4 submission.
type rbCall struct {
	ctx   context.Context
	model *adtd.Model
	reqs  []adtd.ContentRequest
	out   chan rbResult // buffered: the flusher never blocks on a dead caller
}

// requestBatcher coalesces Phase-2 content batches across the tables of a
// single detect request. One instance lives for one DetectDatabase call.
type requestBatcher struct {
	n         int // CellsPerColumn, fixed per detector
	maxChunks int
	workers   int
	fwd       *atomic.Int64

	mu            sync.Mutex
	active        int // tables that may still submit (not yet done/failed)
	waiting       []*rbCall
	waitingChunks int
}

func newRequestBatcher(d *Detector, maxChunks, workers, tables int, fwd *atomic.Int64) *requestBatcher {
	return &requestBatcher{
		n:         d.Opts.CellsPerColumn,
		maxChunks: maxChunks,
		workers:   workers,
		active:    tables,
		fwd:       fwd,
	}
}

// submit queues the table's chunks and blocks until a flush answers them
// (possibly led by this caller) or ctx dies. Results are indexed like reqs.
func (r *requestBatcher) submit(ctx context.Context, model *adtd.Model, reqs []adtd.ContentRequest) ([][][]float64, error) {
	c := &rbCall{ctx: ctx, model: model, reqs: reqs, out: make(chan rbResult, 1)}
	r.mu.Lock()
	r.waiting = append(r.waiting, c)
	r.waitingChunks += len(reqs)
	batch := r.drainIfReadyLocked()
	r.mu.Unlock()
	if batch != nil {
		r.flush(batch)
	}
	select {
	case res := <-c.out:
		return res.rows, res.err
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// tableDone retires one table from the contributor count — called exactly
// once per table, whether its s4 submitted, had nothing pending, or an
// earlier stage failed — and flushes if the remaining waiters can no longer
// grow into a fuller batch.
func (r *requestBatcher) tableDone() {
	r.mu.Lock()
	r.active--
	batch := r.drainIfReadyLocked()
	r.mu.Unlock()
	if batch != nil {
		r.flush(batch)
	}
}

// drainIfReadyLocked takes the waiting list when a flush condition holds.
func (r *requestBatcher) drainIfReadyLocked() []*rbCall {
	if len(r.waiting) == 0 {
		return nil
	}
	if r.waitingChunks >= r.maxChunks || len(r.waiting) >= r.active || len(r.waiting) >= r.workers {
		batch := r.waiting
		r.waiting = nil
		r.waitingChunks = 0
		return batch
	}
	return nil
}

// flush groups the drained submissions, in submission order, into forwards
// of at most maxChunks chunks each and answers every caller. The flushing
// goroutine is whichever worker tripped the condition — no dedicated
// collector, no timers.
func (r *requestBatcher) flush(batch []*rbCall) {
	for start := 0; start < len(batch); {
		end := start + 1
		chunks := len(batch[start].reqs)
		for end < len(batch) && chunks+len(batch[end].reqs) <= r.maxChunks {
			chunks += len(batch[end].reqs)
			end++
		}
		r.forward(batch[start:end], chunks)
		start = end
	}
}

// forward runs one merged batch and demuxes the rows back per caller. All
// calls in a group share the batch context and model (they come from one
// detect request), so the first caller's are used.
func (r *requestBatcher) forward(group []*rbCall, chunks int) {
	merged := make([]adtd.ContentRequest, 0, chunks)
	for _, c := range group {
		merged = append(merged, c.reqs...)
	}
	first := group[0]
	var rows [][][]float64
	var err error
	func() {
		defer func() {
			if rec := recover(); rec != nil {
				err = fmt.Errorf("core: content batch panic: %v", rec)
				batchPanicsTotal.Inc()
			}
		}()
		rows = first.model.PredictContentBatchQ(merged, r.n, quantPref(first.ctx))
	}()
	r.fwd.Add(1)
	batchForwardsTotal.Inc()
	batchOccupancyChunks.Observe(float64(chunks))
	off := 0
	for _, c := range group {
		if err != nil {
			c.out <- rbResult{err: err}
			continue
		}
		c.out <- rbResult{rows: rows[off : off+len(c.reqs)]}
		off += len(c.reqs)
	}
}

// wrapStages decorates a table's stage list so the batcher learns, exactly
// once per table, when that table can no longer contribute chunks: after
// its final stage returns, or after any stage fails (the scheduler skips
// the rest of a failed job). Without this, a failed table would leave the
// flush condition waiting for a submission that never comes.
func (r *requestBatcher) wrapStages(stages []pipeline.Stage) []pipeline.Stage {
	done := false // one job's stages never run concurrently
	markDone := func() {
		if !done {
			done = true
			r.tableDone()
		}
	}
	for i := range stages {
		run := stages[i].Run
		last := i == len(stages)-1
		stages[i].Run = func(ctx context.Context) error {
			err := run(ctx)
			if err != nil || last {
				markDone()
			}
			return err
		}
	}
	return stages
}
