// Cross-request micro-batching for Phase-2 content inference. Concurrent
// /v1/detect requests each produce small PredictContentBatch calls (one per
// table); the Batcher coalesces calls that arrive within a short window into
// one larger model batch, amortizing kernel dispatch and classifier overhead
// across requests, then demultiplexes the per-chunk results back to their
// submitters. Batching changes throughput only — each chunk's rows are
// bit-identical to an unbatched call because the model's per-chunk key spans
// isolate every chunk (see adtd.PredictContentBatch). Only requests that do
// not coalesce on their own queue here: a pipelined bulk request's
// cross-table coalescer runs its flushes directly (core/coalesce.go).
package service

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/adtd"
	"repro/internal/core"
)

// batcherDeadlineMargin is subtracted from a submission's context deadline
// when deciding how long it may sit in the queue: a flush is forced early
// rather than letting the window expire a waiter.
const batcherDeadlineMargin = 5 * time.Millisecond

// BatcherStats counts the micro-batcher's activity. All counters are
// cumulative since the batcher started.
type BatcherStats struct {
	// Submissions counts InferContentBatch calls routed to the batcher.
	Submissions int
	// Batches counts model forwards; fewer batches than submissions means
	// coalescing happened.
	Batches int
	// CoalescedBatches counts model forwards that merged ≥ 2 submissions.
	CoalescedBatches int
	// BatchedChunks counts table chunks classified through the batcher.
	BatchedChunks int
	// MaxBatchChunks is the largest chunk count in one model forward.
	MaxBatchChunks int
	// QueueDelay is the summed time submissions spent queued before their
	// flush started; QueueDelay/Submissions is the mean added latency.
	QueueDelay time.Duration
	// DeadlineDropped counts submissions whose context died while queued;
	// they were answered with the context error (the detector degrades
	// them) and never reached the model.
	DeadlineDropped int
	// Panics counts model forwards that panicked. Every submitter in the
	// panicked batch is answered with an error (the detector degrades those
	// tables); the batcher itself keeps running.
	Panics int
}

// batchCall is one queued InferContentBatch submission. The model is the
// one the submitting request captured at admission; calls pinned to
// different models (e.g. across a hot-swap, or a per-request version
// override) are never coalesced into the same forward.
type batchCall struct {
	ctx      context.Context
	model    *adtd.Model
	reqs     []adtd.ContentRequest
	n        int
	enqueued time.Time
	out      chan batchResult // buffered; flush never blocks on it
}

type batchResult struct {
	probs [][][]float64
	err   error
}

// Batcher implements core.ContentInferencer by coalescing submissions from
// concurrent requests. Create with NewBatcher, plug in with
// Detector.SetContentInferencer, and Stop when shutting down.
type Batcher struct {
	window   time.Duration
	maxBatch int // flush early once this many chunks are queued

	// forward runs one coalesced model forward on the group's model.
	// Defaults to m.PredictContentBatch; tests swap it to inject panics.
	forward func(m *adtd.Model, reqs []adtd.ContentRequest, n int) [][][]float64

	mu      sync.Mutex
	pending []*batchCall
	stats   BatcherStats
	stopped bool

	wake chan struct{} // signals the collector that pending changed
	quit chan struct{}
	done chan struct{}
	runs sync.WaitGroup // in-flight run goroutines spawned by flush
}

// NewBatcher creates and starts a micro-batcher. The model comes with each
// submission (the detector passes the request's pinned model), so one
// batcher serves across hot-swaps. window is how long the first submission
// of a batch may wait for company; maxBatch caps the chunks per model
// forward (≤ 1 disables coalescing in all but name). The batcher runs until
// Stop.
func NewBatcher(window time.Duration, maxBatch int) *Batcher {
	if maxBatch < 1 {
		maxBatch = 1
	}
	b := &Batcher{
		window:   window,
		maxBatch: maxBatch,
		wake:     make(chan struct{}, 1),
		quit:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	b.forward = func(m *adtd.Model, reqs []adtd.ContentRequest, n int) [][][]float64 {
		return m.PredictContentBatch(reqs, n)
	}
	go b.collect()
	return b
}

// Stop shuts the collector down after flushing anything still queued, then
// waits for every in-flight model forward: once Stop returns no batcher
// goroutine is running. Submissions after Stop run unbatched.
func (b *Batcher) Stop() {
	b.mu.Lock()
	if b.stopped {
		b.mu.Unlock()
		return
	}
	b.stopped = true
	b.mu.Unlock()
	close(b.quit)
	<-b.done
	b.runs.Wait()
}

// Stats returns a snapshot of the batching counters.
func (b *Batcher) Stats() BatcherStats {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.stats
}

// InferContentBatch implements core.ContentInferencer: enqueue, wait for the
// coalesced flush, return this submission's slice of the results. If ctx
// dies while queued or in flight the context error is returned immediately —
// the detector's degradation ladder turns that into a 200-degraded answer,
// never a 500.
func (b *Batcher) InferContentBatch(ctx context.Context, m *adtd.Model, reqs []adtd.ContentRequest, n int) ([][][]float64, error) {
	if len(reqs) == 0 {
		return nil, nil
	}
	b.mu.Lock()
	if b.stopped || b.window <= 0 {
		b.mu.Unlock()
		return b.forward(m, reqs, n), nil
	}
	call := &batchCall{ctx: ctx, model: m, reqs: reqs, n: n, enqueued: time.Now(), out: make(chan batchResult, 1)}
	b.pending = append(b.pending, call)
	b.stats.Submissions++
	b.mu.Unlock()
	batcherSubmissionsTotal.Inc()
	select {
	case b.wake <- struct{}{}:
	default:
	}
	select {
	case res := <-call.out:
		return res.probs, res.err
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// collect is the single collector goroutine: it watches the queue and
// decides when to flush — window expiry since the oldest submission, the
// chunk cap reached, an imminent submitter deadline, or shutdown.
func (b *Batcher) collect() {
	defer close(b.done)
	timer := time.NewTimer(time.Hour)
	defer timer.Stop()
	for {
		b.mu.Lock()
		var oldest time.Time
		chunks := 0
		var nearest time.Time
		for _, c := range b.pending {
			if oldest.IsZero() || c.enqueued.Before(oldest) {
				oldest = c.enqueued
			}
			chunks += len(c.reqs)
			if dl, ok := c.ctx.Deadline(); ok && (nearest.IsZero() || dl.Before(nearest)) {
				nearest = dl
			}
		}
		empty := len(b.pending) == 0
		b.mu.Unlock()

		if !empty && chunks >= b.maxBatch {
			b.flush()
			continue
		}
		if !empty {
			flushAt := oldest.Add(b.window)
			if !nearest.IsZero() {
				if early := nearest.Add(-batcherDeadlineMargin); early.Before(flushAt) {
					flushAt = early
				}
			}
			wait := time.Until(flushAt)
			if wait <= 0 {
				b.flush()
				continue
			}
			if !timer.Stop() {
				select {
				case <-timer.C:
				default:
				}
			}
			timer.Reset(wait)
			select {
			case <-timer.C:
				b.flush()
			case <-b.wake:
			case <-b.quit:
				b.flush()
				return
			}
			continue
		}
		select {
		case <-b.wake:
		case <-b.quit:
			b.flush()
			return
		}
	}
}

// flush takes the whole queue and classifies it. The model forward runs in
// its own goroutine so the collector immediately resumes gathering the next
// batch. Submissions whose context already died are answered with the
// context error instead of joining the forward; submissions with different
// cell budgets n or pinned to different models are grouped into separate
// forwards (they cannot share one — mixing models would answer part of a
// batch with the wrong weights).
func (b *Batcher) flush() {
	b.mu.Lock()
	calls := b.pending
	b.pending = nil
	b.mu.Unlock()
	if len(calls) == 0 {
		return
	}

	now := time.Now()
	live := calls[:0]
	dropped := 0
	for _, c := range calls {
		if c.ctx.Err() != nil {
			c.out <- batchResult{err: c.ctx.Err()}
			dropped++
			continue
		}
		live = append(live, c)
	}
	var queued time.Duration
	for _, c := range live {
		d := now.Sub(c.enqueued)
		queued += d
		batcherQueueDelaySeconds.ObserveDuration(d)
	}
	batcherDeadlineDroppedTotal.Add(int64(dropped))
	type groupKey struct {
		model *adtd.Model
		n     int
	}
	groups := make(map[groupKey][]*batchCall)
	for _, c := range live {
		k := groupKey{model: c.model, n: c.n}
		groups[k] = append(groups[k], c)
	}

	b.mu.Lock()
	b.stats.DeadlineDropped += dropped
	b.stats.QueueDelay += queued
	for _, g := range groups {
		b.stats.Batches++
		if len(g) > 1 {
			b.stats.CoalescedBatches++
		}
		chunks := 0
		for _, c := range g {
			chunks += len(c.reqs)
		}
		b.stats.BatchedChunks += chunks
		if chunks > b.stats.MaxBatchChunks {
			b.stats.MaxBatchChunks = chunks
		}
		batcherBatchesTotal.Inc()
		batcherBatchChunks.Observe(float64(chunks))
	}
	b.mu.Unlock()

	for _, g := range groups {
		b.runs.Add(1)
		g := g
		go func() {
			defer b.runs.Done()
			b.run(g)
		}()
	}
}

// run executes one coalesced model forward and demultiplexes the results.
// A panicking forward must not strand its submitters: every call that has
// not yet received its slice is answered with an error, so the detectors
// waiting on them degrade those tables instead of hanging until their
// request deadline.
func (b *Batcher) run(g []*batchCall) {
	answered := 0
	defer func() {
		r := recover()
		if r == nil {
			return
		}
		b.mu.Lock()
		b.stats.Panics++
		b.mu.Unlock()
		batcherPanicsTotal.Inc()
		err := fmt.Errorf("batcher: content inference panicked: %v", r)
		for _, c := range g[answered:] {
			c.out <- batchResult{err: err}
		}
	}()
	all := make([]adtd.ContentRequest, 0, len(g))
	for _, c := range g {
		all = append(all, c.reqs...)
	}
	batch := b.forward(g[0].model, all, g[0].n)
	off := 0
	for _, c := range g {
		c.out <- batchResult{probs: batch[off : off+len(c.reqs)]}
		off += len(c.reqs)
		answered++
	}
}

var _ core.ContentInferencer = (*Batcher)(nil)
