// The work-stealing engine behind Scheduler (DESIGN.md §16). Every worker
// owns a deque split by stage kind; a stage becomes runnable the moment its
// predecessor finishes (Definition 5.1) and is pushed onto the deque of the
// worker that completed the predecessor, so a job's stages keep data
// locality by default. Idle workers first pop their own deque LIFO —
// preferring Infer stages, whose inputs are hottest — and otherwise raid a
// victim FIFO, preferring Prep stages and taking half the queue per raid
// (steal-half), which starts upcoming I/O early while the victim keeps its
// compute-bound tail.
//
// A stage may be gated on a completion (Stage.Ready). When a job's next stage
// is not ready the job is parked: it sits in no deque, a waiter goroutine
// re-enqueues it on the deque it would have landed on when the completion
// fires, and the workers meanwhile run only stages that can make progress.
// Jobs wait for storage; workers do not.
//
// Deque operations run under one engine mutex: stages are millisecond-scale
// (model forwards, database scans), so the discipline — locality, kind
// priorities, steal-half — is what matters, not lock-free push/pop.
package pipeline

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/obs"
)

var (
	stealsTotal = map[StageKind]*obs.Counter{
		Prep:  obs.Default.Counter("taste_pipeline_steals_total", "kind", "prep"),
		Infer: obs.Default.Counter("taste_pipeline_steals_total", "kind", "infer"),
	}
	queueDepthGauge = obs.Default.Gauge("taste_pipeline_queue_depth")
	// parkedGauge moves by deltas, so concurrent batches sum.
	parkedGauge = obs.Default.Gauge("taste_pipeline_parked_jobs")
)

// item is one runnable stage in a deque.
type item struct {
	js *jobState
	// readyAt is when the stage became runnable (job submission or the
	// previous stage's completion); dispatch−readyAt is its queue wait.
	readyAt time.Time
	// stolen marks a stage migrated off its owner's deque by a raid.
	stolen bool
}

// jobState tracks a job's progress; next indexes the next stage to run.
// Each job has exactly one owner at a time (its runnable stage sits in
// exactly one deque, is in flight on one worker, or is held by one park
// waiter), so next needs no extra synchronization beyond the engine mutex.
type jobState struct {
	job  *Job
	next int
}

// deque is one worker's pending stages, split by kind so both the LIFO
// local pop and the FIFO steal can pick their preferred kind in O(1).
type deque struct {
	q [2][]*item // indexed by StageKind
}

type engine struct {
	ctx       context.Context
	deques    []deque
	wg        sync.WaitGroup // workers and park waiters
	mu        sync.Mutex
	cond      *sync.Cond
	queued    int // runnable stages across all deques
	inflight  int
	parked    int // jobs waiting on a Ready completion, in no deque
	remaining int // stages not yet finished or abandoned
	done      bool
	stats     Stats
}

// runStealing executes jobs on a pool of workers with per-worker deques.
// Jobs are seeded round-robin so the initial prep wave spreads across the
// pool; after that, locality and stealing take over.
func runStealing(ctx context.Context, jobs []*Job, workers int) Stats {
	e := &engine{ctx: ctx, deques: make([]deque, workers)}
	e.cond = sync.NewCond(&e.mu)
	now := time.Now()
	var states []*jobState
	for i, j := range jobs {
		if len(j.Stages) == 0 {
			continue
		}
		js := &jobState{job: j}
		states = append(states, js)
		// A gate may fire while later jobs are still being seeded, so even
		// seeding takes the lock (after resolving the gate: caller code).
		ready := j.Stages[0].pending()
		e.mu.Lock()
		e.remaining += len(j.Stages)
		e.submitLocked(i%workers, js, ready, now)
		e.mu.Unlock()
	}
	if len(states) == 0 {
		queueDepthGauge.Set(0)
		return e.stats
	}
	// Wake parked workers when the context dies so cancellation is observed
	// even while the pool is idle.
	stopWatch := context.AfterFunc(ctx, func() {
		e.mu.Lock()
		e.cond.Broadcast()
		e.mu.Unlock()
	})
	defer stopWatch()

	e.wg.Add(workers)
	for w := 0; w < workers; w++ {
		go e.worker(w)
	}
	e.wg.Wait()
	queueDepthGauge.Set(0)
	// Attribute the cancellation to every job the scheduler abandoned.
	if err := ctx.Err(); err != nil {
		for _, js := range states {
			if js.job.Err == nil && js.next < len(js.job.Stages) {
				js.job.Err = err
			}
		}
	}
	return e.stats
}

// worker is the pool loop: take a runnable stage (local LIFO, then steal),
// run it, repeat until every stage finished or the context died.
func (e *engine) worker(id int) {
	defer e.wg.Done()
	e.mu.Lock()
	for {
		if e.done || e.ctx.Err() != nil {
			e.mu.Unlock()
			return
		}
		it := e.take(id)
		if it == nil {
			if e.queued == 0 && e.inflight == 0 && e.parked == 0 && e.remaining > 0 {
				// Nothing runnable, running or waiting on a gate, yet work
				// remains: a scheduler bug would otherwise idle the pool
				// forever.
				panic("pipeline: scheduler deadlock")
			}
			e.cond.Wait()
			continue
		}
		e.inflight++
		e.mu.Unlock()

		js := it.js
		stage := js.job.Stages[js.next]
		queueWait(js.next, stage.Kind, it.stolen, time.Since(it.readyAt))
		err := stage.Run(e.ctx)
		// Resolve the successor's gate outside the engine lock: Ready is
		// caller code.
		var ready <-chan struct{}
		more := err == nil && js.next+1 < len(js.job.Stages)
		if more {
			ready = js.job.Stages[js.next+1].pending()
		}

		e.mu.Lock()
		e.inflight--
		if err != nil {
			js.job.Err = fmt.Errorf("stage %s: %w", stage.Name, err)
			e.remaining -= len(js.job.Stages) - js.next
		} else {
			js.next++
			e.remaining--
			if more {
				// The completing worker keeps the job: its successor stage
				// lands on this deque (now, or when its gate fires) and is
				// popped LIFO next unless a thief gets there first.
				e.submitLocked(id, js, ready, time.Now())
			}
		}
		if e.remaining <= 0 {
			e.done = true
			e.cond.Broadcast()
		}
	}
}

// submitLocked hands js's next stage to worker id: onto its deque when ready
// is nil, otherwise to a waiter that pushes it there once ready fires. A
// dead context ends the wait without a push — the job is then abandoned like
// any other unfinished one. Callers hold e.mu.
func (e *engine) submitLocked(id int, js *jobState, ready <-chan struct{}, now time.Time) {
	if ready == nil {
		e.pushLocked(id, &item{js: js, readyAt: now})
		e.cond.Signal()
		return
	}
	e.parked++
	e.stats.Parks++
	parkedGauge.Add(1)
	e.wg.Add(1)
	go func() {
		defer e.wg.Done()
		select {
		case <-ready:
		case <-e.ctx.Done():
		}
		woke := time.Now()
		parkWait(js.next, woke.Sub(now))
		parkedGauge.Add(-1)
		e.mu.Lock()
		defer e.mu.Unlock()
		e.parked--
		if e.ctx.Err() == nil {
			e.pushLocked(id, &item{js: js, readyAt: woke})
			e.cond.Signal()
		}
	}()
}

// pushLocked appends a runnable stage to worker id's deque. Callers hold
// e.mu.
func (e *engine) pushLocked(id int, it *item) {
	k := it.js.job.Stages[it.js.next].Kind
	e.deques[id].q[k] = append(e.deques[id].q[k], it)
	e.queued++
	if e.queued > e.stats.MaxQueueDepth {
		e.stats.MaxQueueDepth = e.queued
	}
	queueDepthGauge.Set(int64(e.queued))
}

// take returns the next stage worker id should run: its own newest stage
// (Infer before Prep), else the spoils of a raid on another worker's
// oldest stages (Prep before Infer, steal-half). Nil when every deque is
// empty. Callers hold e.mu.
func (e *engine) take(id int) *item {
	d := &e.deques[id]
	for _, k := range [...]StageKind{Infer, Prep} {
		if q := d.q[k]; len(q) > 0 {
			it := q[len(q)-1]
			d.q[k] = q[:len(q)-1]
			e.queued--
			queueDepthGauge.Set(int64(e.queued))
			return it
		}
	}
	n := len(e.deques)
	for off := 1; off < n; off++ {
		v := &e.deques[(id+off)%n]
		for _, k := range [...]StageKind{Prep, Infer} {
			q := v.q[k]
			if len(q) == 0 {
				continue
			}
			half := (len(q) + 1) / 2
			taken := q[:half:half]
			v.q[k] = q[half:]
			for _, it := range taken {
				it.stolen = true
			}
			e.stats.Steals++
			e.stats.Stolen += int64(half)
			stealsTotal[k].Add(int64(half))
			// The oldest stage runs now; the rest of the haul joins the
			// thief's deque in age order.
			d.q[k] = append(d.q[k], taken[1:]...)
			e.queued--
			queueDepthGauge.Set(int64(e.queued))
			return taken[0]
		}
	}
	return nil
}
