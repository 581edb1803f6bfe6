// The work-stealing engine behind Scheduler (DESIGN.md §16). Reads and
// compute are the two resources of Algorithm 1 (TP1 and TP2). A Prep stage
// — a storage read — starts the moment it becomes runnable (Definition 5.1),
// on a goroutine of its own: a job waits on the wire, never a worker. Infer
// stages run on the pool, whose size is the only cap.
//
// Every job has a home worker: seeded round-robin, then whichever worker
// last ran one of its Infer stages. A runnable Infer stage lands on its
// home's deque, so a job's stages keep data locality by default. Idle
// workers pop their own deque LIFO and otherwise raid a victim FIFO, taking
// half its queue per raid (steal-half).
//
// Deque operations run under one engine mutex: stages are millisecond-scale
// (model forwards, database scans), so the discipline — locality,
// steal-half — is what matters, not lock-free push/pop.
package pipeline

import (
	"context"
	"sync"
	"time"

	"repro/internal/obs"
)

var (
	stealsTotal     = obs.Default.Counter("taste_pipeline_steals_total", "kind", "infer")
	queueDepthGauge = obs.Default.Gauge("taste_pipeline_queue_depth")
)

// item is one runnable Infer stage in a deque.
type item struct {
	js *jobState
	// readyAt is when the stage became runnable (job submission or the
	// previous stage's completion); dispatch−readyAt is its queue wait.
	readyAt time.Time
	// stolen marks a stage migrated off its owner's deque by a raid.
	stolen bool
}

// jobState tracks a job's progress; next indexes the next stage to run and
// home the deque its next Infer stage lands on. Each job has exactly one
// owner at a time (its runnable stage sits in one deque, runs on one worker,
// or is a read in flight), so neither field needs synchronization beyond
// the engine mutex.
type jobState struct {
	job  *Job
	next int
	home int
}

type engine struct {
	ctx       context.Context
	deques    [][]*item      // per worker, oldest first
	wg        sync.WaitGroup // workers and reads
	mu        sync.Mutex
	cond      *sync.Cond
	queued    int // runnable stages across all deques
	inflight  int // stages running: Infer on workers, Prep on their own goroutines
	remaining int // stages not yet finished or abandoned
	done      bool
	stats     Stats
}

// runStealing executes jobs on a pool of workers with per-worker deques.
// Jobs are seeded round-robin so the first wave spreads across the pool;
// after that, locality and stealing take over.
func runStealing(ctx context.Context, jobs []*Job, workers int) Stats {
	e := &engine{ctx: ctx, deques: make([][]*item, workers)}
	e.cond = sync.NewCond(&e.mu)
	now := time.Now()
	var states []*jobState
	// A read started while seeding may finish before the last job is
	// seeded, so seeding holds the lock.
	e.mu.Lock()
	for i, j := range jobs {
		if len(j.Stages) == 0 {
			continue
		}
		js := &jobState{job: j, home: i % workers}
		states = append(states, js)
		e.remaining += len(j.Stages)
		e.submitLocked(js, now)
	}
	e.mu.Unlock()
	if len(states) == 0 {
		queueDepthGauge.Set(0)
		return e.stats
	}
	// Wake idle workers when the context dies so cancellation is observed
	// even while the pool waits on reads.
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
			if e.queued == 0 && e.inflight == 0 && e.remaining > 0 {
				// Nothing runnable, running or reading, yet work remains: a
				// scheduler bug would otherwise idle the pool forever.
				panic("pipeline: scheduler deadlock")
			}
			e.cond.Wait()
			continue
		}
		e.inflight++
		e.mu.Unlock()

		js := it.js
		queueWait(js.next, it.stolen, time.Since(it.readyAt))
		err := runStage(e.ctx, js.job.Stages[js.next])

		e.mu.Lock()
		// The completing worker keeps the job: its next Infer stage lands
		// on this deque and is popped LIFO next unless a thief gets there
		// first.
		js.home = id
		e.finishLocked(js, err)
	}
}

// read runs js's Prep stage on the goroutine submitLocked started for it.
func (e *engine) read(js *jobState) {
	defer e.wg.Done()
	err := runStage(e.ctx, js.job.Stages[js.next])
	e.mu.Lock()
	e.finishLocked(js, err)
	e.mu.Unlock()
}

// finishLocked books the end of js's running stage and submits its
// successor. Callers hold e.mu.
func (e *engine) finishLocked(js *jobState, err error) {
	e.inflight--
	if err != nil {
		js.job.Err = err
		e.remaining -= len(js.job.Stages) - js.next
	} else {
		js.next++
		e.remaining--
		if js.next < len(js.job.Stages) {
			e.submitLocked(js, time.Now())
		}
	}
	if e.remaining <= 0 {
		e.done = true
		e.cond.Broadcast()
	}
}

// submitLocked makes js's next stage runnable: a Prep stage starts at once
// on a goroutine of its own — unless the context is dead, which abandons the
// job like any other unfinished one — and an Infer stage joins its home
// worker's deque. Callers hold e.mu.
func (e *engine) submitLocked(js *jobState, now time.Time) {
	if js.job.Stages[js.next].Kind == Prep {
		if e.ctx.Err() == nil {
			e.inflight++
			e.wg.Add(1)
			go e.read(js)
		}
		return
	}
	e.deques[js.home] = append(e.deques[js.home], &item{js: js, readyAt: now})
	e.queued++
	if e.queued > e.stats.MaxQueueDepth {
		e.stats.MaxQueueDepth = e.queued
	}
	queueDepthGauge.Set(int64(e.queued))
	e.cond.Signal()
}

// take returns the next stage worker id should run: its own newest stage,
// else the spoils of a raid on another worker's oldest stages (steal-half).
// Nil when every deque is empty. Callers hold e.mu.
func (e *engine) take(id int) *item {
	d := &e.deques[id]
	if n := len(*d); n > 0 {
		it := (*d)[n-1]
		*d = (*d)[:n-1]
		e.queued--
		queueDepthGauge.Set(int64(e.queued))
		return it
	}
	n := len(e.deques)
	for off := 1; off < n; off++ {
		v := &e.deques[(id+off)%n]
		q := *v
		if len(q) == 0 {
			continue
		}
		half := (len(q) + 1) / 2
		taken := q[:half:half]
		*v = q[half:]
		for _, it := range taken {
			it.stolen = true
		}
		e.stats.Steals++
		e.stats.Stolen += int64(half)
		stealsTotal.Add(int64(half))
		// The oldest stage runs now; the rest of the haul joins the
		// thief's (empty) deque in age order.
		*d = append(*d, taken[1:]...)
		e.queued--
		queueDepthGauge.Set(int64(e.queued))
		return taken[0]
	}
	return nil
}
