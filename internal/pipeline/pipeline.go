// Package pipeline implements the pipelined execution engine of §5
// (Algorithm 1): each table contributes an ordered list of stages
// alternating between data preparation (reads) and inference (compute). The
// work-stealing scheduler starts every read the moment it is runnable and
// interleaves the inference stages of different tables on one worker pool,
// so one table's inference overlaps another's data fetch (DESIGN.md §16).
//
// Both schedulers propagate a context.Context into every stage and stop
// dispatching once it is cancelled, so a per-request deadline genuinely
// cancels in-flight detection work instead of letting it run to completion.
package pipeline

import (
	"context"
	"fmt"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// waitStages is how many leading stage positions get a resolved histogram
// handle; a job with more stages (Taste's have four) looks the rest up in
// the registry on each call.
const waitStages = 8

// queueWaitHists[stage][stolen] holds the wait-histogram handles, resolved
// on first use (so a series still appears in /metrics only once it has been
// observed) and then read without a registry lookup.
var queueWaitHists [waitStages][2]atomic.Pointer[obs.Histogram]

// queueWait records how long an Infer stage sat runnable-but-undispatched in
// a worker deque: the scheduler-added latency the paper's §5 pipelining
// analysis cares about. A Prep stage starts the moment it is runnable and
// never waits. Stages are labeled by position (s1..s4 for Taste's four-stage
// jobs) so the histogram lines up with the per-stage duration series in
// core; the stolen label splits waits of migrated stages from stages their
// owner ran locally.
func queueWait(stageIdx int, stolen bool, d time.Duration) {
	lookup := func() *obs.Histogram {
		return obs.Default.LatencyHistogram("taste_pipeline_queue_wait_seconds",
			"stage", stageLabel(stageIdx),
			"kind", Infer.String(),
			"stolen", strconv.FormatBool(stolen))
	}
	if stageIdx >= waitStages {
		lookup().ObserveDuration(d)
		return
	}
	s := 0
	if stolen {
		s = 1
	}
	resolved(&queueWaitHists[stageIdx][s], lookup).ObserveDuration(d)
}

// resolved returns the handle in slot, filling it with lookup on first use.
// Racing first uses store the same registry-owned histogram.
func resolved(slot *atomic.Pointer[obs.Histogram], lookup func() *obs.Histogram) *obs.Histogram {
	h := slot.Load()
	if h == nil {
		h = lookup()
		slot.Store(h)
	}
	return h
}

// stageLabel names stage position idx: "s1" for the first.
func stageLabel(idx int) string { return "s" + strconv.Itoa(idx+1) }

// StageKind distinguishes the two resources of §5, and the work-stealing
// engine runs them differently: a Prep stage on a goroutine of its own the
// moment it is runnable, an Infer stage on the worker pool.
type StageKind int

const (
	// Prep stages wait on storage (thread pool TP1 in the paper). The
	// work-stealing engine starts each one at once; Workers does not cap
	// them.
	Prep StageKind = iota
	// Infer stages consume compute — the GPU in the paper, the pool's
	// workers here (TP2).
	Infer
)

// String implements fmt.Stringer.
func (k StageKind) String() string {
	if k == Prep {
		return "prep"
	}
	return "infer"
}

// Stage is one unit of work for one job (table). Run receives the batch
// context and may return an error or panic; either way the job's remaining
// stages are cancelled but not other jobs (runStage).
type Stage struct {
	Kind StageKind
	Name string
	Run  func(ctx context.Context) error
}

// Job is an ordered list of stages for one table: P1-prep, P1-infer,
// P2-prep, P2-infer in the Taste framework.
type Job struct {
	ID     string
	Stages []Stage
	// Err records the first stage error as the stage returned it, or
	// "<Stage.Name> panic: <value>" for a stage that panicked. When the
	// batch context is cancelled before the job finishes, Err is the
	// context's error.
	Err error
}

// Scheduler runs jobs either sequentially (the baseline execution mode of
// prior work) or through the work-stealing pool (Algorithm 1 + DESIGN.md
// §16).
type Scheduler struct {
	// Workers sizes the work-stealing pool, which runs Infer stages (TP2);
	// Prep stages each run on a goroutine of their own. Pipelined mode
	// needs ≥ 1.
	Workers int
	// Pipelined selects the work-stealing engine; false degenerates to the
	// sequential mode that processes tables and stages one by one.
	Pipelined bool
}

// Validate reports configuration errors.
func (s Scheduler) Validate() error {
	if s.Pipelined && s.Workers < 1 {
		return fmt.Errorf("pipeline: pipelined mode needs a positive worker count, got %d", s.Workers)
	}
	return nil
}

// Stats summarizes one Run of the work-stealing engine.
type Stats struct {
	// Steals counts steal operations that migrated at least one stage from
	// a victim's deque.
	Steals int64
	// Stolen counts stages migrated by those steals (steal-half takes up
	// to half a victim queue per operation).
	Stolen int64
	// MaxQueueDepth is the peak number of runnable stages queued across
	// all worker deques at any instant.
	MaxQueueDepth int
}

// Run executes all jobs under ctx and returns after every job finishes,
// fails, or is cancelled. A nil ctx means context.Background(). Run never
// leaks goroutines: it waits for in-flight stages even after cancellation.
func (s Scheduler) Run(ctx context.Context, jobs []*Job) error {
	_, err := s.RunStats(ctx, jobs)
	return err
}

// RunStats is Run plus the engine's steal/queue statistics (zero for
// sequential mode).
func (s Scheduler) RunStats(ctx context.Context, jobs []*Job) (Stats, error) {
	if err := s.Validate(); err != nil {
		return Stats{}, err
	}
	if ctx == nil {
		ctx = context.Background()
	}
	if !s.Pipelined {
		runSequential(ctx, jobs)
		return Stats{}, nil
	}
	return runStealing(ctx, jobs, s.Workers), nil
}

// runSequential processes tables one by one, each stage in order — the
// execution mode of TURL/Doduo and of "Taste w/o pipelining".
func runSequential(ctx context.Context, jobs []*Job) {
	for _, j := range jobs {
		for _, st := range j.Stages {
			if err := ctx.Err(); err != nil {
				j.Err = err
				break
			}
			if err := runStage(ctx, st); err != nil {
				j.Err = err
				break
			}
		}
	}
}

// stagePanicsTotal counts stage panics runStage recovered.
var stagePanicsTotal = obs.Default.Counter("taste_pipeline_stage_panics_total")

// runStage runs one stage for either engine and is the one place a stage
// panic is recovered: the panic becomes the stage's error, so its job stops
// like any failed job while every other job, and the worker, runs on.
func runStage(ctx context.Context, st Stage) (err error) {
	defer func() {
		if r := recover(); r != nil {
			stagePanicsTotal.Inc()
			err = fmt.Errorf("%s panic: %v", st.Name, r)
		}
	}()
	return st.Run(ctx)
}
