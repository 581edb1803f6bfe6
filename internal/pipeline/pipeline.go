// Package pipeline implements the pipelined execution engine of §5
// (Algorithm 1): each table contributes an ordered list of stages
// alternating between data preparation (I/O + CPU) and inference (compute),
// and a work-stealing scheduler interleaves stages of different tables
// across a single worker pool so that one table's inference overlaps
// another's data fetch (DESIGN.md §16).
//
// Both schedulers propagate a context.Context into every stage and stop
// dispatching once it is cancelled, so a per-request deadline genuinely
// cancels in-flight detection work instead of letting it run to completion.
package pipeline

import (
	"context"
	"fmt"
	"time"

	"repro/internal/obs"
)

// queueWait records how long a stage sat runnable-but-undispatched in a
// worker deque: the scheduler-added latency the paper's §5 pipelining
// analysis cares about. Stages are labeled by position (s1..s4 for Taste's
// four-stage jobs) so the histogram lines up with the per-stage duration
// series in core; the stolen label splits waits of migrated stages from
// stages their owner ran locally.
func queueWait(stageIdx int, kind StageKind, stolen bool, d time.Duration) {
	obs.Default.LatencyHistogram("taste_pipeline_queue_wait_seconds",
		"stage", fmt.Sprintf("s%d", stageIdx+1),
		"kind", kind.String(),
		"stolen", fmt.Sprintf("%v", stolen)).ObserveDuration(d)
}

// parkWait records how long a job sat parked on a stage's Ready completion:
// time spent waiting for storage (or any other gate), which queueWait never
// sees because a parked job is in no deque.
func parkWait(stageIdx int, d time.Duration) {
	obs.Default.LatencyHistogram("taste_pipeline_park_seconds",
		"stage", fmt.Sprintf("s%d", stageIdx+1)).ObserveDuration(d)
}

// StageKind distinguishes the two resource classes of §5. The work-stealing
// scheduler treats the kind as a priority hint, not a dedicated lane: a
// worker prefers running its own freshest Infer stage (hot caches) and
// stealing victims' oldest Prep stages (starts I/O early so it overlaps
// the victim's compute).
type StageKind int

const (
	// Prep stages consume I/O and CPU (thread pool TP1 in the paper).
	Prep StageKind = iota
	// Infer stages consume compute — the GPU in the paper, the inference
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
// context and may return an error; a failed stage cancels the job's
// remaining stages but not other jobs.
type Stage struct {
	Kind StageKind
	Name string
	Run  func(ctx context.Context) error
	// Ready, when set, names the completion the stage waits for — a storage
	// read in flight, a forward someone else will run. It is called once,
	// after the job's previous stage finished, and returns a channel that
	// is closed when Run can proceed without blocking; a nil func or a nil
	// channel means "runnable now". The work-stealing engine parks the job,
	// not a worker, until the channel closes or the context dies.
	Ready func() <-chan struct{}
}

// pending resolves the stage's gate: the channel the job must park on, or
// nil when the stage has no gate or its completion already fired (no park,
// no goroutine).
func (st Stage) pending() <-chan struct{} {
	if st.Ready == nil {
		return nil
	}
	ch := st.Ready()
	select {
	case <-ch: // a nil channel never fires and falls to default
		return nil
	default:
		return ch
	}
}

// Job is an ordered list of stages for one table: P1-prep, P1-infer,
// P2-prep, P2-infer in the Taste framework.
type Job struct {
	ID     string
	Stages []Stage
	// Err records the first stage error, if any. When the batch context is
	// cancelled before the job finishes, Err is the context's error.
	Err error
}

// Scheduler runs jobs either sequentially (the baseline execution mode of
// prior work) or through the work-stealing pool (Algorithm 1 + DESIGN.md
// §16).
type Scheduler struct {
	// Workers sizes the unified work-stealing pool (≥1). 0 derives the
	// size from PrepWorkers+InferWorkers — the capacity the old dedicated
	// pools offered — or defaults to 4 (the paper's 2+2) when those are
	// unset too. Negative is invalid.
	Workers int
	// PrepWorkers and InferWorkers are the legacy §5 fixed-pool sizes,
	// kept as capacity inputs: stage kinds are scheduling priorities now,
	// not lanes, so the two only contribute to the pool size.
	PrepWorkers  int
	InferWorkers int
	// Pipelined selects the work-stealing engine; false degenerates to the
	// sequential mode that processes tables and stages one by one.
	Pipelined bool
}

// WorkerCount resolves the effective pool size per the Workers field's
// derivation rules.
func (s Scheduler) WorkerCount() int {
	if s.Workers != 0 {
		return s.Workers
	}
	if n := s.PrepWorkers + s.InferWorkers; n > 0 {
		return n
	}
	return 4
}

// Validate reports configuration errors.
func (s Scheduler) Validate() error {
	if !s.Pipelined {
		return nil
	}
	if s.Workers < 0 || s.PrepWorkers < 0 || s.InferWorkers < 0 || s.WorkerCount() < 1 {
		return fmt.Errorf("pipeline: pipelined mode needs a positive worker count, got workers=%d prep=%d infer=%d",
			s.Workers, s.PrepWorkers, s.InferWorkers)
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
	// Parks counts stages whose job left the deques to wait for a Ready
	// completion; a gate that had already fired does not count.
	Parks int64
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
	return runStealing(ctx, jobs, s.WorkerCount()), nil
}

// runSequential processes tables one by one, each stage in order — the
// execution mode of TURL/Doduo and of "Taste w/o pipelining".
func runSequential(ctx context.Context, jobs []*Job) {
	for _, j := range jobs {
		for _, st := range j.Stages {
			if ready := st.pending(); ready != nil {
				// One table at a time: there is nothing else to run
				// meanwhile, so the caller itself waits.
				select {
				case <-ready:
				case <-ctx.Done():
				}
			}
			if err := ctx.Err(); err != nil {
				j.Err = err
				break
			}
			if err := st.Run(ctx); err != nil {
				j.Err = fmt.Errorf("stage %s: %w", st.Name, err)
				break
			}
		}
	}
}
