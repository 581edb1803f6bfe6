// Package pipeline implements the pipelined execution of §5
// (Algorithm 1): each table contributes an ordered list of stages
// alternating between data preparation (reads) and inference (compute).
// Each table's stages run in order on a goroutine of its own, so a read
// starts the moment its table is ready for it, and at most GOMAXPROCS
// inference stages run at once: one table's inference overlaps another's
// data fetch (DESIGN.md §16).
//
// Both modes propagate a context.Context into every stage and stop running
// a job's stages once it is cancelled, so a per-request deadline genuinely
// cancels in-flight detection work instead of letting it run to completion.
package pipeline

import (
	"context"
	"fmt"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// waitStages is how many leading stage positions get a resolved histogram
// handle; a job with more stages (Taste's have four) looks the rest up in
// the registry on each call.
const waitStages = 8

// queueWaitHists[stage] holds the wait-histogram handles, resolved on first
// use (so a series still appears in /metrics only once it has been observed)
// and then read without a registry lookup.
var queueWaitHists [waitStages]atomic.Pointer[obs.Histogram]

// queueWait records how long an Infer stage waited for a token: the
// scheduler-added latency the paper's §5 pipelining analysis cares about. A
// Prep stage takes no token and never waits. Stages are labeled by position
// (s1..s4 for Taste's four-stage jobs) so the histogram lines up with the
// per-stage duration series in core.
func queueWait(stageIdx int, d time.Duration) {
	lookup := func() *obs.Histogram {
		return obs.Default.LatencyHistogram("taste_pipeline_queue_wait_seconds",
			"stage", "s"+strconv.Itoa(stageIdx+1), "kind", Infer.String())
	}
	if stageIdx >= waitStages {
		lookup().ObserveDuration(d)
		return
	}
	slot := &queueWaitHists[stageIdx]
	h := slot.Load()
	if h == nil {
		// Racing first uses store the same registry-owned histogram.
		h = lookup()
		slot.Store(h)
	}
	h.ObserveDuration(d)
}

// StageKind distinguishes the two resources of §5: a Prep stage runs the
// moment its job reaches it, an Infer stage first takes one of the
// scheduler's GOMAXPROCS tokens.
type StageKind int

const (
	// Prep stages wait on storage (thread pool TP1 in the paper). They take
	// no token and nothing caps them.
	Prep StageKind = iota
	// Infer stages consume compute — the GPU in the paper, one of
	// GOMAXPROCS tokens here (TP2).
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
// prior work) or pipelined, each job on a goroutine of its own (Algorithm 1
// + DESIGN.md §16). Both modes run a job through the same stage loop.
type Scheduler struct {
	// Deprecated: ignored; kept so bench/ compiles. The Infer stages of a
	// pipelined Run are capped at GOMAXPROCS.
	Workers int
	// Pipelined runs every job on a goroutine of its own; false degenerates
	// to the sequential mode that processes tables and stages one by one.
	Pipelined bool
}

// Stats is empty.
//
// Deprecated: the scheduler keeps no statistics; kept so bench/ compiles.
type Stats struct{}

// Run executes all jobs under ctx and returns after every job finishes,
// fails, or is cancelled. A nil ctx means context.Background(). Run never
// leaks goroutines: it waits for in-flight stages even after cancellation.
// A pipelined Run caps its Infer stages at runtime.GOMAXPROCS(0), read once
// per call: TP2 stands in for the paper's GPU, a property of the host.
func (s Scheduler) Run(ctx context.Context, jobs []*Job) {
	if ctx == nil {
		ctx = context.Background()
	}
	if !s.Pipelined {
		for _, j := range jobs {
			runJob(ctx, j, nil)
		}
		return
	}
	tokens := make(chan struct{}, runtime.GOMAXPROCS(0))
	var wg sync.WaitGroup
	for _, j := range jobs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			runJob(ctx, j, tokens)
		}()
	}
	wg.Wait()
}

// RunStats is Run.
//
// Deprecated: use Run; kept so bench/ compiles. Stats is always empty.
func (s Scheduler) RunStats(ctx context.Context, jobs []*Job) (Stats, error) {
	s.Run(ctx, jobs)
	return Stats{}, nil
}

// runJob is the one stage loop of both modes: it runs j's stages in order
// and stops at the first error or once ctx is dead, leaving that error in
// j.Err. With tokens non-nil an Infer stage first takes a token — a send on
// the channel, whose capacity is the cap — and gives it back when the stage
// returns; a Prep stage takes none.
//
// Tokens go to waiting stages in the order they began to wait. The Go spec
// does not promise that; it holds because the runtime queues blocked senders
// FIFO and a receive from a full channel admits the oldest one.
// TestInferStagesRunInReadyOrder pins it.
func runJob(ctx context.Context, j *Job, tokens chan struct{}) {
	for i, st := range j.Stages {
		if err := ctx.Err(); err != nil {
			j.Err = err
			return
		}
		token := tokens != nil && st.Kind == Infer
		if token {
			ready := time.Now()
			select {
			case tokens <- struct{}{}:
			case <-ctx.Done():
				j.Err = ctx.Err()
				return
			}
			queueWait(i, time.Since(ready))
			// Both select cases may have been ready: a token taken after the
			// cancel must not start the stage.
			if err := ctx.Err(); err != nil {
				<-tokens
				j.Err = err
				return
			}
		}
		err := runStage(ctx, st)
		if token {
			<-tokens
		}
		if err != nil {
			j.Err = err
			return
		}
	}
}

// stagePanicsTotal counts stage panics runStage recovered.
var stagePanicsTotal = obs.Default.Counter("taste_pipeline_stage_panics_total")

// runStage runs one stage and is the one place a stage panic is recovered:
// the panic becomes the stage's error, so its job stops like any failed job
// while every other job runs on.
func runStage(ctx context.Context, st Stage) (err error) {
	defer func() {
		if r := recover(); r != nil {
			stagePanicsTotal.Inc()
			err = fmt.Errorf("%s panic: %v", st.Name, r)
		}
	}()
	return st.Run(ctx)
}
