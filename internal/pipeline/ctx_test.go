package pipeline

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// blockingJobs builds n jobs whose stages block until their context dies,
// counting how many stage invocations ever started.
func blockingJobs(n int, started *atomic.Int64) []*Job {
	jobs := make([]*Job, n)
	for i := range jobs {
		j := &Job{ID: fmt.Sprintf("job%d", i)}
		for k, kind := range []StageKind{Prep, Infer, Prep, Infer} {
			j.Stages = append(j.Stages, Stage{Kind: kind, Name: fmt.Sprintf("s%d", k), Run: func(ctx context.Context) error {
				started.Add(1)
				<-ctx.Done()
				return ctx.Err()
			}})
		}
		jobs[i] = j
	}
	return jobs
}

func TestSequentialCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var started atomic.Int64
	jobs := blockingJobs(4, &started)
	time.AfterFunc(20*time.Millisecond, cancel)
	if err := (Scheduler{}).Run(ctx, jobs); err != nil {
		t.Fatal(err)
	}
	for _, j := range jobs {
		if !errors.Is(j.Err, context.Canceled) {
			t.Fatalf("job %s: err = %v, want context.Canceled", j.ID, j.Err)
		}
	}
	// Sequential mode runs one stage at a time; only the first ever started.
	if got := started.Load(); got != 1 {
		t.Fatalf("stages started = %d, want 1", got)
	}
}

func TestPipelinedCancellationDrainsWithoutLeaks(t *testing.T) {
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	var started atomic.Int64
	jobs := blockingJobs(8, &started)
	time.AfterFunc(20*time.Millisecond, cancel)
	if err := (Scheduler{Pipelined: true, PrepWorkers: 2, InferWorkers: 2}).Run(ctx, jobs); err != nil {
		t.Fatal(err)
	}
	for _, j := range jobs {
		if !errors.Is(j.Err, context.Canceled) {
			t.Fatalf("job %s: err = %v, want context.Canceled", j.ID, j.Err)
		}
	}
	// Run is a barrier: every dispatched stage returned before it did. Give
	// the runtime a moment to reap worker goroutines, then compare.
	waitGoroutines(t, before)
}

func TestPipelinedDeadlineMarksUnfinishedJobs(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	var started atomic.Int64
	jobs := blockingJobs(4, &started)
	if err := (Scheduler{Pipelined: true, PrepWorkers: 1, InferWorkers: 1}).Run(ctx, jobs); err != nil {
		t.Fatal(err)
	}
	for _, j := range jobs {
		if !errors.Is(j.Err, context.DeadlineExceeded) {
			t.Fatalf("job %s: err = %v, want DeadlineExceeded", j.ID, j.Err)
		}
	}
}

// TestPreCancelledContextRunsNothing: with the context dead before Run,
// no stage may start in either mode and every job carries the ctx error.
func TestPreCancelledContextRunsNothing(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, sched := range []Scheduler{{}, {Pipelined: true, PrepWorkers: 2, InferWorkers: 2}} {
		var started atomic.Int64
		jobs := blockingJobs(3, &started)
		if err := sched.Run(ctx, jobs); err != nil {
			t.Fatal(err)
		}
		if got := started.Load(); got != 0 {
			t.Fatalf("pipelined=%v: %d stages started on dead context", sched.Pipelined, got)
		}
		for _, j := range jobs {
			if !errors.Is(j.Err, context.Canceled) {
				t.Fatalf("pipelined=%v job %s: err = %v", sched.Pipelined, j.ID, j.Err)
			}
		}
	}
}

// TestCancellationDoesNotOverwriteStageErrors: a job that already failed
// with a real error keeps it; only unfinished clean jobs get the ctx error.
func TestCancellationDoesNotOverwriteStageErrors(t *testing.T) {
	boom := errors.New("boom")
	ctx, cancel := context.WithCancel(context.Background())
	badDone := make(chan struct{})
	bad := &Job{ID: "bad", Stages: []Stage{{Kind: Prep, Name: "p", Run: func(context.Context) error {
		close(badDone)
		return boom
	}}}}
	slow := &Job{ID: "slow", Stages: []Stage{{Kind: Prep, Name: "p", Run: func(ctx context.Context) error {
		<-badDone // the bad job has failed by the time the cancel fires
		cancel()
		<-ctx.Done()
		return ctx.Err()
	}}}}
	if err := (Scheduler{Pipelined: true, PrepWorkers: 1, InferWorkers: 1}).Run(ctx, []*Job{bad, slow}); err != nil {
		t.Fatal(err)
	}
	if !errors.Is(bad.Err, boom) {
		t.Fatalf("bad job err = %v, want boom", bad.Err)
	}
	if !errors.Is(slow.Err, context.Canceled) {
		t.Fatalf("slow job err = %v, want Canceled", slow.Err)
	}
}

// TestCompletedJobsSurviveLateCancellation: jobs that finished before the
// cancellation keep a nil error.
func TestCompletedJobsSurviveLateCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	fastDone := make(chan struct{})
	fast := &Job{ID: "fast", Stages: []Stage{{Kind: Prep, Name: "p", Run: func(context.Context) error {
		close(fastDone)
		return nil
	}}}}
	slow := &Job{ID: "slow", Stages: []Stage{{Kind: Infer, Name: "i", Run: func(ctx context.Context) error {
		<-fastDone
		cancel()
		<-ctx.Done()
		return ctx.Err()
	}}}}
	if err := (Scheduler{Pipelined: true, PrepWorkers: 1, InferWorkers: 1}).Run(ctx, []*Job{fast, slow}); err != nil {
		t.Fatal(err)
	}
	if fast.Err != nil {
		t.Fatalf("fast job err = %v, want nil", fast.Err)
	}
	if !errors.Is(slow.Err, context.Canceled) {
		t.Fatalf("slow job err = %v", slow.Err)
	}
}
