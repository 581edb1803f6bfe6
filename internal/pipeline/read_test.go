package pipeline

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func nop(context.Context) error { return nil }

// waitGoroutines fails the test when the goroutine count does not return to
// (about) its baseline.
func waitGoroutines(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before+2 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before+2 {
		t.Fatalf("goroutines leaked: before=%d after=%d", before, after)
	}
}

// runGuarded runs jobs under a context it cancels when the run has not
// returned within a few seconds, so a scheduler that holds a read on a
// worker fails the test instead of hanging it. The stages must honour ctx.
func runGuarded(t *testing.T, s Scheduler, jobs []*Job) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- s.Run(ctx, jobs) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		cancel()
		<-done
		t.Fatal("run did not complete: a blocked read held the only worker")
	}
	for _, j := range jobs {
		if j.Err != nil {
			t.Fatalf("job %s: %v", j.ID, j.Err)
		}
	}
}

// TestBlockedReadFreesTheWorker: with one worker, job A's read returns only
// after job B has run all of its Infer stages. A read on the worker would
// starve B; a read on a goroutine of its own lets B finish first.
func TestBlockedReadFreesTheWorker(t *testing.T) {
	bDone := make(chan struct{})
	a := &Job{ID: "A", Stages: []Stage{
		{Kind: Prep, Name: "A/0", Run: func(ctx context.Context) error {
			select {
			case <-bDone:
				return nil
			case <-ctx.Done():
				return ctx.Err()
			}
		}},
		{Kind: Infer, Name: "A/1", Run: nop},
	}}
	b := &Job{ID: "B", Stages: []Stage{
		{Kind: Prep, Name: "B/0", Run: nop},
		{Kind: Infer, Name: "B/1", Run: nop},
		{Kind: Infer, Name: "B/2", Run: func(context.Context) error {
			close(bDone)
			return nil
		}},
	}}
	// Seeded [B, A]: an engine that queued reads on the lone worker's deque
	// would pop A's read first (LIFO) and block on it.
	runGuarded(t, Scheduler{Pipelined: true, Workers: 1}, []*Job{b, a})
}

// TestReadsAreNotCappedByWorkers: eight reads that each wait for all eight
// to have started complete on a pool of one worker — Workers caps Infer
// stages only.
func TestReadsAreNotCappedByWorkers(t *testing.T) {
	const jobsN = 8
	var arrived atomic.Int32
	all := make(chan struct{})
	var jobs []*Job
	for i := 0; i < jobsN; i++ {
		jobs = append(jobs, &Job{ID: fmt.Sprintf("j%d", i), Stages: []Stage{
			{Kind: Prep, Name: "read", Run: func(ctx context.Context) error {
				if arrived.Add(1) == jobsN {
					close(all)
				}
				select {
				case <-all:
					return nil
				case <-ctx.Done():
					return ctx.Err()
				}
			}},
			{Kind: Infer, Name: "infer", Run: nop},
		}})
	}
	runGuarded(t, Scheduler{Pipelined: true, Workers: 1}, jobs)
}

// TestCancelWhileReading: reads that block until the context dies hold
// every job; a cancel must return promptly, mark each unfinished job with
// the context error, never run a later stage, and leave no goroutine behind.
func TestCancelWhileReading(t *testing.T) {
	before := runtime.NumGoroutine()
	var laterRan atomic.Int32
	var jobs []*Job
	for i := 0; i < 10; i++ {
		jobs = append(jobs, &Job{ID: fmt.Sprintf("j%d", i), Stages: []Stage{
			{Kind: Infer, Run: nop},
			{Kind: Prep, Run: func(ctx context.Context) error {
				<-ctx.Done()
				return ctx.Err()
			}},
			{Kind: Infer, Run: func(context.Context) error { laterRan.Add(1); return nil }},
		}})
	}
	ctx, cancel := context.WithCancel(context.Background())
	time.AfterFunc(20*time.Millisecond, cancel)
	done := make(chan error, 1)
	go func() { done <- Scheduler{Pipelined: true, Workers: 4}.Run(ctx, jobs) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Run did not return after a cancel with every job reading")
	}
	for _, j := range jobs {
		if !errors.Is(j.Err, context.Canceled) {
			t.Fatalf("job %s: err = %v, want context.Canceled", j.ID, j.Err)
		}
	}
	if n := laterRan.Load(); n != 0 {
		t.Fatalf("%d stages after a cancelled read ran", n)
	}
	waitGoroutines(t, before)
}

// TestStealHammerGated is TestStealHammer with reads in the mix: every job
// is gated by Prep stages of random delays, which run off the pool. Every
// stage still runs exactly once and after its predecessor, Infer stages
// never run more than Workers at a time, and no read outlives the run.
func TestStealHammerGated(t *testing.T) {
	const workers = 8
	before := runtime.NumGoroutine()
	rng := rand.New(rand.NewSource(11))
	for round := 0; round < 5; round++ {
		const jobsN = 60
		var mu sync.Mutex
		infers, maxInfers := 0, 0
		runs := make([][]atomic.Int32, jobsN)
		var jobs []*Job
		for i := 0; i < jobsN; i++ {
			stagesN := 1 + rng.Intn(6)
			runs[i] = make([]atomic.Int32, stagesN)
			j := &Job{ID: fmt.Sprintf("j%d", i)}
			for k := 0; k < stagesN; k++ {
				i, k := i, k
				kind := StageKind(rng.Intn(2))
				delay := time.Duration(rng.Intn(400)) * time.Microsecond
				j.Stages = append(j.Stages, Stage{Kind: kind, Name: fmt.Sprintf("j%d/%d", i, k), Run: func(context.Context) error {
					if k > 0 && runs[i][k-1].Load() != 1 {
						t.Errorf("job %d stage %d started before stage %d finished", i, k, k-1)
					}
					if kind == Prep {
						time.Sleep(delay)
					} else {
						mu.Lock()
						infers++
						maxInfers = max(maxInfers, infers)
						mu.Unlock()
						defer func() {
							mu.Lock()
							infers--
							mu.Unlock()
						}()
					}
					runs[i][k].Add(1)
					return nil
				}})
			}
			jobs = append(jobs, j)
		}
		if err := (Scheduler{Pipelined: true, Workers: workers}).Run(context.Background(), jobs); err != nil {
			t.Fatal(err)
		}
		for i := range runs {
			for k := range runs[i] {
				if n := runs[i][k].Load(); n != 1 {
					t.Fatalf("round %d: job %d stage %d ran %d times, want exactly 1", round, i, k, n)
				}
			}
		}
		if maxInfers > workers {
			t.Fatalf("round %d: %d Infer stages ran at once on %d workers", round, maxInfers, workers)
		}
	}
	waitGoroutines(t, before)
}
