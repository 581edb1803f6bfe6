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

// gomaxprocs sets GOMAXPROCS, and with it a pipelined Run's cap on Infer
// stages, to n for the rest of the test.
func gomaxprocs(t *testing.T, n int) {
	t.Helper()
	old := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(old) })
}

// runGuarded runs jobs pipelined under a context it cancels when the run has
// not returned within a few seconds, so a scheduler whose reads hold a token
// fails the test instead of hanging it. The stages must honour ctx.
func runGuarded(t *testing.T, jobs []*Job) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan struct{})
	go func() {
		Scheduler{Pipelined: true}.Run(ctx, jobs)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		cancel()
		<-done
		t.Fatal("run did not complete: a blocked read held the only token")
	}
	for _, j := range jobs {
		if j.Err != nil {
			t.Fatalf("job %s: %v", j.ID, j.Err)
		}
	}
}

// TestBlockedReadFreesTheWorker: under GOMAXPROCS 1 (one token), job A's
// read returns only after job B has run all of its Infer stages. A read
// holding the token would starve B; a read on a goroutine of its own lets B
// finish first.
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
	// Listed [B, A]: a scheduler that ran A's read holding the lone token
	// would block on it while B waits.
	gomaxprocs(t, 1)
	runGuarded(t, []*Job{b, a})
}

// TestReadsAreNotCappedByWorkers: eight reads that each wait for all eight
// to have started complete under GOMAXPROCS 1 — the cap holds Infer stages
// only.
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
	gomaxprocs(t, 1)
	runGuarded(t, jobs)
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
	done := make(chan struct{})
	go func() {
		Scheduler{Pipelined: true}.Run(ctx, jobs)
		close(done)
	}()
	select {
	case <-done:
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

// TestSchedulerHammer is the exactly-once battery: many jobs with mixed
// stage counts and kinds, the Prep stages of random delays, run repeatedly
// (and under -race in CI). Every stage runs exactly once and after its
// predecessor, Infer stages never run more than GOMAXPROCS at a time, and no
// job outlives the run.
func TestSchedulerHammer(t *testing.T) {
	const procs = 8
	gomaxprocs(t, procs)
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
		Scheduler{Pipelined: true}.Run(context.Background(), jobs)
		for i := range runs {
			for k := range runs[i] {
				if n := runs[i][k].Load(); n != 1 {
					t.Fatalf("round %d: job %d stage %d ran %d times, want exactly 1", round, i, k, n)
				}
			}
		}
		if maxInfers > procs {
			t.Fatalf("round %d: %d Infer stages ran at once under GOMAXPROCS %d", round, maxInfers, procs)
		}
	}
	waitGoroutines(t, before)
}

// TestInferStagesRunInReadyOrder: tokens go to Infer stages in the order they
// became runnable. Under GOMAXPROCS 1, A's first stage holds the token while
// six other jobs finish their reads, which start only once it runs, and
// queue their Infer stage b; A's last stage becomes runnable after all six,
// so it must run after every b — a LIFO pop would run it second.
func TestInferStagesRunInReadyOrder(t *testing.T) {
	const others = 6
	var mu sync.Mutex
	var order []string
	mark := func(id string) {
		mu.Lock()
		order = append(order, id)
		mu.Unlock()
	}
	a1Running := make(chan struct{})
	var reads sync.WaitGroup
	reads.Add(others)
	jobs := []*Job{{ID: "A", Stages: []Stage{
		{Kind: Infer, Name: "a1", Run: func(context.Context) error {
			close(a1Running)
			reads.Wait()
			time.Sleep(20 * time.Millisecond) // let every b reach the token
			return nil
		}},
		{Kind: Prep, Name: "a2", Run: nop},
		{Kind: Infer, Name: "a3", Run: func(context.Context) error { mark("a3"); return nil }},
	}}}
	for i := 0; i < others; i++ {
		id := fmt.Sprintf("b%d", i)
		jobs = append(jobs, &Job{ID: id, Stages: []Stage{
			{Kind: Prep, Name: "p", Run: func(context.Context) error {
				<-a1Running
				reads.Done()
				return nil
			}},
			{Kind: Infer, Name: "b", Run: func(context.Context) error {
				time.Sleep(time.Millisecond)
				mark(id)
				return nil
			}},
		}})
	}
	gomaxprocs(t, 1)
	runGuarded(t, jobs)
	if len(order) != others+1 || order[others] != "a3" {
		t.Fatalf("Infer stages ran %v, want a3 after every b", order)
	}
}

// TestCancelWhileWaitingForAWorker: under GOMAXPROCS 1, with the one token
// held by an Infer stage that blocks until the context dies, seven Infer stages wait for the
// token. A cancel must return promptly, run none of the seven, mark every
// job with the context error, and leave no goroutine behind.
func TestCancelWhileWaitingForAWorker(t *testing.T) {
	const waiting = 7
	gomaxprocs(t, 1)
	before := runtime.NumGoroutine()
	holding := make(chan struct{})
	var ran atomic.Int32
	jobs := []*Job{{ID: "holder", Stages: []Stage{{Kind: Infer, Name: "hold", Run: func(ctx context.Context) error {
		close(holding)
		<-ctx.Done()
		return ctx.Err()
	}}}}}
	for i := 0; i < waiting; i++ {
		jobs = append(jobs, &Job{ID: fmt.Sprintf("j%d", i), Stages: []Stage{
			{Kind: Prep, Name: "p", Run: func(context.Context) error { <-holding; return nil }},
			{Kind: Infer, Name: "i", Run: func(context.Context) error { ran.Add(1); return nil }},
		}})
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() {
		<-holding
		time.Sleep(20 * time.Millisecond) // let the seven queue for the token
		cancel()
	}()
	done := make(chan struct{})
	go func() {
		Scheduler{Pipelined: true}.Run(ctx, jobs)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Run did not return after a cancel with seven stages waiting for a token")
	}
	if n := ran.Load(); n != 0 {
		t.Fatalf("%d Infer stages ran after the cancel", n)
	}
	for _, j := range jobs {
		if !errors.Is(j.Err, context.Canceled) {
			t.Fatalf("job %s: err = %v, want context.Canceled", j.ID, j.Err)
		}
	}
	waitGoroutines(t, before)
}
