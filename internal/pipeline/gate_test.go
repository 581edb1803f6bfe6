package pipeline

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

func nop(context.Context) error { return nil }

// gate returns a Ready func over ch.
func gate(ch <-chan struct{}) func() <-chan struct{} {
	return func() <-chan struct{} { return ch }
}

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

// TestParkedJobFreesTheWorker: with one worker, job A's second stage waits on
// a completion that fires only after job B has run all of its stages. A
// worker that slept on A's gate would never reach B; a parked A lets B
// finish first.
func TestParkedJobFreesTheWorker(t *testing.T) {
	open := make(chan struct{})
	var bDone atomic.Bool
	a := &Job{ID: "A", Stages: []Stage{
		{Kind: Prep, Name: "A/0", Run: nop},
		{Kind: Prep, Name: "A/1", Ready: gate(open), Run: func(context.Context) error {
			if !bDone.Load() {
				t.Error("A's gated stage ran before B finished")
			}
			return nil
		}},
	}}
	b := &Job{ID: "B", Stages: []Stage{
		{Kind: Prep, Name: "B/0", Run: nop},
		{Kind: Infer, Name: "B/1", Run: nop},
		{Kind: Prep, Name: "B/2", Run: func(context.Context) error {
			bDone.Store(true)
			close(open)
			return nil
		}},
	}}
	// Seeded [B, A]: the lone worker pops its deque LIFO, so A/0 runs first
	// and A is parked before B starts.
	stats, err := Scheduler{Pipelined: true, Workers: 1}.RunStats(context.Background(), []*Job{b, a})
	if err != nil {
		t.Fatal(err)
	}
	if a.Err != nil || b.Err != nil {
		t.Fatalf("errs: A=%v B=%v", a.Err, b.Err)
	}
	if stats.Parks != 1 {
		t.Fatalf("Parks = %d, want 1", stats.Parks)
	}
}

// TestAllJobsParkedIsNotADeadlock: every job parked on its first stage and
// no stage running is a legal state — the pool idles until a gate fires
// instead of tripping the deadlock guard.
func TestAllJobsParkedIsNotADeadlock(t *testing.T) {
	const jobsN = 6
	open := make(chan struct{})
	var ran atomic.Int32
	var jobs []*Job
	for i := 0; i < jobsN; i++ {
		jobs = append(jobs, &Job{ID: fmt.Sprintf("j%d", i), Stages: []Stage{
			{Kind: Prep, Ready: gate(open), Run: func(context.Context) error { ran.Add(1); return nil }},
			{Kind: Infer, Run: nop},
		}})
	}
	time.AfterFunc(30*time.Millisecond, func() { close(open) })
	stats, err := Scheduler{Pipelined: true, Workers: 3}.RunStats(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	if got := ran.Load(); got != jobsN {
		t.Fatalf("gated stages ran %d times, want %d", got, jobsN)
	}
	if stats.Parks != jobsN {
		t.Fatalf("Parks = %d, want %d", stats.Parks, jobsN)
	}
}

// TestFiredGateNeverParks: a completion that already fired — and a nil one —
// costs neither a park nor a goroutine, in either mode.
func TestFiredGateNeverParks(t *testing.T) {
	fired := make(chan struct{})
	close(fired)
	for _, sched := range []Scheduler{{}, {Pipelined: true, Workers: 2}} {
		var jobs []*Job
		for i := 0; i < 8; i++ {
			jobs = append(jobs, &Job{ID: fmt.Sprintf("j%d", i), Stages: []Stage{
				{Kind: Prep, Ready: gate(fired), Run: nop},
				{Kind: Infer, Ready: gate(nil), Run: nop},
			}})
		}
		stats, err := sched.RunStats(context.Background(), jobs)
		if err != nil {
			t.Fatal(err)
		}
		if stats.Parks != 0 {
			t.Fatalf("pipelined=%v: Parks = %d for gates that had already fired", sched.Pipelined, stats.Parks)
		}
		for _, j := range jobs {
			if j.Err != nil {
				t.Fatalf("job %s: %v", j.ID, j.Err)
			}
		}
	}
}

// TestSequentialHonoursGates: the sequential runner waits on a gate itself
// and gives up with the context.
func TestSequentialHonoursGates(t *testing.T) {
	open := make(chan struct{})
	time.AfterFunc(10*time.Millisecond, func() { close(open) })
	ok := &Job{ID: "ok", Stages: []Stage{{Kind: Prep, Ready: gate(open), Run: nop}}}
	if err := (Scheduler{}).Run(context.Background(), []*Job{ok}); err != nil || ok.Err != nil {
		t.Fatalf("run err=%v job err=%v", err, ok.Err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	stuck := &Job{ID: "stuck", Stages: []Stage{{Kind: Prep, Ready: gate(make(chan struct{})), Run: func(context.Context) error {
		t.Error("stage ran although its gate never fired")
		return nil
	}}}}
	if err := (Scheduler{}).Run(ctx, []*Job{stuck}); err != nil {
		t.Fatal(err)
	}
	if !errors.Is(stuck.Err, context.DeadlineExceeded) {
		t.Fatalf("stuck job err = %v, want DeadlineExceeded", stuck.Err)
	}
}

// TestCancelWhileParked: gates that never fire hold every job parked; a
// cancel must return RunStats promptly, mark the abandoned jobs with the
// context error, never run a gated stage, and leave no waiter behind.
func TestCancelWhileParked(t *testing.T) {
	before := runtime.NumGoroutine()
	never := make(chan struct{})
	var gatedRan atomic.Int32
	var jobs []*Job
	for i := 0; i < 10; i++ {
		jobs = append(jobs, &Job{ID: fmt.Sprintf("j%d", i), Stages: []Stage{
			{Kind: Prep, Run: nop},
			{Kind: Prep, Ready: gate(never), Run: func(context.Context) error { gatedRan.Add(1); return nil }},
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
		t.Fatal("RunStats did not return after cancel with every job parked")
	}
	for _, j := range jobs {
		if !errors.Is(j.Err, context.Canceled) {
			t.Fatalf("job %s: err = %v, want context.Canceled", j.ID, j.Err)
		}
	}
	if n := gatedRan.Load(); n != 0 {
		t.Fatalf("%d gated stages ran although their gate never fired", n)
	}
	waitGoroutines(t, before)
}

// TestStealHammerGated is TestStealHammer with a random third of the stages
// gated on completions that fire from timers (or had fired already): every
// stage still runs exactly once, after its predecessor and after its gate.
func TestStealHammerGated(t *testing.T) {
	before := runtime.NumGoroutine()
	rng := rand.New(rand.NewSource(11))
	for round := 0; round < 5; round++ {
		const jobsN = 60
		runs := make([][]atomic.Int32, jobsN)
		var jobs []*Job
		for i := 0; i < jobsN; i++ {
			stagesN := 1 + rng.Intn(6)
			runs[i] = make([]atomic.Int32, stagesN)
			j := &Job{ID: fmt.Sprintf("j%d", i)}
			for k := 0; k < stagesN; k++ {
				i, k := i, k
				st := Stage{Kind: StageKind(rng.Intn(2)), Name: fmt.Sprintf("j%d/%d", i, k)}
				var opened atomic.Bool
				if rng.Intn(3) == 0 {
					delay := time.Duration(rng.Intn(400)) * time.Microsecond
					// The completion is created when the stage becomes next,
					// like a read issued by the previous stage.
					st.Ready = func() <-chan struct{} {
						ch := make(chan struct{})
						fire := func() { opened.Store(true); close(ch) }
						if delay == 0 {
							fire()
						} else {
							time.AfterFunc(delay, fire)
						}
						return ch
					}
				} else {
					opened.Store(true)
				}
				st.Run = func(context.Context) error {
					if k > 0 && runs[i][k-1].Load() != 1 {
						t.Errorf("job %d stage %d started before stage %d finished", i, k, k-1)
					}
					if !opened.Load() {
						t.Errorf("job %d stage %d ran before its gate fired", i, k)
					}
					runs[i][k].Add(1)
					return nil
				}
				j.Stages = append(j.Stages, st)
			}
			jobs = append(jobs, j)
		}
		if err := (Scheduler{Pipelined: true, Workers: 8}).Run(context.Background(), jobs); err != nil {
			t.Fatal(err)
		}
		for i := range runs {
			for k := range runs[i] {
				if n := runs[i][k].Load(); n != 1 {
					t.Fatalf("round %d: job %d stage %d ran %d times, want exactly 1", round, i, k, n)
				}
			}
		}
	}
	waitGoroutines(t, before)
}
