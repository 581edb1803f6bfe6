package pipeline

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// recordingJob builds a 4-stage job (prep, infer, prep, infer) that records
// stage start/end events.
type event struct {
	job   string
	stage int
	kind  StageKind
	what  string // "start" | "end"
}

type recorder struct {
	mu     sync.Mutex
	events []event
}

func (r *recorder) add(e event) {
	r.mu.Lock()
	r.events = append(r.events, e)
	r.mu.Unlock()
}

func makeJob(r *recorder, id string, d time.Duration) *Job {
	j := &Job{ID: id}
	for i := 0; i < 4; i++ {
		kind := Prep
		if i%2 == 1 {
			kind = Infer
		}
		i := i
		j.Stages = append(j.Stages, Stage{
			Kind: kind,
			Name: fmt.Sprintf("%s/%d", id, i),
			Run: func(context.Context) error {
				r.add(event{id, i, kind, "start"})
				time.Sleep(d)
				r.add(event{id, i, kind, "end"})
				return nil
			},
		})
	}
	return j
}

func TestSequentialRunsInOrder(t *testing.T) {
	r := &recorder{}
	jobs := []*Job{makeJob(r, "a", 0), makeJob(r, "b", 0)}
	s := Scheduler{Pipelined: false}
	s.Run(context.Background(), jobs)
	if len(r.events) != 16 {
		t.Fatalf("events = %d", len(r.events))
	}
	// Strict sequential order: a0..a3 then b0..b3.
	for i, e := range r.events {
		wantJob := "a"
		idx := i
		if i >= 8 {
			wantJob = "b"
			idx = i - 8
		}
		if e.job != wantJob || e.stage != idx/2 {
			t.Fatalf("event %d = %+v, want job %s stage %d", i, e, wantJob, idx/2)
		}
	}
}

func TestPipelinedPreservesPerJobOrder(t *testing.T) {
	r := &recorder{}
	var jobs []*Job
	for i := 0; i < 6; i++ {
		jobs = append(jobs, makeJob(r, fmt.Sprintf("j%d", i), time.Millisecond))
	}
	s := Scheduler{Pipelined: true}
	s.Run(context.Background(), jobs)
	// For each job, stage starts must be ordered and each stage must start
	// only after the previous ended.
	lastEnd := map[string]int{}
	for _, e := range r.events {
		if e.what == "start" {
			if e.stage != lastEnd[e.job] {
				t.Fatalf("job %s stage %d started before stage %d finished", e.job, e.stage, lastEnd[e.job])
			}
		} else {
			lastEnd[e.job] = e.stage + 1
		}
	}
	for _, j := range jobs {
		if j.Err != nil {
			t.Fatalf("job %s failed: %v", j.ID, j.Err)
		}
	}
}

func TestPipelinedOverlapsStages(t *testing.T) {
	r := &recorder{}
	var jobs []*Job
	for i := 0; i < 4; i++ {
		jobs = append(jobs, makeJob(r, fmt.Sprintf("j%d", i), 3*time.Millisecond))
	}
	s := Scheduler{Pipelined: true}
	s.Run(context.Background(), jobs)
	// Overlap check: some stage must start while a stage of another job is
	// still running.
	running := map[string]bool{}
	overlap := false
	for _, e := range r.events {
		if e.what == "start" {
			for other := range running {
				if other != e.job {
					overlap = true
				}
			}
			running[e.job] = true
		} else {
			delete(running, e.job)
		}
	}
	if !overlap {
		t.Fatal("pipelined execution never overlapped jobs")
	}
}

func TestPipelinedFasterThanSequential(t *testing.T) {
	mk := func() []*Job {
		r := &recorder{}
		var jobs []*Job
		for i := 0; i < 6; i++ {
			jobs = append(jobs, makeJob(r, fmt.Sprintf("j%d", i), 2*time.Millisecond))
		}
		return jobs
	}
	start := time.Now()
	Scheduler{Pipelined: false}.Run(context.Background(), mk())
	seq := time.Since(start)
	start = time.Now()
	Scheduler{Pipelined: true}.Run(context.Background(), mk())
	pipe := time.Since(start)
	if pipe >= seq {
		t.Fatalf("pipelined (%v) not faster than sequential (%v)", pipe, seq)
	}
}

// TestInferCapIsGOMAXPROCS: a pipelined Run lets exactly GOMAXPROCS Infer
// stages run at once — no more, and, with ten jobs ready, no fewer — while
// the reads before them take no token. Each stage holds until the n-th has
// started (or a second has passed), then a moment longer so a stage past the
// cap would start too.
func TestInferCapIsGOMAXPROCS(t *testing.T) {
	for _, n := range []int{1, 3} {
		t.Run(fmt.Sprintf("GOMAXPROCS=%d", n), func(t *testing.T) {
			gomaxprocs(t, n)
			var mu sync.Mutex
			active, high := 0, 0
			full := make(chan struct{})
			var once sync.Once
			var jobs []*Job
			for i := 0; i < 10; i++ {
				jobs = append(jobs, &Job{ID: fmt.Sprintf("j%d", i), Stages: []Stage{
					{Kind: Prep, Name: "p", Run: nop},
					{Kind: Infer, Name: "i", Run: func(context.Context) error {
						mu.Lock()
						active++
						high = max(high, active)
						if active == n {
							once.Do(func() { close(full) })
						}
						mu.Unlock()
						select {
						case <-full:
						case <-time.After(time.Second):
						}
						time.Sleep(2 * time.Millisecond)
						mu.Lock()
						active--
						mu.Unlock()
						return nil
					}},
				}})
			}
			Scheduler{Pipelined: true}.Run(context.Background(), jobs)
			if high != n {
				t.Fatalf("%d Infer stages ran at once, want GOMAXPROCS = %d", high, n)
			}
		})
	}
}

func TestFailedStageCancelsJobOnly(t *testing.T) {
	boom := errors.New("boom")
	ran := make(map[string]bool)
	var mu sync.Mutex
	mark := func(k string) func(context.Context) error {
		return func(context.Context) error {
			mu.Lock()
			ran[k] = true
			mu.Unlock()
			return nil
		}
	}
	bad := &Job{ID: "bad", Stages: []Stage{
		{Kind: Prep, Name: "bad/0", Run: func(context.Context) error { return boom }},
		{Kind: Infer, Name: "bad/1", Run: mark("bad/1")},
	}}
	good := &Job{ID: "good", Stages: []Stage{
		{Kind: Prep, Name: "good/0", Run: mark("good/0")},
		{Kind: Infer, Name: "good/1", Run: mark("good/1")},
	}}
	for _, pipelined := range []bool{false, true} {
		ran = map[string]bool{}
		bad.Err, good.Err = nil, nil
		s := Scheduler{Pipelined: pipelined}
		s.Run(context.Background(), []*Job{bad, good})
		if bad.Err == nil || !errors.Is(bad.Err, boom) {
			t.Fatalf("pipelined=%v: bad job error = %v", pipelined, bad.Err)
		}
		if ran["bad/1"] {
			t.Fatalf("pipelined=%v: failed job's later stages must not run", pipelined)
		}
		if !ran["good/0"] || !ran["good/1"] {
			t.Fatalf("pipelined=%v: other jobs must complete", pipelined)
		}
	}
}

// TestPanickingStageFailsItsJobOnly: in both modes a stage that panics ends
// its job with an error naming the stage, and the job's later stages never
// run. Every other job completes, the run returns (the panicking stage gave
// its token back), no goroutine outlives it, the panic is counted once, and
// the same Scheduler value runs a second batch.
func TestPanickingStageFailsItsJobOnly(t *testing.T) {
	for _, pipelined := range []bool{false, true} {
		t.Run(fmt.Sprintf("pipelined=%v", pipelined), func(t *testing.T) {
			var mu sync.Mutex
			ran := map[string]bool{}
			mark := func(k string) func(context.Context) error {
				return func(context.Context) error {
					mu.Lock()
					ran[k] = true
					mu.Unlock()
					return nil
				}
			}
			goodJobs := func(prefix string) []*Job {
				var jobs []*Job
				for i := 0; i < 6; i++ {
					id := fmt.Sprintf("%s%d", prefix, i)
					jobs = append(jobs, &Job{ID: id, Stages: []Stage{
						{Kind: Prep, Name: "prep", Run: mark(id + "/0")},
						{Kind: Infer, Name: "infer", Run: mark(id + "/1")},
						{Kind: Prep, Name: "late", Run: mark(id + "/2")},
					}})
				}
				return jobs
			}
			bad := &Job{ID: "bad", Stages: []Stage{
				{Kind: Prep, Name: "prep", Run: mark("bad/0")},
				{Kind: Infer, Name: "bad infer", Run: func(context.Context) error { panic("kaboom") }},
				{Kind: Prep, Name: "late", Run: mark("bad/2")},
			}}
			s := Scheduler{Pipelined: pipelined}
			before := runtime.NumGoroutine()
			panics := stagePanicsTotal.Value()

			jobs := append([]*Job{bad}, goodJobs("good")...)
			s.Run(context.Background(), jobs)
			if bad.Err == nil || !strings.Contains(bad.Err.Error(), "bad infer panic: kaboom") {
				t.Fatalf("panicking job err = %v, want the stage's panic", bad.Err)
			}
			if !ran["bad/0"] || ran["bad/2"] {
				t.Fatalf("panicking job: first stage ran %v, later stage ran %v", ran["bad/0"], ran["bad/2"])
			}
			if got := stagePanicsTotal.Value() - panics; got != 1 {
				t.Fatalf("taste_pipeline_stage_panics_total rose by %d, want 1", got)
			}

			again := goodJobs("again")
			s.Run(context.Background(), again)
			for _, j := range append(jobs[1:], again...) {
				if j.Err != nil {
					t.Fatalf("job %s: %v", j.ID, j.Err)
				}
				for k := range j.Stages {
					if !ran[fmt.Sprintf("%s/%d", j.ID, k)] {
						t.Fatalf("job %s stage %d never ran", j.ID, k)
					}
				}
			}
			deadline := time.Now().Add(time.Second)
			for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
				time.Sleep(5 * time.Millisecond)
			}
			if after := runtime.NumGoroutine(); after > before {
				t.Fatalf("goroutines leaked: before=%d after=%d", before, after)
			}
		})
	}
}

// TestValidate: no Scheduler value is invalid — there is no worker count to
// get wrong. The zero value of either mode runs every stage of its jobs.
func TestValidate(t *testing.T) {
	for _, s := range []Scheduler{{}, {Pipelined: true}} {
		var ran atomic.Int32
		j := &Job{ID: "j", Stages: []Stage{
			{Kind: Prep, Name: "p", Run: func(context.Context) error { ran.Add(1); return nil }},
			{Kind: Infer, Name: "i", Run: func(context.Context) error { ran.Add(1); return nil }},
		}}
		s.Run(context.Background(), []*Job{j})
		if j.Err != nil || ran.Load() != 2 {
			t.Fatalf("pipelined=%v: err = %v, %d of 2 stages ran", s.Pipelined, j.Err, ran.Load())
		}
	}
}

func TestEmptyJobList(t *testing.T) {
	Scheduler{Pipelined: true}.Run(context.Background(), nil)
}

func TestJobWithNoStages(t *testing.T) {
	j := &Job{ID: "empty"}
	Scheduler{Pipelined: true}.Run(context.Background(), []*Job{j})
	if j.Err != nil {
		t.Fatal(j.Err)
	}
}

func TestStageKindString(t *testing.T) {
	if Prep.String() != "prep" || Infer.String() != "infer" {
		t.Fatal("StageKind strings wrong")
	}
}

func TestManyJobsStress(t *testing.T) {
	var done int64
	var jobs []*Job
	for i := 0; i < 200; i++ {
		j := &Job{ID: fmt.Sprintf("j%d", i)}
		for k := 0; k < 4; k++ {
			kind := Prep
			if k%2 == 1 {
				kind = Infer
			}
			j.Stages = append(j.Stages, Stage{Kind: kind, Run: func(context.Context) error {
				atomic.AddInt64(&done, 1)
				return nil
			}})
		}
		jobs = append(jobs, j)
	}
	Scheduler{Pipelined: true}.Run(context.Background(), jobs)
	if done != 800 {
		t.Fatalf("ran %d stages, want 800", done)
	}
}
