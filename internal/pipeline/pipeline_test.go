package pipeline

import (
	"context"
	"errors"
	"fmt"
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
	if err := s.Run(context.Background(), jobs); err != nil {
		t.Fatal(err)
	}
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
	s := Scheduler{Pipelined: true, Workers: 4}
	if err := s.Run(context.Background(), jobs); err != nil {
		t.Fatal(err)
	}
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
	s := Scheduler{Pipelined: true, Workers: 4}
	if err := s.Run(context.Background(), jobs); err != nil {
		t.Fatal(err)
	}
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
	Scheduler{Pipelined: true, Workers: 4}.Run(context.Background(), mk())
	pipe := time.Since(start)
	if pipe >= seq {
		t.Fatalf("pipelined (%v) not faster than sequential (%v)", pipe, seq)
	}
}

func TestWorkersCapConcurrency(t *testing.T) {
	var active, maxActive int64
	var jobs []*Job
	for i := 0; i < 10; i++ {
		j := &Job{ID: fmt.Sprintf("j%d", i)}
		j.Stages = append(j.Stages, Stage{Kind: Prep, Name: "p", Run: func(context.Context) error {
			cur := atomic.AddInt64(&active, 1)
			for {
				old := atomic.LoadInt64(&maxActive)
				if cur <= old || atomic.CompareAndSwapInt64(&maxActive, old, cur) {
					break
				}
			}
			time.Sleep(time.Millisecond)
			atomic.AddInt64(&active, -1)
			return nil
		}})
		jobs = append(jobs, j)
	}
	Scheduler{Pipelined: true, Workers: 3}.Run(context.Background(), jobs)
	if m := atomic.LoadInt64(&maxActive); m > 3 {
		t.Fatalf("stage concurrency %d exceeded pool size 3", m)
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
		s := Scheduler{Pipelined: pipelined, Workers: 2}
		if err := s.Run(context.Background(), []*Job{bad, good}); err != nil {
			t.Fatal(err)
		}
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

func TestValidate(t *testing.T) {
	if err := (Scheduler{Pipelined: true, Workers: -1}).Run(context.Background(), nil); err == nil {
		t.Fatal("expected validation error for negative worker count")
	}
	if err := (Scheduler{Pipelined: true}).Run(context.Background(), nil); err == nil {
		t.Fatal("expected validation error for a pipelined scheduler with no workers")
	}
	if err := (Scheduler{Pipelined: false}).Run(context.Background(), nil); err != nil {
		t.Fatalf("sequential with no workers must be fine: %v", err)
	}
}

func TestEmptyJobList(t *testing.T) {
	if err := (Scheduler{Pipelined: true, Workers: 2}).Run(context.Background(), nil); err != nil {
		t.Fatal(err)
	}
}

func TestJobWithNoStages(t *testing.T) {
	j := &Job{ID: "empty"}
	if err := (Scheduler{Pipelined: true, Workers: 2}).Run(context.Background(), []*Job{j}); err != nil {
		t.Fatal(err)
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
	if err := (Scheduler{Pipelined: true, Workers: 8}).Run(context.Background(), jobs); err != nil {
		t.Fatal(err)
	}
	if done != 800 {
		t.Fatalf("ran %d stages, want 800", done)
	}
}

// TestSingleWorkerRunsDepthFirst pins the local deque discipline: a lone
// worker pops its own deque LIFO, so it drives the most recently runnable
// job to completion before touching older ones — the locality-first policy
// that keeps a job's latents hot across its stages. Three jobs of three
// infer stages each, seeded j0 j1 j2, must run j2 j2 j2 j1 j1 j1 j0 j0 j0.
func TestSingleWorkerRunsDepthFirst(t *testing.T) {
	const jobsN, stagesN = 3, 3
	var mu sync.Mutex
	var order []string
	var jobs []*Job
	for i := 0; i < jobsN; i++ {
		id := fmt.Sprintf("j%d", i)
		j := &Job{ID: id}
		for k := 0; k < stagesN; k++ {
			j.Stages = append(j.Stages, Stage{Kind: Infer, Name: fmt.Sprintf("%s/%d", id, k), Run: func(context.Context) error {
				mu.Lock()
				order = append(order, id)
				mu.Unlock()
				return nil
			}})
		}
		jobs = append(jobs, j)
	}
	// One worker makes the schedule deterministic.
	if err := (Scheduler{Pipelined: true, Workers: 1}).Run(context.Background(), jobs); err != nil {
		t.Fatal(err)
	}
	want := []string{"j2", "j2", "j2", "j1", "j1", "j1", "j0", "j0", "j0"}
	if len(order) != len(want) {
		t.Fatalf("ran %d stages, want %d", len(order), len(want))
	}
	for i, id := range order {
		if id != want[i] {
			t.Fatalf("schedule %v: position %d is %s, want %s (not depth-first LIFO)", order, i, id, want[i])
		}
	}
}
