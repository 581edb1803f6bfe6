package core

import (
	"runtime"
	"testing"
)

// TestExecModeOneRule pins the single worker knob: Workers 0 resolves to one
// worker per CPU (floor 4), PipelinedMode is the paper's 2+2, the deprecated
// per-kind fields are ignored, and the prefetch brake is a quarter of the
// latent cache budget, floored at 1 MiB.
func TestExecModeOneRule(t *testing.T) {
	want := max(runtime.GOMAXPROCS(0), 4)
	if got := (ExecMode{Pipelined: true}).withDefaults().Workers; got != want {
		t.Fatalf("Workers 0 resolved to %d, want max(GOMAXPROCS, 4) = %d", got, want)
	}
	if got := AutoMode(); got != (ExecMode{Pipelined: true, Workers: want}) {
		t.Fatalf("AutoMode() = %+v, want the resolved ExecMode{Pipelined: true}", got)
	}
	if got := PipelinedMode(); got != (ExecMode{Pipelined: true, Workers: 4}) {
		t.Fatalf("PipelinedMode() = %+v, want 4 workers", got)
	}
	legacy := ExecMode{Pipelined: true, PrepWorkers: 2, InferWorkers: 3}.withDefaults()
	if legacy.Workers != want {
		t.Fatalf("deprecated per-kind fields changed the pool: %d workers, want %d", legacy.Workers, want)
	}
	if got := (ExecMode{Pipelined: true, Workers: 3}).withDefaults().Workers; got != 3 {
		t.Fatalf("explicit Workers 3 resolved to %d", got)
	}
	if got := SequentialMode.withDefaults(); got != SequentialMode {
		t.Fatalf("sequential mode mutated: %+v", got)
	}

	opts := DefaultOptions() // CacheBytes 64 MiB → brake 16 MiB
	if got := prefetchBudget(opts); got != opts.CacheBytes/4 {
		t.Fatalf("prefetch brake = %d, want %d", got, opts.CacheBytes/4)
	}
	opts.CacheBytes = 100
	if got := prefetchBudget(opts); got != 1<<20 {
		t.Fatalf("floored prefetch brake = %d, want %d", got, 1<<20)
	}
}
