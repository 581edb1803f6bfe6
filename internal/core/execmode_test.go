package core

import "testing"

// TestExecModeWithDefaults pins the zero-value contract documented on
// ExecMode: 0 always means "use the default", negative always means
// "disable", and sequential modes pass through untouched.
func TestExecModeWithDefaults(t *testing.T) {
	opts := DefaultOptions() // CacheBytes 64 MiB → prefetch budget 16 MiB

	m := ExecMode{Pipelined: true}.withDefaults(opts)
	if m.Workers != 4 {
		t.Fatalf("default Workers = %d, want 4", m.Workers)
	}
	if m.PrefetchBytes != opts.CacheBytes/4 {
		t.Fatalf("default PrefetchBytes = %d, want %d", m.PrefetchBytes, opts.CacheBytes/4)
	}

	m = ExecMode{Pipelined: true, Workers: 2, PrefetchBytes: -1}.withDefaults(opts)
	if m.PrefetchBytes != 0 {
		t.Fatalf("negative PrefetchBytes must drop the byte brake: got %d", m.PrefetchBytes)
	}

	// Legacy per-kind pools derive the unified pool size.
	m = ExecMode{Pipelined: true, PrepWorkers: 2, InferWorkers: 3}.withDefaults(opts)
	if m.Workers != 5 {
		t.Fatalf("derived Workers = %d, want 5", m.Workers)
	}

	// A tiny cache still leaves a usable prefetch budget.
	small := opts
	small.CacheBytes = 100
	m = ExecMode{Pipelined: true}.withDefaults(small)
	if m.PrefetchBytes != 1<<20 {
		t.Fatalf("floored PrefetchBytes = %d, want %d", m.PrefetchBytes, 1<<20)
	}

	// Sequential modes are never touched.
	seq := ExecMode{PrefetchBytes: -5, Workers: 3}
	if got := seq.withDefaults(opts); got != seq {
		t.Fatalf("sequential mode mutated: %+v", got)
	}

	if am := AutoMode(); !am.Pipelined || am.Workers < 4 {
		t.Fatalf("AutoMode must be pipelined with ≥4 workers: %+v", am)
	}
}
