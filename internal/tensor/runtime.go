// Parallel compute runtime: a package-level worker pool that row-shards the
// matmul kernels across goroutines, plus a sync.Pool-backed buffer arena that
// recycles the forward/grad slices of autograd graphs between steps.
//
// The pool is sized from GOMAXPROCS and shared by every tensor operation in
// the process, so concurrent inference workers (the pipeline's TP2 pool)
// cooperatively saturate the machine instead of oversubscribing it: a shard
// that cannot be handed to the pool immediately runs on the submitting
// goroutine. Kernels fall back to a plain sequential loop below a work
// threshold so small repro-scale matrices pay no synchronization cost.
package tensor

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// ---------------------------------------------------------------------------
// Worker pool
// ---------------------------------------------------------------------------

var (
	parWorkers atomic.Int32 // desired shard count for parallel kernels

	poolMu      sync.Mutex
	poolSpawned int
	poolTasks   = make(chan func(), 256)
)

func init() {
	parWorkers.Store(int32(DefaultParallelism()))
	arenaEnabled.Store(true)
}

// DefaultParallelism is the GOMAXPROCS-derived worker count the runtime
// starts with.
func DefaultParallelism() int { return runtime.GOMAXPROCS(0) }

// SetParallelism sets how many goroutines the sharded kernels may use.
// n ≤ 1 forces every kernel onto the calling goroutine (the sequential
// reference behavior). Safe to call at any time, including concurrently
// with running kernels: in-flight kernels finish with the old setting.
func SetParallelism(n int) {
	if n < 1 {
		n = 1
	}
	parWorkers.Store(int32(n))
}

// Parallelism returns the current worker setting.
func Parallelism() int { return int(parWorkers.Load()) }

// ensureWorkers lazily grows the shared pool to n resident goroutines.
func ensureWorkers(n int) {
	if poolSpawned >= n { // racy fast path; poolMu settles the truth below
		return
	}
	poolMu.Lock()
	for poolSpawned < n {
		poolSpawned++
		go func() {
			for task := range poolTasks {
				task()
			}
		}()
	}
	poolMu.Unlock()
}

const (
	// parallelMulAdds is the total kernel cost (scalar multiply-adds) below
	// which sharding overhead outweighs the win; a 64×64×64 matmul and
	// anything smaller stays on the calling goroutine.
	parallelMulAdds = 1 << 19
	// shardMinMulAdds bounds how finely a kernel is sliced.
	shardMinMulAdds = 1 << 17
)

// mulRowCost is parallelRows' per-row cost of a k×n product through
// mulRowRange. The thresholds above are in scalar multiply-adds; the AVX2
// row kernel retires four per instruction (measured 3.7× on the repro
// shapes), so the same work is a quarter of the cost and the hand-off to
// the pool has to be paid for by four times as much of it. The AVX-512 row
// kernel, K-blocked, runs BenchmarkLinearInto's repro shapes 1.9–2.9× as
// fast as the AVX2 one (2.8–3.0× at the paper's), so it is charged an
// eighth. On scan_cpu that keeps the content forwards' feed-forward
// products (266–315 rows) on their worker, which under the quarter sharded
// 256 of the 40–50 thousand LinearInto calls of a 20 s run (DESIGN.md §8).
func mulRowCost(k, n int) int {
	switch {
	case haveAVX512:
		return k*n/8 + 1
	case haveAVX2:
		return k*n/4 + 1
	}
	return k * n
}

// parallelRows splits [0, rows) into contiguous shards and runs body over
// them on the worker pool, keeping the last shard on the calling goroutine.
// mulAddsPerRow is the per-row cost estimate driving the sequential
// fallback. body must be safe to run concurrently on disjoint row ranges.
func parallelRows(rows, mulAddsPerRow int, body func(lo, hi int)) {
	w := Parallelism()
	// Sharding beyond the cores that can actually run is pure overhead:
	// with GOMAXPROCS=1 every "parallel" shard still executes serially but
	// pays the pool hand-off and WaitGroup costs (on a 1-CPU container a
	// four-shard 256×256 matmul once ran 11.1 ms against 8.1 ms for one
	// shard). Cap the effective shard count at the scheduler's limit.
	if procs := runtime.GOMAXPROCS(0); w > procs {
		w = procs
	}
	total := rows * mulAddsPerRow
	if w <= 1 || rows < 2 || total < parallelMulAdds {
		body(0, rows)
		return
	}
	shards := total / shardMinMulAdds
	if shards > w {
		shards = w
	}
	if shards > rows {
		shards = rows
	}
	if shards <= 1 {
		body(0, rows)
		return
	}
	ensureWorkers(w)
	var wg sync.WaitGroup
	chunk := (rows + shards - 1) / shards
	for lo := 0; lo < rows; lo += chunk {
		hi := lo + chunk
		if hi >= rows {
			body(lo, rows) // last shard runs on the caller
			break
		}
		wg.Add(1)
		lo, hi := lo, hi
		task := func() {
			defer wg.Done()
			body(lo, hi)
		}
		select {
		case poolTasks <- task:
		default:
			task() // pool saturated: degrade gracefully instead of queueing
		}
	}
	wg.Wait()
}

// ---------------------------------------------------------------------------
// Buffer arena
// ---------------------------------------------------------------------------

const (
	arenaMinClass = 6  // smallest pooled buffer: 64 floats (512 B)
	arenaMaxClass = 26 // largest pooled buffer: 64 Mi floats (512 MiB)
)

var (
	arenaEnabled atomic.Bool
	arenaPools   [arenaMaxClass + 1]sync.Pool // class c holds *[]float64 with cap 1<<c
)

// SetArena toggles pooled allocation of op-output buffers. When enabled
// (the default), result tensors draw their Data/Grad slices from a
// sync.Pool arena and ReleaseGraph returns them after a training step or
// inference pass, cutting allocation and GC pressure on the hot loops.
func SetArena(on bool) { arenaEnabled.Store(on) }

// ArenaEnabled reports whether op outputs are drawn from the arena.
func ArenaEnabled() bool { return arenaEnabled.Load() }

// sizeClass returns the smallest c with 1<<c ≥ n.
func sizeClass(n int) int {
	c := arenaMinClass
	for 1<<c < n {
		c++
	}
	return c
}

// allocData returns a zeroed slice of length n, drawn from the arena when
// enabled and the size is in the pooled range. The second result reports
// whether the slice must be returned with freeData.
func allocData(n int) ([]float64, bool) {
	if n < 1<<arenaMinClass || n > 1<<arenaMaxClass || !arenaEnabled.Load() {
		return make([]float64, n), false
	}
	c := sizeClass(n)
	if p, _ := arenaPools[c].Get().(*[]float64); p != nil {
		s := (*p)[:n]
		for i := range s {
			s[i] = 0
		}
		return s, true
	}
	return make([]float64, n, 1<<c), true
}

// freeData returns an allocData slice to its size-class pool.
func freeData(s []float64) {
	c := cap(s)
	if c < 1<<arenaMinClass || c&(c-1) != 0 {
		return
	}
	full := s[:c]
	arenaPools[sizeClass(c)].Put(&full)
}

// ReleaseGraph frees every op-output tensor reachable from root through the
// recorded parent links, returning arena-backed Data and Grad buffers to
// the pool and nil-ing the freed tensors so accidental reuse fails loudly.
// Leaves — parameters, input tensors, detached/cached tensors — are never
// touched, which makes the call safe after a training step (parameter data
// and gradients survive) and after an inference pass whose outputs have
// been copied out. The root itself is freed; consume its value first.
func ReleaseGraph(root *Tensor) {
	visited := map[*Tensor]bool{root: true}
	stack := []*Tensor{root}
	var nodes []*Tensor
	for len(stack) > 0 {
		t := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if t.parents == nil {
			continue // leaf: parameters, inputs, detached views
		}
		nodes = append(nodes, t)
		for _, p := range t.parents {
			if !visited[p] {
				visited[p] = true
				stack = append(stack, p)
			}
		}
	}
	for _, t := range nodes {
		if t.pooled {
			freeData(t.Data)
		}
		if t.gradPooled && t.Grad != nil {
			freeData(t.Grad)
		}
		t.Data, t.Grad = nil, nil
		t.parents, t.backward = nil, nil
		t.pooled, t.gradPooled = false, false
	}
}
