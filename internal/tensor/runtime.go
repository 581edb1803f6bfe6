// Parallel compute runtime: row-sharded kernels that borrow free cores, plus
// a sync.Pool-backed buffer arena that recycles the forward/grad slices of
// autograd graphs between steps.
//
// A kernel above a work threshold splits its output rows into shards, up to
// GOMAXPROCS of them. A shard runs on a new goroutine only while a core is
// free: one process-wide counter caps the borrowed shard goroutines at
// GOMAXPROCS−1, so at most callers + GOMAXPROCS−1 goroutines run tensor work
// at once. A shard that finds no free core runs on its caller, as the last
// shard always does, so no caller waits behind another caller's shards and
// no goroutine outlives its kernel. Below the threshold a kernel is a plain
// sequential loop, so small repro-scale matrices pay no synchronization
// cost.
package tensor

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// ---------------------------------------------------------------------------
// Row sharding
// ---------------------------------------------------------------------------

// borrowed counts the shard goroutines parallelRows has running, across the
// whole process.
var borrowed atomic.Int32

// borrow takes one of limit shard-goroutine slots, reporting false when all
// are in use.
func borrow(limit int32) bool {
	for {
		n := borrowed.Load()
		if n >= limit {
			return false
		}
		if borrowed.CompareAndSwap(n, n+1) {
			return true
		}
	}
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
// another goroutine has to be paid for by four times as much of it. The
// AVX-512 row kernel, K-blocked, runs BenchmarkLinearInto's repro shapes
// 1.9–2.9× as fast as the AVX2 one (2.8–3.0× at the paper's), so it is
// charged an eighth. On scan_cpu that keeps the content forwards'
// feed-forward products (266–315 rows) on their worker, which under the
// quarter sharded 256 of the 40–50 thousand LinearInto calls of a 20 s run
// (DESIGN.md §8).
func mulRowCost(k, n int) int {
	switch {
	case haveAVX512:
		return k*n/8 + 1
	case haveAVX2:
		return k*n/4 + 1
	}
	return k * n
}

// shardCount is how many shards parallelRows cuts [0, rows) into at
// mulAddsPerRow each: one below the work threshold, otherwise one per
// shardMinMulAdds of work, capped at rows and at GOMAXPROCS. Sharding
// beyond the cores that can run is pure overhead: on a 1-CPU container a
// four-shard 256×256 matmul once ran 11.1 ms against 8.1 ms for one shard.
func shardCount(rows, mulAddsPerRow int) int {
	total := rows * mulAddsPerRow
	if rows < 2 || total < parallelMulAdds {
		return 1
	}
	return min(total/shardMinMulAdds, runtime.GOMAXPROCS(0), rows)
}

// parallelRows splits [0, rows) into shardCount contiguous shards and runs
// body over them, each shard on a borrowed goroutine while fewer than
// GOMAXPROCS−1 are running and on the caller otherwise; the last shard
// always runs on the caller. mulAddsPerRow is the per-row cost estimate
// driving the sequential fallback. body must be safe to run concurrently on
// disjoint row ranges.
func parallelRows(rows, mulAddsPerRow int, body func(lo, hi int)) {
	shards := shardCount(rows, mulAddsPerRow)
	if shards == 1 {
		body(0, rows)
		return
	}
	limit := int32(runtime.GOMAXPROCS(0) - 1)
	var wg sync.WaitGroup
	chunk := (rows + shards - 1) / shards
	for lo := 0; lo < rows; lo += chunk {
		hi := min(lo+chunk, rows)
		if hi == rows || !borrow(limit) {
			body(lo, hi) // no free core, or the last shard: run on the caller
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer borrowed.Add(-1)
			body(lo, hi)
		}()
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

// arenaPools backs op-output buffers: result tensors draw their Data/Grad
// slices from it and ReleaseGraph returns them after a training step or
// inference pass, cutting allocation and GC pressure on the hot loops. Class
// c holds *[]float64 with cap 1<<c.
var arenaPools [arenaMaxClass + 1]sync.Pool

// sizeClass returns the smallest c with 1<<c ≥ n.
func sizeClass(n int) int {
	c := arenaMinClass
	for 1<<c < n {
		c++
	}
	return c
}

// allocData returns a zeroed slice of length n, drawn from the arena when
// the size is in the pooled range. The second result reports whether the
// slice must be returned with freeData.
func allocData(n int) ([]float64, bool) {
	if n < 1<<arenaMinClass || n > 1<<arenaMaxClass {
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
