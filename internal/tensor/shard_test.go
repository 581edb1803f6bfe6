package tensor

import (
	"runtime"
	"sort"
	"sync"
	"testing"
)

// shardRecord runs parallelRows and records every shard actually executed.
func shardRecord(rows, perRow int) [][2]int {
	var mu sync.Mutex
	var shards [][2]int
	parallelRows(rows, perRow, func(lo, hi int) {
		mu.Lock()
		shards = append(shards, [2]int{lo, hi})
		mu.Unlock()
	})
	sort.Slice(shards, func(a, b int) bool { return shards[a][0] < shards[b][0] })
	return shards
}

// checkCover asserts the shards exactly partition [0, rows): disjoint,
// contiguous, nonempty, in order.
func checkCover(t *testing.T, shards [][2]int, rows int) {
	t.Helper()
	next := 0
	for i, s := range shards {
		if s[0] != next || s[1] <= s[0] {
			t.Fatalf("shard %d = %v breaks the partition of [0,%d): shards %v", i, s, rows, shards)
		}
		next = s[1]
	}
	if next != rows {
		t.Fatalf("shards cover [0,%d), want [0,%d): %v", next, rows, shards)
	}
}

// Shard partitioning and balance must be provable independent of the
// runner's core count: GOMAXPROCS is raised to 4 for the duration, so the
// sharding decisions (not the physical parallelism) are what is asserted —
// the point of the test on a single-CPU CI box.
func TestParallelRowsShardPartition(t *testing.T) {
	oldProcs := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(oldProcs)
	// 64 rows, each one shard-minimum of work: enough total work for 4
	// shards, and the chunking must hand out balanced ceil(64/4)=16-row
	// shards.
	shards := shardRecord(64, shardMinMulAdds)
	checkCover(t, shards, 64)
	if len(shards) != 4 {
		t.Fatalf("got %d shards, want 4: %v", len(shards), shards)
	}
	for i, s := range shards {
		if s[1]-s[0] != 16 {
			t.Fatalf("shard %d = %v, want exactly 16 rows", i, s)
		}
	}

	// Rows bound the shard count: 3 huge rows can only make 3 shards.
	shards = shardRecord(3, 100*shardMinMulAdds)
	checkCover(t, shards, 3)
	if len(shards) != 3 {
		t.Fatalf("got %d shards for 3 rows, want 3: %v", len(shards), shards)
	}

	// Below the parallel threshold everything stays on one shard.
	shards = shardRecord(64, 1)
	checkCover(t, shards, 64)
	if len(shards) != 1 {
		t.Fatalf("tiny kernel got %d shards, want 1: %v", len(shards), shards)
	}

	// Work smaller than w shard-minimums limits the shard count: twice
	// the minimum yields exactly 2 shards even with 4 workers.
	shards = shardRecord(64, (2*shardMinMulAdds)/64)
	if total := 64 * ((2 * shardMinMulAdds) / 64); total >= parallelMulAdds {
		checkCover(t, shards, 64)
		if len(shards) != 2 {
			t.Fatalf("got %d shards for 2 minimums of work, want 2: %v", len(shards), shards)
		}
	}

	// With one scheduler slot "parallel" sharding is pure overhead, so
	// everything runs as one shard.
	runtime.GOMAXPROCS(1)
	shards = shardRecord(64, shardMinMulAdds)
	checkCover(t, shards, 64)
	if len(shards) != 1 {
		t.Fatalf("GOMAXPROCS=1 got %d shards, want 1: %v", len(shards), shards)
	}
}

// Per-shard work counting: every row's work unit must be executed exactly
// once regardless of how the rows are sharded (no drops, no double runs).
func TestParallelRowsWorkExactlyOnce(t *testing.T) {
	oldProcs := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(oldProcs)
	for _, rows := range []int{1, 2, 7, 64, 257} {
		counts := make([]int32, rows)
		var mu sync.Mutex
		parallelRows(rows, shardMinMulAdds, func(lo, hi int) {
			mu.Lock()
			for i := lo; i < hi; i++ {
				counts[i]++
			}
			mu.Unlock()
		})
		for i, c := range counts {
			if c != 1 {
				t.Fatalf("rows=%d: row %d executed %d times, want exactly once", rows, i, c)
			}
		}
	}
}
