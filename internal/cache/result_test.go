package cache

import "testing"

type testMemo struct{ size int64 }

func (m *testMemo) Bytes() int64 { return m.size }

// TestResultMemoSharesTheBudget: a memo is charged to the result tier's
// budget by its own Bytes beside the rows, is returned only by GetMemo (and
// rows only by Get), and competes with rows for the same room: a memo too
// large for a shard is refused, and one that fills a shard evicts the rows
// that shared it.
func TestResultMemoSharesTheBudget(t *testing.T) {
	c := NewResult(4096, 1)
	rows := [][]float64{{0.1, 0.9}, {0.5, 0.5}}
	c.Put("rows", rows)
	m := &testMemo{size: 100}
	c.PutMemo("memo", m)
	if got, ok := c.GetMemo("memo"); !ok || got != m {
		t.Fatal("GetMemo lost the memo")
	}
	if got, ok := c.Get("rows"); !ok || len(got) != 2 {
		t.Fatal("Get lost the rows")
	}
	if _, ok := c.Get("memo"); ok {
		t.Fatal("Get returned a memo as rows")
	}
	if _, ok := c.GetMemo("rows"); ok {
		t.Fatal("GetMemo returned rows as a memo")
	}
	want := valueBytes(resultValue{rows: rows}) + entryOverhead + m.size
	if got := c.Bytes(); got != want {
		t.Fatalf("accounted %d bytes, want %d (rows + memo with its overhead)", got, want)
	}

	c.PutMemo("huge", &testMemo{size: 8192})
	if _, ok := c.GetMemo("huge"); ok {
		t.Fatal("a memo larger than the budget was kept")
	}
	fresh := NewResult(4096, 1)
	fresh.Put("rows", rows)
	fresh.PutMemo("big", &testMemo{size: 4096 - entryOverhead - 8})
	if _, ok := fresh.Get("rows"); ok {
		t.Fatal("a memo that needs the rows' room left them in place")
	}
	if _, ok := fresh.GetMemo("big"); !ok || fresh.Stats().Evictions != 1 || fresh.Bytes() > 4096 {
		t.Fatalf("the memo must take the evicted rows' room: %+v", fresh.Stats())
	}

	off := NewResult(0, 1)
	off.PutMemo("memo", m)
	if _, ok := off.GetMemo("memo"); ok {
		t.Fatal("a disabled tier kept a memo")
	}
}
