package cache

import (
	"fmt"
	"testing"
)

type testMemo struct{ size int64 }

func (m *testMemo) Bytes() int64 { return m.size }

// TestResultMemoSharesTheBudget: a memo is charged to the result tier's
// budget by its own Bytes beside the rows, is returned only by GetMemo (and
// rows only by Get), and competes with rows for the same room: a memo too
// large for the budget is refused, and one that fills the budget evicts the
// rows that shared it.
func TestResultMemoSharesTheBudget(t *testing.T) {
	c := NewResult(4096, 0)
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
	fresh := NewResult(4096, 0)
	fresh.Put("rows", rows)
	fresh.PutMemo("big", &testMemo{size: 4096 - entryOverhead - 8})
	if _, ok := fresh.Get("rows"); ok {
		t.Fatal("a memo that needs the rows' room left them in place")
	}
	if _, ok := fresh.GetMemo("big"); !ok || fresh.Stats().Evictions != 1 || fresh.Bytes() > 4096 {
		t.Fatalf("the memo must take the evicted rows' room: %+v", fresh.Stats())
	}

	off := NewResult(0, 0)
	off.PutMemo("memo", m)
	if _, ok := off.GetMemo("memo"); ok {
		t.Fatal("a disabled tier kept a memo")
	}
}

// TestDefaultTierHoldsAValueUpToItsBudget: a tier built the way core builds
// it stores one value of any size up to its whole budget, sizes over b/16
// included.
func TestDefaultTierHoldsAValueUpToItsBudget(t *testing.T) {
	const b = 64 << 10
	for _, size := range []int64{b/16 + 1, b / 2, b} {
		c := NewResult(b, 0)
		c.PutMemo("memo", &testMemo{size: size - entryOverhead})
		if _, ok := c.GetMemo("memo"); !ok {
			t.Errorf("result tier of %d bytes refused a %d-byte memo", b, size)
		}
	}
	enc := testEncoding(0)
	per := EncodingBytes(enc)
	l := NewLatent(per*16-1, 0)
	if !l.Put("k", enc) || l.Get("k") == nil {
		t.Errorf("latent tier of %d bytes refused a %d-byte encoding", per*16-1, per)
	}
}

// TestFillingToTheBudgetEvictsNothing: keys that together fill a tier to
// just under its budget all stay, however their keys hash, and the next
// key's bytes evict exactly the oldest one.
func TestFillingToTheBudgetEvictsNothing(t *testing.T) {
	const b, n = 64 << 10, 64
	c := NewResult(b, 0)
	each := int64(b/n) - entryOverhead
	for i := 0; i < n; i++ {
		size := each
		if i == 0 {
			size-- // the tier ends one byte under its budget
		}
		c.PutMemo(fmt.Sprintf("p1|g1|h0|%064x", i), &testMemo{size: size})
	}
	if st := c.Stats(); st.Evictions != 0 || st.Entries != n || st.Bytes != b-1 {
		t.Fatalf("filling to one byte under the budget: %+v, want %d entries of %d bytes and no eviction", st, n, int64(b-1))
	}
	c.PutMemo("one more", &testMemo{size: each})
	if st := c.Stats(); st.Evictions != 1 || st.Entries != n {
		t.Fatalf("one key over the budget: %+v, want 1 eviction", st)
	}
	if _, ok := c.GetMemo(fmt.Sprintf("p1|g1|h0|%064x", 0)); ok {
		t.Fatal("the oldest key survived the overflow")
	}
}
