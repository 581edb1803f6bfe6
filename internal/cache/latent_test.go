package cache

import (
	"fmt"
	"testing"

	"repro/internal/adtd"
	"repro/internal/tensor"
)

func testEncoding(seed float64) *adtd.MetaEncoding {
	data := make([]float64, 6)
	for i := range data {
		data[i] = seed + float64(i)
	}
	return &adtd.MetaEncoding{Layers: []*tensor.Tensor{{Rows: 2, Cols: 3, Data: data}}}
}

func TestEncodingBytes(t *testing.T) {
	enc := testEncoding(0)
	want := int64(entryOverhead) + 2*3*8
	if got := EncodingBytes(enc); got != want {
		t.Fatalf("EncodingBytes = %d, want %d", got, want)
	}
}

// TestLatentPutConsumesZeroCopy: a consumed Put stores a detached view
// sharing the producer's buffers — the hit path returns the same float64
// backing array, no memcpy on either side.
func TestLatentPutConsumesZeroCopy(t *testing.T) {
	c := NewLatent(1<<20, 0)
	enc := testEncoding(1)
	if !c.Put("k", enc) {
		t.Fatal("put not consumed")
	}
	got := c.Get("k")
	if got == nil {
		t.Fatal("miss after put")
	}
	if &got.Layers[0].Data[0] != &enc.Layers[0].Data[0] {
		t.Fatal("cached encoding does not share the producer's buffer")
	}
	// The stored view must be graph-free: the release walk of any consumer
	// graph skips parentless leaves, which is what keeps cached entries
	// alive across batch releases.
	if !tensor.NoGrad(got.Layers[0]) {
		t.Fatal("cached layer carries autograd state")
	}
}

// TestLatentEqualRePutSkipped: re-offering a present key refreshes recency
// and reports not-consumed, so the caller recycles its fresh copy. Keys are
// content keys, so the encoding offered again is the one stored.
func TestLatentEqualRePutSkipped(t *testing.T) {
	c := NewLatent(1<<20, 0)
	if !c.Put("k", testEncoding(2)) {
		t.Fatal("first put not consumed")
	}
	if c.Put("k", testEncoding(2)) {
		t.Fatal("equal re-put consumed the duplicate")
	}
	st := c.Stats()
	if st.SkippedCopies != 1 || st.Entries != 1 {
		t.Fatalf("stats after equal re-put: %+v", st)
	}
}

func TestLatentDisabled(t *testing.T) {
	c := NewLatent(0, 0)
	if c.Enabled() {
		t.Fatal("zero-budget latent tier enabled")
	}
	enc := testEncoding(3)
	if c.Put("k", enc) {
		t.Fatal("disabled tier consumed an encoding")
	}
	if c.Get("k") != nil {
		t.Fatal("disabled tier returned a hit")
	}
	if st := c.Stats(); st.Misses != 1 {
		t.Fatalf("disabled tier miss ledger: %+v", st)
	}
}

// TestLatentEvictionByBytes: the tier is bounded by accounted encoding
// bytes, not entry count.
func TestLatentEvictionByBytes(t *testing.T) {
	per := EncodingBytes(testEncoding(0))
	c := NewLatent(2*per, 0) // room for exactly two encodings
	for i := 0; i < 4; i++ {
		c.Put(fmt.Sprintf("k%d", i), testEncoding(float64(i)))
	}
	if c.Len() != 2 {
		t.Fatalf("len = %d, want 2", c.Len())
	}
	if b := c.Bytes(); b > 2*per {
		t.Fatalf("bytes %d over budget %d", b, 2*per)
	}
	if st := c.Stats(); st.Evictions != 2 {
		t.Fatalf("evictions = %d, want 2", st.Evictions)
	}
}

func TestLatentOversizedNotConsumed(t *testing.T) {
	c := NewLatent(64, 0) // smaller than any encoding with overhead
	enc := testEncoding(5)
	if c.Put("k", enc) {
		t.Fatal("oversized encoding consumed")
	}
	if c.Len() != 0 {
		t.Fatal("oversized encoding stored")
	}
}

func TestResultTierRoundTrip(t *testing.T) {
	c := NewResult(1<<20, 0)
	rows := [][]float64{{0.1, 0.9}, {0.8, 0.2}}
	c.Put("k", rows)
	got, ok := c.Get("k")
	if !ok {
		t.Fatal("miss after put")
	}
	if &got[0][0] != &rows[0][0] {
		t.Fatal("result tier copied the rows")
	}
	if _, ok := c.Get("absent"); ok {
		t.Fatal("phantom hit")
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Entries != 1 {
		t.Fatalf("stats = %+v", st)
	}

	off := NewResult(0, 0)
	off.Put("k", rows)
	if off.Len() != 0 {
		t.Fatal("disabled result tier stored rows")
	}
}
