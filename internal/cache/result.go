package cache

// Result is the content-hash result tier: it memoizes per-chunk model
// outputs (per-column probability rows) keyed by a hash of everything that
// determines them — column metadata, scanned values for the content phase,
// the detector's knob set, and the model generation counter (see
// internal/core/cachekeys.go for the key construction). Because the key
// covers the inputs by content, a change to the underlying table data
// produces a different key and the stale entry simply ages out; a change
// to the model (SetTrain, Load) bumps the generation and orphans every old
// key in O(1).
//
// Values are [][]float64 probability rows shared with the detection
// pipeline; they are immutable by contract (the pipeline never mutates
// probability rows after the model returns them — Report assembly only
// reads them).
//
// The tier also keeps memos (PutMemo): a caller's records of what it
// computed from which rows, held beside those rows, under keys of the
// caller's own that never equal a row key, and charged to the same budget.
type Result struct {
	s *LRU[resultValue]
}

// Memo is a record kept in the result tier beside the rows it names; Bytes
// is its charge against the tier's budget, beyond the fixed entry overhead.
type Memo interface{ Bytes() int64 }

// resultValue is one entry: probability rows, or a memo.
type resultValue struct {
	rows [][]float64
	memo Memo
}

// valueBytes accounts one entry: a memo's own charge, or row payloads plus
// slice headers; either plus fixed entry overhead.
func valueBytes(v resultValue) int64 {
	b := int64(entryOverhead)
	if v.memo != nil {
		return b + v.memo.Bytes()
	}
	for _, r := range v.rows {
		b += int64(len(r))*8 + 48
	}
	return b
}

// NewResult creates the result tier bounded by budgetBytes; budgetBytes ≤ 0
// disables the tier. The second parameter is ignored: it was the shard
// count, and stays only because the benchmark module still passes one.
func NewResult(budgetBytes int64, _ int) *Result {
	return &Result{s: New(budgetBytes, valueBytes)}
}

// SetMetrics attaches obs handles for the tier's counters.
func (c *Result) SetMetrics(m *TierMetrics) { c.s.SetMetrics(m) }

// Enabled reports whether the tier can store anything. Callers use this to
// skip key hashing entirely when the tier is off.
func (c *Result) Enabled() bool { return c.s.Enabled() }

// Get returns the memoized probability rows for key.
func (c *Result) Get(key string) ([][]float64, bool) {
	v, ok := c.s.Get(key)
	return v.rows, ok && v.memo == nil
}

// Put memoizes rows under key. The rows become cache-owned and must not be
// mutated afterwards.
func (c *Result) Put(key string, rows [][]float64) {
	if !c.s.Enabled() {
		return
	}
	c.s.Put(key, resultValue{rows: rows})
}

// GetMemo returns the memo under key. A lookup counts as a hit or a miss
// like Get's.
func (c *Result) GetMemo(key string) (Memo, bool) {
	v, ok := c.s.Get(key)
	return v.memo, ok && v.memo != nil
}

// PutMemo keeps m under key, which no row key may equal. m becomes
// cache-owned and must not be mutated afterwards.
func (c *Result) PutMemo(key string, m Memo) {
	if !c.s.Enabled() {
		return
	}
	c.s.Put(key, resultValue{memo: m})
}

// Len returns the number of memoized entries.
func (c *Result) Len() int { return c.s.Len() }

// Bytes returns the accounted bytes.
func (c *Result) Bytes() int64 { return c.s.Bytes() }

// Stats returns a snapshot of the tier counters.
func (c *Result) Stats() Stats { return c.s.Stats() }
