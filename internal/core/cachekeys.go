package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math"

	"repro/internal/adtd"
	"repro/internal/metafeat"
	"repro/internal/simdb"
)

// Result-cache key construction. A key must change whenever anything that
// could change the memoized model output changes:
//
//   - the model weights — covered by the Generation() prefix, bumped on
//     SetTrain/Load/ApplyFeedback, so a weight change orphans every old key
//     in O(1) without touching the cache;
//   - the detector knobs that shape the model input — UseHistogram, and for
//     the content tier the requested columns and cell budget n;
//   - the chunk itself, hashed by content: table/column names, comments,
//     declared types, row count, ANALYZE statistics (histogram buckets
//     included) and — in the content tier, where s3 has populated them —
//     the scanned values. Hashing the values means changed table data
//     yields a fresh key and stale memoized answers silently age out; no
//     explicit data-change invalidation hook is needed.
//
// Framing is length-prefixed (every string and list is preceded by its
// length) so distinct field sequences can never collide by concatenation.

// metaResultKey memoizes Phase 1's probability rows for one chunk, under the
// generation of the model the request actually runs on.
func (d *Detector) metaResultKey(m *adtd.Model, chunk *metafeat.TableInfo) string {
	h := sha256.New()
	hashTableInfo(h, chunk)
	return fmt.Sprintf("p1|g%d|h%v|%s", m.Generation(), d.Opts.UseHistogram, hex.EncodeToString(h.Sum(nil)))
}

// contentResultKey memoizes Phase 2's probability rows for one chunk
// request.
func (d *Detector) contentResultKey(m *adtd.Model, chunk *metafeat.TableInfo, cols []int, n int) string {
	h := sha256.New()
	hashTableInfo(h, chunk)
	hashInt(h, len(cols))
	for _, c := range cols {
		hashInt(h, c)
	}
	hashInt(h, n)
	return fmt.Sprintf("p2|g%d|h%v|%s", m.Generation(), d.Opts.UseHistogram, hex.EncodeToString(h.Sum(nil)))
}

func hashInt(h hash.Hash, v int) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(v))
	h.Write(b[:])
}

func hashF64(h hash.Hash, v float64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
	h.Write(b[:])
}

func hashStr(h hash.Hash, s string) {
	hashInt(h, len(s))
	h.Write([]byte(s))
}

func hashStats(h hash.Hash, st *simdb.ColumnStats) {
	if st == nil {
		hashInt(h, 0)
		return
	}
	hashInt(h, 1)
	hashInt(h, st.RowCount)
	hashInt(h, st.NullCount)
	hashInt(h, st.NDV)
	hashInt(h, st.MinLen)
	hashInt(h, st.MaxLen)
	hashF64(h, st.AvgLen)
	hashF64(h, st.NumericRatio)
	hashF64(h, st.NumericMin)
	hashF64(h, st.NumericMax)
	if st.Histogram == nil {
		hashInt(h, 0)
		return
	}
	hashInt(h, 1)
	hashInt(h, int(st.Histogram.Kind))
	hashInt(h, len(st.Histogram.Buckets))
	for _, b := range st.Histogram.Buckets {
		hashStr(h, b.Lower)
		hashStr(h, b.Upper)
		hashInt(h, b.Count)
	}
}

// hashTableInfo frames every model-visible field of a chunk into h. Values
// are nil during Phase 1 (metadata only) and populated for scanned columns
// by the time Phase 2 hashes the chunk.
func hashTableInfo(h hash.Hash, ti *metafeat.TableInfo) {
	hashStr(h, ti.Name)
	hashStr(h, ti.Comment)
	hashInt(h, ti.RowCount)
	hashInt(h, len(ti.Columns))
	for _, c := range ti.Columns {
		hashStr(h, c.Name)
		hashStr(h, c.Comment)
		hashStr(h, c.DataType)
		hashStats(h, c.Stats)
		hashInt(h, len(c.Values))
		for _, v := range c.Values {
			hashStr(h, v)
		}
	}
}
