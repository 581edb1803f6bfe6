package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"strconv"
	"sync"

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
// length as a little-endian uint64) so distinct field sequences can never
// collide by concatenation. The whole frame is appended into one reusable
// buffer and hashed with a single SHA-256 call: a cache hit costs one key
// string, not an allocation per field.

// keyBufs recycles framing buffers across requests. A frame holding an
// unusually large scan is not kept: maxPooledKeyBuf caps what the pool pins.
var keyBufs = sync.Pool{New: func() any { b := make([]byte, 0, 1024); return &b }}

const maxPooledKeyBuf = 64 << 10

// metaResultKey memoizes Phase 1's probability rows for one chunk, under the
// generation of the model the request actually runs on.
func (d *Detector) metaResultKey(m *adtd.Model, chunk *metafeat.TableInfo) string {
	bp := keyBufs.Get().(*[]byte)
	b := appendTableInfo((*bp)[:0], chunk)
	key := resultKey("p1", m.Generation(), d.Opts.UseHistogram, b)
	putKeyBuf(bp, b)
	return key
}

// contentResultKey memoizes Phase 2's probability rows for one chunk
// request.
func (d *Detector) contentResultKey(m *adtd.Model, chunk *metafeat.TableInfo, cols []int, n int) string {
	bp := keyBufs.Get().(*[]byte)
	b := appendTableInfo((*bp)[:0], chunk)
	b = appendInt(b, len(cols))
	for _, c := range cols {
		b = appendInt(b, c)
	}
	b = appendInt(b, n)
	key := resultKey("p2", m.Generation(), d.Opts.UseHistogram, b)
	putKeyBuf(bp, b)
	return key
}

func putKeyBuf(bp *[]byte, b []byte) {
	if cap(b) > maxPooledKeyBuf {
		return
	}
	*bp = b
	keyBufs.Put(bp)
}

// resultKey renders "<tier>|g<gen>|h<hist>|<hex sha256(frame)>".
func resultKey(tier string, gen uint64, hist bool, frame []byte) string {
	sum := sha256.Sum256(frame)
	var out [96]byte
	b := append(out[:0], tier...)
	b = append(b, "|g"...)
	b = strconv.AppendUint(b, gen, 10)
	b = append(b, "|h"...)
	b = strconv.AppendBool(b, hist)
	b = append(b, '|')
	b = hex.AppendEncode(b, sum[:])
	return string(b)
}

func appendInt(b []byte, v int) []byte {
	return binary.LittleEndian.AppendUint64(b, uint64(v))
}

func appendF64(b []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
}

func appendStr(b []byte, s string) []byte {
	return append(appendInt(b, len(s)), s...)
}

func appendStats(b []byte, st *simdb.ColumnStats) []byte {
	if st == nil {
		return appendInt(b, 0)
	}
	b = appendInt(b, 1)
	b = appendInt(b, st.RowCount)
	b = appendInt(b, st.NullCount)
	b = appendInt(b, st.NDV)
	b = appendInt(b, st.MinLen)
	b = appendInt(b, st.MaxLen)
	b = appendF64(b, st.AvgLen)
	b = appendF64(b, st.NumericRatio)
	b = appendF64(b, st.NumericMin)
	b = appendF64(b, st.NumericMax)
	if st.Histogram == nil {
		return appendInt(b, 0)
	}
	b = appendInt(b, 1)
	b = appendInt(b, int(st.Histogram.Kind))
	b = appendInt(b, len(st.Histogram.Buckets))
	for _, bk := range st.Histogram.Buckets {
		b = appendStr(b, bk.Lower)
		b = appendStr(b, bk.Upper)
		b = appendInt(b, bk.Count)
	}
	return b
}

// appendTableInfo frames every model-visible field of a chunk onto b. Values
// are nil during Phase 1 (metadata only) and populated for scanned columns
// by the time Phase 2 frames the chunk.
func appendTableInfo(b []byte, ti *metafeat.TableInfo) []byte {
	b = appendStr(b, ti.Name)
	b = appendStr(b, ti.Comment)
	b = appendInt(b, ti.RowCount)
	b = appendInt(b, len(ti.Columns))
	for _, c := range ti.Columns {
		b = appendStr(b, c.Name)
		b = appendStr(b, c.Comment)
		b = appendStr(b, c.DataType)
		b = appendStats(b, c.Stats)
		b = appendInt(b, len(c.Values))
		for _, v := range c.Values {
			b = appendStr(b, v)
		}
	}
	return b
}
