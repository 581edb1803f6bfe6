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
//     SetTrain/Load, so a weight change orphans every old key in O(1)
//     without touching the cache;
//   - the detector knobs that shape the model input — UseHistogram, and for
//     the content tier the requested columns and cell budget n;
//   - the chunk itself, hashed by content. The Phase-1 key (the chunk key)
//     frames table/column names, comments, declared types, row count and
//     ANALYZE statistics (histogram buckets included). The Phase-2 key is
//     chained from it: sha256(chunk key ‖ cols ‖ n ‖ each requested column's
//     model-visible cells), the first n non-empty values that
//     adtd.VisibleCells hands BuildContentInput, and nothing else of the
//     scan. Changed content the model reads yields a fresh key and stale
//     memoized answers silently age out; a changed cell the model never
//     reads keeps the key, because it cannot change the answer. No explicit
//     data-change invalidation hook is needed.
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

// metaResultKey is a chunk's one identity, under the generation of the model
// the request actually runs on: it keys Phase 1's probability rows in the
// result tier and the chunk's metadata latents in the latent tier.
func (d *Detector) metaResultKey(m *adtd.Model, chunk *metafeat.TableInfo) string {
	bp := keyBufs.Get().(*[]byte)
	b := appendTableInfo((*bp)[:0], chunk)
	key := resultKey("p1", m.Generation(), d.Opts.UseHistogram, b)
	putKeyBuf(bp, b)
	return key
}

// contentResultKey memoizes Phase 2's probability rows for one chunk
// request. chunkKey is the chunk's Phase-1 key (s2's metaResultKey), which
// already frames the chunk's metadata, the histogram flag and the
// generation; the rest of the frame is what the content tower reads of the
// request.
func (d *Detector) contentResultKey(m *adtd.Model, chunkKey string, chunk *metafeat.TableInfo, cols []int, n int) string {
	bp := keyBufs.Get().(*[]byte)
	b := appendStr((*bp)[:0], chunkKey)
	b = appendInt(b, len(cols))
	for _, c := range cols {
		b = appendInt(b, c)
	}
	b = appendInt(b, n)
	for _, c := range cols {
		b = appendVisibleCells(b, chunk.Columns[c].Values, n)
	}
	key := resultKey("p2", m.Generation(), d.Opts.UseHistogram, b)
	putKeyBuf(bp, b)
	return key
}

// appendVisibleCells frames the cells of values the content tower reads:
// their count, then each cell.
func appendVisibleCells(b []byte, values []string, n int) []byte {
	at := len(b)
	b = appendInt(b, 0)
	count := 0
	adtd.VisibleCells(values, n, func(v string) {
		b = appendStr(b, v)
		count++
	})
	binary.LittleEndian.PutUint64(b[at:], uint64(count))
	return b
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

// appendTableInfo frames every field of a chunk onto b. s2 frames a chunk
// before s3 has scanned anything, so its Values are nil there and the
// Phase-1 key covers the metadata alone.
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

// A table memo (DESIGN.md §14) is the result tier's record of one table's
// last clean answer: the metadata view it was computed from and, per chunk,
// the keys of its Phase-1 and Phase-2 rows. It sits under memoKey, the
// generation of the model that answered and the table's Version, so a
// repeat detect of an unchanged table finds it from the schema read alone
// and answers from the tier by those keys: no stage, no scan, no hash.
type tableMemo struct {
	meta   *simdb.TableMeta
	chunks []memoChunk
}

// memoChunk is one chunk of a memo: its column count, the key of its
// Phase-1 rows and, when any of its columns was uncertain, the key of their
// Phase-2 rows.
type memoChunk struct {
	cols   int
	p1, p2 string
}

// Bytes charges the keys, the column layout and the metadata view, which
// the memo keeps alive after simdb has published the next one.
func (m *tableMemo) Bytes() int64 {
	b := int64(48*len(m.chunks) + 64 + len(m.meta.Name) + len(m.meta.Comment))
	for _, ch := range m.chunks {
		b += int64(len(ch.p1) + len(ch.p2))
	}
	for _, c := range m.meta.Columns {
		b += int64(64 + len(c.Name) + len(c.Comment) + len(c.DataType))
		if st := c.Stats; st != nil {
			b += 96
			if st.Histogram != nil {
				for _, bk := range st.Histogram.Buckets {
					b += int64(40 + len(bk.Lower) + len(bk.Upper))
				}
			}
		}
	}
	return b
}

// appendMemoKey appends "memo|g<gen>|v<version>", which no row key equals.
// A lookup converts it where it calls the tier, so a short key is built on
// the stack.
func appendMemoKey(b []byte, gen, version uint64) []byte {
	b = append(b, "memo|g"...)
	b = strconv.AppendUint(b, gen, 10)
	b = append(b, "|v"...)
	return strconv.AppendUint(b, version, 10)
}

// remember memoizes j's answer under gen, the generation of the model that
// computed it. Only a clean answer may be remembered: Phase 1 and, where it
// was needed, Phase 2 answered every column, none degraded.
func (j *tableJob) remember(gen uint64) {
	m := &tableMemo{meta: j.meta, chunks: make([]memoChunk, len(j.chunks))}
	for ci, ch := range j.chunks {
		m.chunks[ci] = memoChunk{cols: len(ch.Columns), p1: j.keys[ci]}
		if ci < len(j.p2keys) {
			m.chunks[ci].p2 = j.p2keys[ci]
		}
	}
	var key [48]byte
	j.d.results.PutMemo(string(appendMemoKey(key[:0], gen, j.meta.Version)), m)
}

// answerFromMemo answers j from the result tier by the keys of the memo
// under gen and the schema read's Version, when there is one and the read
// returned the rows it was computed from, and reports whether it did. The
// answer is built exactly as s2 and s4 build it from the same rows, so its
// bytes are a cold detect's; s3's part, which columns were scanned, is the
// uncertain set those rows imply. A row the tier no longer holds answers
// nothing, and the job takes the stages from a clean state.
func (j *tableJob) answerFromMemo(gen uint64) bool {
	var key [48]byte
	v, ok := j.d.results.GetMemo(string(appendMemoKey(key[:0], gen, j.meta.Version)))
	if !ok {
		return false
	}
	m := v.(*tableMemo)
	if !m.meta.Equal(j.meta) {
		return false
	}
	opts, types := j.d.Opts, j.cls.types()
	n := len(j.meta.Columns)
	if cap(j.resCols) < n {
		j.resCols = make([]ColumnResult, n)
	}
	cols := j.resCols[:n:n]
	global := 0
	for _, ch := range m.chunks {
		p1, ok := j.d.results.Get(ch.p1)
		if !ok || len(p1) != ch.cols {
			return j.forget()
		}
		var p2 [][]float64
		slot := 0
		for _, row := range p1 {
			cr := &cols[global]
			*cr = ColumnResult{Table: j.table, Column: j.meta.Columns[global].Name, Phase: 1, Probs: row}
			if opts.P2Disabled() || (row != nil && !isUncertain(row, opts.Alpha, opts.Beta)) {
				cr.Admitted = admitted(types, row, opts.Beta)
			} else {
				if p2 == nil {
					if p2, ok = j.d.results.Get(ch.p2); !ok {
						return j.forget()
					}
				}
				if slot >= len(p2) {
					return j.forget()
				}
				cr.Uncertain, cr.Scanned, cr.Phase, cr.Probs = true, true, 2, p2[slot]
				cr.Admitted = admitted(types, p2[slot], opts.AdmitThreshold)
				j.uncertain = append(j.uncertain, global)
				slot++
			}
			global++
		}
		if slot != len(p2) {
			return j.forget()
		}
	}
	j.result = TableResult{Table: j.table, ScannedColumns: len(j.uncertain)}
	if n > 0 {
		j.result.Columns = cols
	}
	j.res, j.memoized = &j.result, true
	return true
}

// forget undoes a partial answerFromMemo and reports false.
func (j *tableJob) forget() bool {
	j.uncertain = j.uncertain[:0]
	return false
}
