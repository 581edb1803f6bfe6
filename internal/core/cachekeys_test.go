package core

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"slices"
	"testing"

	"repro/internal/adtd"
	"repro/internal/corpus"
	"repro/internal/metafeat"
	"repro/internal/simdb"
)

// The streaming reference: every key built field by field through a
// hash.Hash, the key string rendered by fmt, and the content tower's cells
// picked by a loop of its own rather than adtd.VisibleCells. The production
// keys must match it byte for byte, so that framing them differently never
// orphans a cached entry or lets two inputs share one.

func refMetaResultKey(m *adtd.Model, hist bool, chunk *metafeat.TableInfo) string {
	h := sha256.New()
	refHashTableInfo(h, chunk)
	return fmt.Sprintf("p1|g%d|h%v|%s", m.Generation(), hist, hex.EncodeToString(h.Sum(nil)))
}

func refContentResultKey(m *adtd.Model, hist bool, chunkKey string, chunk *metafeat.TableInfo, cols []int, n int) string {
	h := sha256.New()
	refHashStr(h, chunkKey)
	refHashInt(h, len(cols))
	for _, c := range cols {
		refHashInt(h, c)
	}
	refHashInt(h, n)
	for _, c := range cols {
		cells := refVisibleCells(chunk.Columns[c].Values, n)
		refHashInt(h, len(cells))
		for _, v := range cells {
			refHashStr(h, v)
		}
	}
	return fmt.Sprintf("p2|g%d|h%v|%s", m.Generation(), hist, hex.EncodeToString(h.Sum(nil)))
}

// refVisibleCells is what BuildContentInput reads of a column (§6.1.2): the
// first n non-empty values.
func refVisibleCells(values []string, n int) []string {
	var out []string
	for _, v := range values {
		if len(out) >= n {
			break
		}
		if v != "" {
			out = append(out, v)
		}
	}
	return out
}

func refHashInt(h hash.Hash, v int) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(v))
	h.Write(b[:])
}

func refHashF64(h hash.Hash, v float64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
	h.Write(b[:])
}

func refHashStr(h hash.Hash, s string) {
	refHashInt(h, len(s))
	h.Write([]byte(s))
}

func refHashStats(h hash.Hash, st *simdb.ColumnStats) {
	if st == nil {
		refHashInt(h, 0)
		return
	}
	refHashInt(h, 1)
	refHashInt(h, st.RowCount)
	refHashInt(h, st.NullCount)
	refHashInt(h, st.NDV)
	refHashInt(h, st.MinLen)
	refHashInt(h, st.MaxLen)
	refHashF64(h, st.AvgLen)
	refHashF64(h, st.NumericRatio)
	refHashF64(h, st.NumericMin)
	refHashF64(h, st.NumericMax)
	if st.Histogram == nil {
		refHashInt(h, 0)
		return
	}
	refHashInt(h, 1)
	refHashInt(h, int(st.Histogram.Kind))
	refHashInt(h, len(st.Histogram.Buckets))
	for _, b := range st.Histogram.Buckets {
		refHashStr(h, b.Lower)
		refHashStr(h, b.Upper)
		refHashInt(h, b.Count)
	}
}

func refHashTableInfo(h hash.Hash, ti *metafeat.TableInfo) {
	refHashStr(h, ti.Name)
	refHashStr(h, ti.Comment)
	refHashInt(h, ti.RowCount)
	refHashInt(h, len(ti.Columns))
	for _, c := range ti.Columns {
		refHashStr(h, c.Name)
		refHashStr(h, c.Comment)
		refHashStr(h, c.DataType)
		refHashStats(h, c.Stats)
		refHashInt(h, len(c.Values))
		for _, v := range c.Values {
			refHashStr(h, v)
		}
	}
}

// keyModel builds a small untrained model: the keys read only its
// generation, which is process-unique per model, and its metadata forward
// (s2's, which stores the latents) is cheap.
func keyModel(tb testing.TB) *adtd.Model {
	tb.Helper()
	ds := corpus.Generate(corpus.DefaultRegistry(), corpus.SmallTablesProfile(2), 5)
	tok := adtd.BuildVocabulary(ds.Train, ds.Registry.Names(), 200)
	cfg := adtd.ReproScale()
	cfg.Layers, cfg.Hidden, cfg.Heads, cfg.Intermediate = 1, 8, 1, 8
	cfg.MetaClassifierHidden, cfg.ContentClassifierHidden = 8, 8
	m, err := adtd.New(cfg, tok, adtd.NewTypeSpace(ds.Registry.Names()), 7)
	if err != nil {
		tb.Fatal(err)
	}
	return m
}

// keyDetectors returns a detector over m per histogram flag (index 0 off,
// 1 on), with the latent tier on.
func keyDetectors(tb testing.TB, m *adtd.Model) [2]*Detector {
	tb.Helper()
	var ds [2]*Detector
	for i := range ds {
		opts := DefaultOptions()
		opts.UseHistogram = i == 1
		d, err := NewDetector(m, opts)
		if err != nil {
			tb.Fatal(err)
		}
		ds[i] = d
	}
	return ds
}

// metadataOnly clones chunk without its values, as s2 sees it: the chunk
// key a Phase-2 key chains from is framed before s3 scans anything.
func metadataOnly(chunk *metafeat.TableInfo) *metafeat.TableInfo {
	c := cloneChunk(chunk)
	for _, col := range c.Columns {
		col.Values = nil
	}
	return c
}

// contentKey is s4's Phase-2 key of chunk, chained from the key s2 gives
// the chunk's metadata.
func contentKey(d *Detector, m *adtd.Model, chunk *metafeat.TableInfo, cols []int, n int) string {
	return d.contentResultKey(m, d.metaResultKey(m, metadataOnly(chunk)), chunk, cols, n)
}

// checkKeyParity asserts that the meta and content keys of chunk equal the
// streaming reference's, and that the latent key is the chunk's Phase-1
// key: s2 stores the chunk's latents under the reference meta key and
// keeps that key for s4.
func checkKeyParity(t *testing.T, d *Detector, chunk *metafeat.TableInfo, cols []int, n int) {
	t.Helper()
	m, hist := d.Model(), d.Opts.UseHistogram
	want := refMetaResultKey(m, hist, chunk)
	if got := d.metaResultKey(m, chunk); got != want {
		t.Fatalf("meta key %q, reference %q", got, want)
	}
	if got, want := d.contentResultKey(m, want, chunk, cols, n), refContentResultKey(m, hist, want, chunk, cols, n); got != want {
		t.Fatalf("content key %q, reference %q", got, want)
	}
	j := &tableJob{d: d, cls: adtdClassifier{m}, table: chunk.Name, info: chunk, chunks: []*metafeat.TableInfo{chunk}, offsets: []int{0}}
	if err := j.s2InferMetadata(context.Background()); err != nil {
		t.Fatal(err)
	}
	if len(j.keys) != 1 || j.keys[0] != want {
		t.Fatalf("s2 keyed the chunk %q, want its Phase-1 key %q", j.keys, want)
	}
	if d.cache.Get(want) == nil {
		t.Fatalf("no latents under the chunk's Phase-1 key %q", want)
	}
}

// TestResultKeysMatchStreamingReference: over WikiTable chunks — metadata
// only (nil Values, as Phase 1 sees them), with empty Values, and with the
// scanned content Phase 2 hashes; with and without ANALYZE statistics and
// their histogram buckets — and over a hand-built chunk of empty strings,
// non-ASCII and invalid UTF-8, every key is byte-identical to the streaming
// reference, and s2 stores the chunk's latents under its Phase-1 key.
func TestResultKeysMatchStreamingReference(t *testing.T) {
	dets := keyDetectors(t, keyModel(t))
	ds := corpus.Generate(corpus.DefaultRegistry(), corpus.WikiTableProfile(30), 11)
	chunks := 0
	for _, d := range dets {
		for ti, tb := range ds.Test {
			info := metafeat.FromCorpusTable(tb, d.Opts.UseHistogram, 8)
			for _, chunk := range info.Split(DefaultOptions().SplitThreshold) {
				all := make([]int, len(chunk.Columns))
				for i := range all {
					all[i] = i
				}
				checkKeyParity(t, d, chunk, all, 10)
				checkKeyParity(t, d, chunk, all[len(all)/2:], ti)

				meta := cloneChunk(chunk)
				for i, c := range meta.Columns {
					if i%2 == 0 {
						c.Values = nil
					} else {
						c.Values = []string{}
					}
				}
				checkKeyParity(t, d, meta, nil, 0)
				chunks++
			}
		}
	}
	if chunks == 0 {
		t.Fatal("no chunks generated")
	}

	odd := &metafeat.TableInfo{
		Name:     "",
		Comment:  "表のコメント",
		RowCount: -1,
		Columns: []*metafeat.ColumnInfo{
			{Name: "", Comment: "", DataType: "", Values: []string{"", "", "Zürich", "\xff\xfe", "😀"}},
			{Name: "straße", DataType: "VARCHAR", Stats: &simdb.ColumnStats{
				RowCount: 3, NullCount: 1, NDV: 2, AvgLen: math.Inf(1), NumericRatio: math.NaN(), NumericMin: -0.0,
				Histogram: &simdb.Histogram{Kind: 1, Buckets: []simdb.Bucket{{Lower: "", Upper: "", Count: 0}, {Lower: "ä", Upper: "ö", Count: 2}}},
			}},
			{Name: "c", Stats: &simdb.ColumnStats{Histogram: &simdb.Histogram{}}, Values: []string{}},
		},
	}
	for _, d := range dets {
		checkKeyParity(t, d, odd, []int{0, 1, 2}, 7)
		checkKeyParity(t, d, odd, []int{}, -5)
	}
}

// cloneChunk deep-copies every field the keys read.
func cloneChunk(ti *metafeat.TableInfo) *metafeat.TableInfo {
	out := &metafeat.TableInfo{Name: ti.Name, Comment: ti.Comment, RowCount: ti.RowCount}
	for _, c := range ti.Columns {
		cc := &metafeat.ColumnInfo{Name: c.Name, Comment: c.Comment, DataType: c.DataType}
		if c.Values != nil {
			cc.Values = append([]string{}, c.Values...)
		}
		if c.Stats != nil {
			st := *c.Stats
			if st.Histogram != nil {
				h := *st.Histogram
				h.Buckets = append([]simdb.Bucket(nil), h.Buckets...)
				st.Histogram = &h
			}
			cc.Stats = &st
		}
		out.Columns = append(out.Columns, cc)
	}
	return out
}

// fuzzChunk decodes fuzz bytes into a chunk: each byte read picks a field's
// shape (string length, presence of statistics, value count), so any byte
// string yields some chunk and small inputs cover every branch.
func fuzzChunk(data []byte) *metafeat.TableInfo {
	pos := 0
	next := func() int {
		if pos >= len(data) {
			return 0
		}
		pos++
		return int(data[pos-1])
	}
	str := func() string {
		n := next() % 6
		start := pos
		pos += n
		if pos > len(data) {
			pos = len(data)
		}
		if start > len(data) {
			start = len(data)
		}
		return string(data[start:pos])
	}
	f64 := func() float64 { return float64(next()-128) / float64(next()+1) }
	ti := &metafeat.TableInfo{Name: str(), Comment: str(), RowCount: next() - 64}
	for ncols := next() % 4; ncols > 0; ncols-- {
		c := &metafeat.ColumnInfo{Name: str(), Comment: str(), DataType: str()}
		if shape := next(); shape%3 != 0 {
			c.Stats = &simdb.ColumnStats{
				RowCount: next(), NullCount: next(), NDV: next(), MinLen: next(), MaxLen: next(),
				AvgLen: f64(), NumericRatio: f64(), NumericMin: f64(), NumericMax: f64(),
			}
			if shape%3 == 2 {
				h := &simdb.Histogram{Kind: simdb.HistogramKind(next() % 3)}
				for nb := next() % 3; nb > 0; nb-- {
					h.Buckets = append(h.Buckets, simdb.Bucket{Lower: str(), Upper: str(), Count: next()})
				}
				c.Stats.Histogram = h
			}
		}
		switch nv := next() % 5; nv {
		case 0: // nil Values, as in Phase 1
		case 1:
			c.Values = []string{}
		default:
			for ; nv > 1; nv-- {
				c.Values = append(c.Values, str())
			}
		}
		ti.Columns = append(ti.Columns, c)
	}
	return ti
}

// chunkMutations returns one edit per field the keys frame: each bumps an
// int, flips a float's low bit, extends a string, or adds an element to a
// list. The metadata edits come back in meta, the edits of a column's
// values in cells: every one of them moves the Phase-1 frame, but only
// those that change a requested column's visible cells may move a Phase-2
// key. Every edit applies to a fresh clone.
func chunkMutations(ti *metafeat.TableInfo) (meta, cells []func(*metafeat.TableInfo)) {
	meta = []func(*metafeat.TableInfo){
		func(t *metafeat.TableInfo) { t.Name += "x" },
		func(t *metafeat.TableInfo) { t.Comment += "x" },
		func(t *metafeat.TableInfo) { t.RowCount++ },
		func(t *metafeat.TableInfo) { t.Columns = append(t.Columns, &metafeat.ColumnInfo{}) },
	}
	flip := func(v *float64) { *v = math.Float64frombits(math.Float64bits(*v) ^ 1) }
	for i, c := range ti.Columns {
		i := i
		col := func(f func(c *metafeat.ColumnInfo)) func(*metafeat.TableInfo) {
			return func(t *metafeat.TableInfo) { f(t.Columns[i]) }
		}
		meta = append(meta,
			col(func(c *metafeat.ColumnInfo) { c.Name += "x" }),
			col(func(c *metafeat.ColumnInfo) { c.Comment += "x" }),
			col(func(c *metafeat.ColumnInfo) { c.DataType += "x" }),
		)
		cells = append(cells,
			col(func(c *metafeat.ColumnInfo) { c.Values = append(c.Values, "") }),
			col(func(c *metafeat.ColumnInfo) { c.Values = append(c.Values, "y") }),
			col(func(c *metafeat.ColumnInfo) { c.Values = append([]string{""}, c.Values...) }),
			col(func(c *metafeat.ColumnInfo) { c.Values = append([]string{"z"}, c.Values...) }),
		)
		for v := range c.Values {
			v := v
			cells = append(cells, col(func(c *metafeat.ColumnInfo) { c.Values[v] += "x" }))
		}
		if c.Stats == nil {
			meta = append(meta, col(func(c *metafeat.ColumnInfo) { c.Stats = &simdb.ColumnStats{} }))
			continue
		}
		st := func(f func(s *simdb.ColumnStats)) func(*metafeat.TableInfo) {
			return col(func(c *metafeat.ColumnInfo) { f(c.Stats) })
		}
		meta = append(meta,
			col(func(c *metafeat.ColumnInfo) { c.Stats = nil }),
			st(func(s *simdb.ColumnStats) { s.RowCount++ }),
			st(func(s *simdb.ColumnStats) { s.NullCount++ }),
			st(func(s *simdb.ColumnStats) { s.NDV++ }),
			st(func(s *simdb.ColumnStats) { s.MinLen++ }),
			st(func(s *simdb.ColumnStats) { s.MaxLen++ }),
			st(func(s *simdb.ColumnStats) { flip(&s.AvgLen) }),
			st(func(s *simdb.ColumnStats) { flip(&s.NumericRatio) }),
			st(func(s *simdb.ColumnStats) { flip(&s.NumericMin) }),
			st(func(s *simdb.ColumnStats) { flip(&s.NumericMax) }),
		)
		if c.Stats.Histogram == nil {
			meta = append(meta, st(func(s *simdb.ColumnStats) { s.Histogram = &simdb.Histogram{} }))
			continue
		}
		meta = append(meta,
			st(func(s *simdb.ColumnStats) { s.Histogram = nil }),
			st(func(s *simdb.ColumnStats) { s.Histogram.Kind++ }),
			st(func(s *simdb.ColumnStats) { s.Histogram.Buckets = append(s.Histogram.Buckets, simdb.Bucket{}) }),
		)
		for b := range c.Stats.Histogram.Buckets {
			b := b
			meta = append(meta,
				st(func(s *simdb.ColumnStats) { s.Histogram.Buckets[b].Lower += "x" }),
				st(func(s *simdb.ColumnStats) { s.Histogram.Buckets[b].Upper += "x" }),
				st(func(s *simdb.ColumnStats) { s.Histogram.Buckets[b].Count++ }),
			)
		}
	}
	return meta, cells
}

// checkEqualKeysEqualInputs asserts the property the Phase-2 key rests on:
// two chunks whose keys are equal give the content tower the same input,
// token for token and span for span.
func checkEqualKeysEqualInputs(t *testing.T, m *adtd.Model, a, b *metafeat.TableInfo, cols []int, n int) {
	t.Helper()
	ia := m.Encoder().BuildContentInput(a, cols, n)
	ib := m.Encoder().BuildContentInput(b, cols, n)
	if !slices.Equal(ia.IDs, ib.IDs) || !slices.Equal(ia.ColSpans, ib.ColSpans) {
		t.Fatalf("equal Phase-2 keys, different content inputs:\n ids %v spans %v\n ids %v spans %v", ia.IDs, ia.ColSpans, ib.IDs, ib.ColSpans)
	}
}

// FuzzResultKeyFraming: on any chunk, the meta and content keys equal the
// streaming reference's and the latent key is the chunk's Phase-1 key.
// Changing any one framed field — the chunk's metadata, the requested
// columns, the cell budget, the histogram flag, the model, or a cell the
// content tower reads — changes the key that frames it; changing a cell it
// does not read (past the n-th non-empty one, an empty one, or one of a
// column not requested) leaves the Phase-2 key as it was, and then the
// content tower's input is the same too.
func FuzzResultKeyFraming(f *testing.F) {
	f.Add([]byte{}, false, 0)
	f.Add([]byte("\x03tab\x02cm\x05\x03\x01col\x00\x04INT\x02\x05\x01\x02\x03\x04\x10\x20\x30\x40\x50\x60\x70\x80\x01\x02\x02lo\x02hi\x07\x03\x02ab\x00"), true, 10)
	f.Add([]byte("\x04Zürich\x00\x00\x02\x01\x00\x00\x00\x00\x01\x03\xff\xfe\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00"), false, -3)
	f.Add([]byte("\x01t\x00\x03\x02\x01a\x00\x00\x00\x04\x00\x01b\x01c\x01b\x00\x00\x00\x03\x01d\x00"), false, 1)
	f.Add([]byte("\x01t\x00\x03\x02\x01a\x00\x00\x00\x04\x01x\x00\x01y\x01b\x00\x00\x00\x04\x01d\x01e\x00"), false, 4)
	m := keyModel(f)
	other := keyModel(f)
	dets := keyDetectors(f, m)
	f.Fuzz(func(t *testing.T, data []byte, hist bool, n int) {
		chunk := fuzzChunk(data)
		var cols []int
		for i := range chunk.Columns {
			if n&(1<<i) == 0 {
				cols = append(cols, i)
			}
		}
		d := dets[0]
		if hist {
			d = dets[1]
		}
		checkKeyParity(t, d, chunk, cols, n)

		meta := d.metaResultKey(m, chunk)
		content := contentKey(d, m, chunk, cols, n)
		metaMuts, cellMuts := chunkMutations(chunk)
		for i, mut := range metaMuts {
			c := cloneChunk(chunk)
			mut(c)
			if d.metaResultKey(m, c) == meta {
				t.Fatalf("metadata mutation %d left the meta key unchanged", i)
			}
			if contentKey(d, m, c, cols, n) == content {
				t.Fatalf("metadata mutation %d left the content key unchanged", i)
			}
		}
		for i, mut := range cellMuts {
			c := cloneChunk(chunk)
			mut(c)
			if d.metaResultKey(m, c) == meta {
				t.Fatalf("cell mutation %d left the meta key unchanged", i)
			}
			seen := false
			for _, col := range cols {
				seen = seen || !slices.Equal(refVisibleCells(chunk.Columns[col].Values, n), refVisibleCells(c.Columns[col].Values, n))
			}
			if moved := contentKey(d, m, c, cols, n) != content; moved != seen {
				t.Fatalf("cell mutation %d: content key moved %v, cells the model reads changed %v", i, moved, seen)
			}
			if !seen {
				checkEqualKeysEqualInputs(t, m, chunk, c, cols, n)
			}
		}
		moved := map[string]string{
			"n":     contentKey(d, m, chunk, cols, n+1),
			"model": contentKey(d, other, chunk, cols, n),
			"hist":  contentKey(&Detector{Opts: Options{UseHistogram: !hist}}, m, chunk, cols, n),
		}
		if len(chunk.Columns) > 0 {
			moved["cols"] = contentKey(d, m, chunk, append(slices.Clone(cols), 0), n)
		}
		for name, k := range moved {
			if k == content {
				t.Fatalf("changing %s left the content key unchanged", name)
			}
		}
		if (&Detector{Opts: Options{UseHistogram: !hist}}).metaResultKey(m, chunk) == meta || d.metaResultKey(other, chunk) == meta {
			t.Fatal("changing hist or the model left the meta key unchanged")
		}
	})
}

// cachedDetector is core's bench detector with the result tier on, warmed
// by one DetectTable of a test table over conn, which it returns with the
// table's name.
func cachedDetector(tb testing.TB) (*Detector, *simdb.Conn, string) {
	tb.Helper()
	base, ds := benchDetector(tb)
	opts := base.Opts
	opts.ResultCacheBytes = 16 << 20
	det, err := NewDetector(base.Model(), opts)
	if err != nil {
		tb.Fatal(err)
	}
	server := simdb.NewServer(simdb.NoLatency)
	server.LoadTables("tenant", ds.Test)
	conn, err := server.Connect(context.Background(), "tenant")
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { conn.Close() })
	table := ds.Test[0].Name
	tr, err := det.DetectTable(context.Background(), conn, "tenant", table)
	if err != nil {
		tb.Fatal(err)
	}
	if tr.ScannedColumns == 0 {
		tb.Fatal("the warm-up must reach Phase 2")
	}
	if s := det.Results().Stats(); s.Entries == 0 {
		tb.Fatalf("the warm-up populated no result entry: %+v", s)
	}
	return det, conn, table
}

// TestCachedDetectTableAllocs: a DetectTable on a sequential zero-latency
// tenant that the result tier answers — its table memo names both phases'
// rows — allocates at most 2 times: the TableResult it returns and its
// columns. The one-name table list and the memo's key stay on the stack, and
// the rows' keys are the memo's. Every other byte of the detect — the schema
// read's list, the table job and the report — is the storage of the last
// detect, which DetectTable releases (Report.Release); the schema read
// shares the table's metadata view, and a one-type admitted set is the type
// space's own slice. A ceiling set at the count keeps any new per-hit
// allocation from going unnoticed.
func TestCachedDetectTableAllocs(t *testing.T) {
	det, conn, table := cachedDetector(t)
	hits := det.Results().Stats().Hits
	cells := conn.Accounting().Snapshot().CellsRead
	runs := 20
	if raceEnabled {
		// A detect whose pooled storage the race detector dropped rebuilds
		// all of it; many runs keep the average near its expectation.
		runs = 400
	}
	allocs := testing.AllocsPerRun(runs, func() {
		if _, err := det.DetectTable(context.Background(), conn, "tenant", table); err != nil {
			t.Fatal(err)
		}
	})
	if det.Results().Stats().Hits == hits {
		t.Fatal("the repeat detects never hit the result tier")
	}
	if conn.Accounting().Snapshot().CellsRead != cells {
		t.Fatal("a repeat detect of the unchanged table scanned: its memo must answer it")
	}
	t.Logf("%.0f allocations per cached DetectTable", allocs)
	ceiling := 2.0
	if raceEnabled {
		// The race detector drops a quarter of sync.Pool's Puts, and a detect
		// whose storage was dropped allocates all of it anew: about 6 more
		// per detect over 400 runs.
		ceiling += 9
	}
	if allocs > ceiling {
		t.Fatalf("%.0f allocations per cached DetectTable, want ≤ %.0f", allocs, ceiling)
	}
}

// BenchmarkCachedDetectTable times a DetectTable the result tier answers.
func BenchmarkCachedDetectTable(b *testing.B) {
	det, conn, table := cachedDetector(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := det.DetectTable(context.Background(), conn, "tenant", table); err != nil {
			b.Fatal(err)
		}
	}
}
