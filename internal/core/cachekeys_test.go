package core

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"testing"

	"repro/internal/adtd"
	"repro/internal/corpus"
	"repro/internal/metafeat"
	"repro/internal/simdb"
)

// The streaming reference: every key as it was built before keys were
// framed into one buffer — each field written through a hash.Hash, the key
// string rendered by fmt. The production keys must match it byte for byte,
// so that framing them differently never orphans a cached entry or lets two
// inputs share one.

func refMetaResultKey(m *adtd.Model, hist bool, chunk *metafeat.TableInfo) string {
	h := sha256.New()
	refHashTableInfo(h, chunk)
	return fmt.Sprintf("p1|g%d|h%v|%s", m.Generation(), hist, hex.EncodeToString(h.Sum(nil)))
}

func refContentResultKey(m *adtd.Model, hist bool, chunk *metafeat.TableInfo, cols []int, n int) string {
	h := sha256.New()
	refHashTableInfo(h, chunk)
	refHashInt(h, len(cols))
	for _, c := range cols {
		refHashInt(h, c)
	}
	refHashInt(h, n)
	return fmt.Sprintf("p2|g%d|h%v|%s", m.Generation(), hist, hex.EncodeToString(h.Sum(nil)))
}

func refCacheKey(m *adtd.Model, hist bool, dbName, table string, chunk int) string {
	return fmt.Sprintf("g%d/%d:%s/%d:%s#%d/h=%v", m.Generation(), len(dbName), dbName, len(table), table, chunk, hist)
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
// generation, which is process-unique per model.
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

// checkKeyParity asserts that the meta, content and latent keys of chunk
// equal the streaming reference's.
func checkKeyParity(t *testing.T, m *adtd.Model, hist bool, chunk *metafeat.TableInfo, cols []int, n int, db string, ci int) {
	t.Helper()
	d := &Detector{Opts: Options{UseHistogram: hist}}
	if got, want := d.metaResultKey(m, chunk), refMetaResultKey(m, hist, chunk); got != want {
		t.Fatalf("meta key %q, reference %q", got, want)
	}
	if got, want := d.contentResultKey(m, chunk, cols, n), refContentResultKey(m, hist, chunk, cols, n); got != want {
		t.Fatalf("content key %q, reference %q", got, want)
	}
	if got, want := d.cacheKey(m, db, chunk.Name, ci), refCacheKey(m, hist, db, chunk.Name, ci); got != want {
		t.Fatalf("latent key %q, reference %q", got, want)
	}
}

// TestResultKeysMatchStreamingReference: over WikiTable chunks — metadata
// only (nil Values, as Phase 1 sees them), with empty Values, and with the
// scanned content Phase 2 hashes; with and without ANALYZE statistics and
// their histogram buckets — and over a hand-built chunk of empty strings,
// non-ASCII and invalid UTF-8, every key is byte-identical to the streaming
// reference.
func TestResultKeysMatchStreamingReference(t *testing.T) {
	m := keyModel(t)
	ds := corpus.Generate(corpus.DefaultRegistry(), corpus.WikiTableProfile(30), 11)
	chunks := 0
	for _, hist := range []bool{false, true} {
		for ti, tb := range ds.Test {
			info := metafeat.FromCorpusTable(tb, hist, 8)
			for ci, chunk := range info.Split(DefaultOptions().SplitThreshold) {
				all := make([]int, len(chunk.Columns))
				for i := range all {
					all[i] = i
				}
				checkKeyParity(t, m, hist, chunk, all, 10, "tenant", ci)
				checkKeyParity(t, m, hist, chunk, all[len(all)/2:], ti, "", ci)

				meta := cloneChunk(chunk)
				for i, c := range meta.Columns {
					if i%2 == 0 {
						c.Values = nil
					} else {
						c.Values = []string{}
					}
				}
				checkKeyParity(t, m, hist, meta, nil, 0, "db.schema", ci)
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
	for _, hist := range []bool{false, true} {
		checkKeyParity(t, m, hist, odd, []int{0, 1, 2}, 7, "ünï/cødé:#", 3)
		checkKeyParity(t, m, hist, odd, []int{}, -5, "", 0)
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
// list. Every edit applies to a fresh clone.
func chunkMutations(ti *metafeat.TableInfo) []func(*metafeat.TableInfo) {
	muts := []func(*metafeat.TableInfo){
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
		muts = append(muts,
			col(func(c *metafeat.ColumnInfo) { c.Name += "x" }),
			col(func(c *metafeat.ColumnInfo) { c.Comment += "x" }),
			col(func(c *metafeat.ColumnInfo) { c.DataType += "x" }),
			col(func(c *metafeat.ColumnInfo) { c.Values = append(c.Values, "") }),
		)
		for v := range c.Values {
			v := v
			muts = append(muts, col(func(c *metafeat.ColumnInfo) { c.Values[v] += "x" }))
		}
		if c.Stats == nil {
			muts = append(muts, col(func(c *metafeat.ColumnInfo) { c.Stats = &simdb.ColumnStats{} }))
			continue
		}
		st := func(f func(s *simdb.ColumnStats)) func(*metafeat.TableInfo) {
			return col(func(c *metafeat.ColumnInfo) { f(c.Stats) })
		}
		muts = append(muts,
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
			muts = append(muts, st(func(s *simdb.ColumnStats) { s.Histogram = &simdb.Histogram{} }))
			continue
		}
		muts = append(muts,
			st(func(s *simdb.ColumnStats) { s.Histogram = nil }),
			st(func(s *simdb.ColumnStats) { s.Histogram.Kind++ }),
			st(func(s *simdb.ColumnStats) { s.Histogram.Buckets = append(s.Histogram.Buckets, simdb.Bucket{}) }),
		)
		for b := range c.Stats.Histogram.Buckets {
			b := b
			muts = append(muts,
				st(func(s *simdb.ColumnStats) { s.Histogram.Buckets[b].Lower += "x" }),
				st(func(s *simdb.ColumnStats) { s.Histogram.Buckets[b].Upper += "x" }),
				st(func(s *simdb.ColumnStats) { s.Histogram.Buckets[b].Count++ }),
			)
		}
	}
	return muts
}

// FuzzResultKeyFraming: on any chunk, the meta, content and latent keys
// equal the streaming reference's, and changing any one framed field — of
// the chunk, the requested columns, the cell budget, the histogram flag,
// the database name or the chunk index — changes the key that frames it.
func FuzzResultKeyFraming(f *testing.F) {
	f.Add([]byte{}, false, 0, "db")
	f.Add([]byte("\x03tab\x02cm\x05\x03\x01col\x00\x04INT\x02\x05\x01\x02\x03\x04\x10\x20\x30\x40\x50\x60\x70\x80\x01\x02\x02lo\x02hi\x07\x03\x02ab\x00"), true, 10, "tenant")
	f.Add([]byte("\x04Zürich\x00\x00\x02\x01\x00\x00\x00\x00\x01\x03\xff\xfe\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00"), false, -3, "")
	m := keyModel(f)
	other := keyModel(f)
	f.Fuzz(func(t *testing.T, data []byte, hist bool, n int, db string) {
		chunk := fuzzChunk(data)
		var cols []int
		for i := range chunk.Columns {
			if n&(1<<i) == 0 {
				cols = append(cols, i)
			}
		}
		ci := len(data) % 4
		checkKeyParity(t, m, hist, chunk, cols, n, db, ci)

		d := &Detector{Opts: Options{UseHistogram: hist}}
		meta := d.metaResultKey(m, chunk)
		content := d.contentResultKey(m, chunk, cols, n)
		latent := d.cacheKey(m, db, chunk.Name, ci)
		for i, mut := range chunkMutations(chunk) {
			c := cloneChunk(chunk)
			mut(c)
			if d.metaResultKey(m, c) == meta {
				t.Fatalf("mutation %d left the meta key unchanged", i)
			}
			if d.contentResultKey(m, c, cols, n) == content {
				t.Fatalf("mutation %d left the content key unchanged", i)
			}
		}
		for name, k := range map[string]string{
			"cols":  d.contentResultKey(m, chunk, append(append([]int(nil), cols...), 0), n),
			"n":     d.contentResultKey(m, chunk, cols, n+1),
			"model": d.contentResultKey(other, chunk, cols, n),
			"hist":  (&Detector{Opts: Options{UseHistogram: !hist}}).contentResultKey(m, chunk, cols, n),
		} {
			if k == content {
				t.Fatalf("changing %s left the content key unchanged", name)
			}
		}
		if (&Detector{Opts: Options{UseHistogram: !hist}}).metaResultKey(m, chunk) == meta || d.metaResultKey(other, chunk) == meta {
			t.Fatal("changing hist or the model left the meta key unchanged")
		}
		for name, k := range map[string]string{
			"db":    d.cacheKey(m, db+"x", chunk.Name, ci),
			"table": d.cacheKey(m, db, chunk.Name+"x", ci),
			"chunk": d.cacheKey(m, db, chunk.Name, ci+1),
			"model": d.cacheKey(other, db, chunk.Name, ci),
			"hist":  (&Detector{Opts: Options{UseHistogram: !hist}}).cacheKey(m, db, chunk.Name, ci),
		} {
			if k == latent {
				t.Fatalf("changing %s left the latent key unchanged", name)
			}
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

// TestCachedDetectTableAllocs: a DetectTable that the result tier answers —
// both phases hit — allocates no more than a bounded handful per call. Each
// key is framed in one pooled buffer and hashed once; streaming every field
// through a hash.Hash cost several hundred allocations here.
func TestCachedDetectTableAllocs(t *testing.T) {
	det, conn, table := cachedDetector(t)
	hits := det.Results().Stats().Hits
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := det.DetectTable(context.Background(), conn, "tenant", table); err != nil {
			t.Fatal(err)
		}
	})
	if det.Results().Stats().Hits == hits {
		t.Fatal("the repeat detects never hit the result tier")
	}
	t.Logf("%.0f allocations per cached DetectTable", allocs)
	if allocs > 100 {
		t.Fatalf("%.0f allocations per cached DetectTable, want ≤ 100", allocs)
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
