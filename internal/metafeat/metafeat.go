// Package metafeat defines the unified table view consumed by the detection
// models and extracts the non-textual metadata feature vector Mᶜₙ of §4.1
// (data type, statistics, histogram shape). It bridges the two data sources
// a detector sees: corpus tables during on-premise training and
// simdb metadata/scans during cloud prediction.
package metafeat

import (
	"math"

	"repro/internal/corpus"
	"repro/internal/simdb"
)

// ColumnInfo is the unified per-column view.
type ColumnInfo struct {
	Name     string
	Comment  string
	DataType string
	// Stats holds ANALYZE-produced statistics; nil when histograms/stats
	// are unavailable (the default Taste variant).
	Stats *simdb.ColumnStats
	// Values holds column content when available: during training, or in
	// P2 after a scan. Nil in P1.
	Values []string
}

// TableInfo is the unified per-table view.
type TableInfo struct {
	Name     string
	Comment  string
	RowCount int
	Columns  []*ColumnInfo
}

// FromCorpusTable converts a generated table into the unified view,
// including content. When withStats is true the same statistics the
// database's ANALYZE TABLE would compute are attached (training mirrors the
// "Taste with histogram" deployment).
func FromCorpusTable(t *corpus.Table, withStats bool, buckets int) *TableInfo {
	ti := &TableInfo{Name: t.Name, Comment: t.Comment, RowCount: t.Rows()}
	for _, c := range t.Columns {
		ci := &ColumnInfo{Name: c.Name, Comment: c.Comment, DataType: c.SQLType, Values: c.Values}
		if withStats {
			ci.Stats = simdb.ComputeStats(c.Values, buckets)
		}
		ti.Columns = append(ti.Columns, ci)
	}
	return ti
}

// FromTableMeta converts database metadata into the unified view (no
// content). Stats ride along if the table was analyzed.
func FromTableMeta(tm *simdb.TableMeta) *TableInfo {
	return new(Scratch).Set(tm)
}

// Scratch holds one table's unified view and its chunks in storage that the
// next Set reuses, for a caller that builds a view per request (a detect's
// table job). What Set and Split return lives until the next Set.
type Scratch struct {
	table  TableInfo
	cols   []ColumnInfo
	ptrs   []*ColumnInfo
	chunks []*TableInfo
	heads  []TableInfo
}

// Set makes the scratch's view the unified view of tm, as FromTableMeta
// builds it, and returns it. A table costs no allocation once the scratch
// has held one as wide.
func (s *Scratch) Set(tm *simdb.TableMeta) *TableInfo {
	s.table = TableInfo{Name: tm.Name, Comment: tm.Comment, RowCount: tm.RowCount}
	n := len(tm.Columns)
	if n == 0 {
		return &s.table
	}
	if cap(s.cols) < n {
		s.cols = make([]ColumnInfo, n)
		s.ptrs = make([]*ColumnInfo, n)
	}
	s.cols, s.ptrs = s.cols[:n], s.ptrs[:n]
	for i := range tm.Columns {
		cm := &tm.Columns[i]
		s.cols[i] = ColumnInfo{
			Name:     cm.Name,
			Comment:  cm.Comment,
			DataType: cm.DataType,
			Stats:    cm.Stats,
		}
		s.ptrs[i] = &s.cols[i]
	}
	s.table.Columns = s.ptrs
	return &s.table
}

// Clear drops what the scratch's view referred to (names, statistics,
// values), keeping its storage for the next Set.
func (s *Scratch) Clear() {
	s.table = TableInfo{}
	clear(s.cols)
	clear(s.heads)
}

// Split is TableInfo.Split of the scratch's view, its chunk list and chunk
// headers kept in the scratch.
func (s *Scratch) Split(l int) []*TableInfo {
	s.chunks, s.heads = s.table.appendSplit(s.chunks[:0], s.heads, l)
	return s.chunks
}

// Split partitions a table into chunks of at most l columns, implementing
// the column-splitting threshold of §6.1.2. Chunks share the table-level
// metadata. l ≤ 0 means no splitting.
func (t *TableInfo) Split(l int) []*TableInfo {
	out, _ := t.appendSplit(nil, nil, l)
	return out
}

// appendSplit appends t's chunks to dst: t itself when it needs no split,
// else headers carved from heads, which is grown when short and returned.
func (t *TableInfo) appendSplit(dst []*TableInfo, heads []TableInfo, l int) ([]*TableInfo, []TableInfo) {
	if l <= 0 || len(t.Columns) <= l {
		return append(dst, t), heads
	}
	n := (len(t.Columns) + l - 1) / l
	if cap(heads) < n {
		heads = make([]TableInfo, n)
	}
	heads = heads[:n]
	for k := range heads {
		start := k * l
		end := min(start+l, len(t.Columns))
		heads[k] = TableInfo{
			Name:     t.Name,
			Comment:  t.Comment,
			RowCount: t.RowCount,
			Columns:  t.Columns[start:end],
		}
		dst = append(dst, &heads[k])
	}
	return dst, heads
}

// sqlTypes is the one-hot vocabulary for declared data types.
var sqlTypes = []string{"VARCHAR", "INT", "BIGINT", "DOUBLE", "DECIMAL", "DATE", "DATETIME", "TINYINT"}

// NonTextualDim is the width of the Mᶜₙ feature vector: the SQL-type
// one-hot block plus 14 statistics/histogram features.
const NonTextualDim = 8 + 14

// NonTextual extracts the Mᶜₙ feature vector for a column. includeStats
// gates the statistics/histogram block: the default Taste variant runs
// without it, "Taste with histogram" includes it (§6.2). Features are
// scaled to roughly unit range so they can be concatenated with latent
// representations without normalization layers.
func NonTextual(c *ColumnInfo, rowCount int, includeStats bool) []float64 {
	f := make([]float64, NonTextualDim)
	for i, t := range sqlTypes {
		if c.DataType == t {
			f[i] = 1
			break
		}
	}
	base := len(sqlTypes)
	f[base] = math.Log1p(float64(rowCount)) / 16
	if !includeStats || c.Stats == nil {
		return f
	}
	s := c.Stats
	f[base+1] = 1 // hasStats flag
	nonNull := s.RowCount - s.NullCount
	if s.RowCount > 0 {
		f[base+2] = float64(s.NullCount) / float64(s.RowCount)
	}
	if nonNull > 0 {
		f[base+3] = float64(s.NDV) / float64(nonNull)
	}
	f[base+4] = float64(s.MinLen) / 32
	f[base+5] = float64(s.MaxLen) / 32
	f[base+6] = s.AvgLen / 32
	f[base+7] = s.NumericRatio
	f[base+8] = signedLog(s.NumericMin)
	f[base+9] = signedLog(s.NumericMax)
	if h := s.Histogram; h != nil && len(h.Buckets) > 0 {
		switch h.Kind {
		case simdb.EqualHeight:
			f[base+10] = 1
		case simdb.EqualWidth:
			f[base+11] = 1
		}
		f[base+12] = float64(len(h.Buckets)) / 16
		// Bucket skew: max bucket count over mean bucket count, capped.
		maxCount, total := 0, 0
		for _, b := range h.Buckets {
			total += b.Count
			if b.Count > maxCount {
				maxCount = b.Count
			}
		}
		if total > 0 {
			skew := float64(maxCount) * float64(len(h.Buckets)) / float64(total)
			f[base+13] = math.Min(skew, 8) / 8
		}
	}
	return f
}

// signedLog compresses a value of arbitrary magnitude into [-1, 1].
func signedLog(v float64) float64 {
	s := math.Copysign(math.Log1p(math.Abs(v)), v) / 24
	return math.Max(-1, math.Min(1, s))
}
