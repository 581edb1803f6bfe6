package simdb

import (
	"context"
	"fmt"
	"sort"
	"strconv"
	"time"
)

// HistogramKind distinguishes the two histogram shapes databases build
// (§4.1 lists histogram type as a non-textual metadata feature).
type HistogramKind int

const (
	// EqualHeight buckets hold (approximately) equal numbers of values.
	EqualHeight HistogramKind = iota
	// EqualWidth buckets span equal numeric ranges; only built when the
	// column is predominantly numeric.
	EqualWidth
)

// String implements fmt.Stringer.
func (k HistogramKind) String() string {
	switch k {
	case EqualHeight:
		return "equal-height"
	case EqualWidth:
		return "equal-width"
	default:
		return fmt.Sprintf("HistogramKind(%d)", int(k))
	}
}

// Bucket is one histogram bucket.
type Bucket struct {
	Lower, Upper string
	Count        int
}

// Histogram summarizes a column's value distribution.
type Histogram struct {
	Kind    HistogramKind
	Buckets []Bucket
}

// ColumnStats is the statistics block produced by ANALYZE TABLE: the
// "technical level" and "content level" metadata (§1) that the metadata
// tower consumes without ever scanning the column at detection time.
type ColumnStats struct {
	RowCount     int
	NullCount    int
	NDV          int // number of distinct values
	MinLen       int
	MaxLen       int
	AvgLen       float64
	NumericRatio float64 // fraction of non-null values that parse as numbers
	NumericMin   float64 // valid only when NumericRatio > 0
	NumericMax   float64
	Histogram    *Histogram
}

// AnalyzeOptions configures ANALYZE TABLE.
type AnalyzeOptions struct {
	// Buckets is the histogram bucket count (default 8).
	Buckets int
}

// AnalyzeTable computes statistics and histograms for every column of a
// table, mimicking MySQL's ANALYZE TABLE ... UPDATE HISTOGRAM. The work
// happens inside the database server, so the detection service pays only a
// query round trip, not a per-row transfer. The statement's reply is the
// refreshed information_schema view — what TableMetadata returns from now
// on — so a client that just analyzed need not ask again.
func (c *Conn) AnalyzeTable(ctx context.Context, table string, opts AnalyzeOptions) (_ *TableMeta, err error) {
	start := time.Now()
	defer func() { observeOp("analyze", start, err) }()
	if err := c.check(); err != nil {
		return nil, err
	}
	st, ok := c.db.tables[table]
	if !ok {
		return nil, fmt.Errorf("simdb: unknown table %s.%s", c.db.name, table)
	}
	buckets := opts.Buckets
	if buckets <= 0 {
		buckets = 8
	}
	d := c.server.decide(opQuery, c.db.name, table)
	cost := c.server.latency.QueryRoundTrip + time.Duration(st.rows)*c.server.latency.PerCell/10
	if err := c.server.latency.sleep(ctx, scaleDur(cost, d.slowFactor)); err != nil {
		return nil, err
	}
	c.server.acct.addQuery()
	if d.err != nil {
		return nil, d.err
	}
	stats := make([]*ColumnStats, len(st.columns))
	for i, col := range st.columns {
		stats[i] = computeStats(col.values, buckets)
	}
	return st.publish(stats), nil
}

// ComputeStats derives ColumnStats from raw values ("" = NULL). It is the
// same computation AnalyzeTable performs server-side; it is exported so that
// training code can attach identical statistics to corpus tables without a
// database round trip.
func ComputeStats(values []string, buckets int) *ColumnStats {
	return computeStats(values, buckets)
}

// computeStats derives ColumnStats from raw values ("" = NULL).
func computeStats(values []string, buckets int) *ColumnStats {
	s := &ColumnStats{RowCount: len(values)}
	distinct := make(map[string]bool)
	var nonNull []string
	numeric := 0
	var nums []float64
	totalLen := 0
	s.MinLen = 1 << 30
	for _, v := range values {
		if v == "" {
			s.NullCount++
			continue
		}
		nonNull = append(nonNull, v)
		distinct[v] = true
		if len(v) < s.MinLen {
			s.MinLen = len(v)
		}
		if len(v) > s.MaxLen {
			s.MaxLen = len(v)
		}
		totalLen += len(v)
		if f, err := strconv.ParseFloat(v, 64); err == nil {
			numeric++
			nums = append(nums, f)
		}
	}
	s.NDV = len(distinct)
	if len(nonNull) == 0 {
		s.MinLen = 0
		return s
	}
	s.AvgLen = float64(totalLen) / float64(len(nonNull))
	s.NumericRatio = float64(numeric) / float64(len(nonNull))
	if len(nums) > 0 {
		s.NumericMin, s.NumericMax = nums[0], nums[0]
		for _, f := range nums {
			if f < s.NumericMin {
				s.NumericMin = f
			}
			if f > s.NumericMax {
				s.NumericMax = f
			}
		}
	}
	if s.NumericRatio >= 0.9 {
		s.Histogram = equalWidthHistogram(nums, buckets)
	} else {
		s.Histogram = equalHeightHistogram(nonNull, buckets)
	}
	return s
}

func equalWidthHistogram(nums []float64, buckets int) *Histogram {
	h := &Histogram{Kind: EqualWidth}
	if len(nums) == 0 {
		return h
	}
	lo, hi := nums[0], nums[0]
	for _, f := range nums {
		if f < lo {
			lo = f
		}
		if f > hi {
			hi = f
		}
	}
	if hi == lo {
		h.Buckets = []Bucket{{Lower: fmtNum(lo), Upper: fmtNum(hi), Count: len(nums)}}
		return h
	}
	width := (hi - lo) / float64(buckets)
	counts := make([]int, buckets)
	for _, f := range nums {
		b := int((f - lo) / width)
		if b >= buckets {
			b = buckets - 1
		}
		counts[b]++
	}
	for i, cnt := range counts {
		h.Buckets = append(h.Buckets, Bucket{
			Lower: fmtNum(lo + float64(i)*width),
			Upper: fmtNum(lo + float64(i+1)*width),
			Count: cnt,
		})
	}
	return h
}

func equalHeightHistogram(values []string, buckets int) *Histogram {
	h := &Histogram{Kind: EqualHeight}
	sorted := append([]string(nil), values...)
	sort.Strings(sorted)
	n := len(sorted)
	if n == 0 {
		return h
	}
	if buckets > n {
		buckets = n
	}
	per := n / buckets
	rem := n % buckets
	start := 0
	for b := 0; b < buckets; b++ {
		size := per
		if b < rem {
			size++
		}
		end := start + size
		h.Buckets = append(h.Buckets, Bucket{Lower: sorted[start], Upper: sorted[end-1], Count: size})
		start = end
	}
	return h
}

func fmtNum(f float64) string { return strconv.FormatFloat(f, 'g', 6, 64) }
