package adtd

import (
	"fmt"
	"strings"

	"repro/internal/metafeat"
	"repro/internal/tokenizer"
)

// Encoder builds model inputs (token id sequences plus anchors) from the
// unified table view. It is stateless and safe for concurrent use.
type Encoder struct {
	Tok *tokenizer.Tokenizer
	Cfg Config
}

// MetaInput is the metadata tower's input for one table (or table chunk):
// the serialized textual metadata Mᶜₜ plus per-column anchors and the
// non-textual features Mᶜₙ.
//
// Layout: [TAB] <table name> [SEP] <table comment>   (≤ TableTokens)
// then per column: [COL] <col name> [SEP] <col comment> [SEP] <data type>
// (≤ ColTokens). The latent at each [COL] position is the column's metadata
// representation.
type MetaInput struct {
	IDs        []int
	Segments   []int // 0 = table-level metadata, 1 = column metadata
	ColAnchors []int // position of each column's [COL] token
	// ColSpans holds each column's [start, end) token range; the column's
	// metadata representation is mean-pooled over this span.
	ColSpans   [][2]int
	NonTextual [][]float64
}

// Len returns the sequence length.
func (in *MetaInput) Len() int { return len(in.IDs) }

// BuildMetaInput serializes a table's metadata. includeStats gates the
// statistics/histogram block of the non-textual features.
func (e *Encoder) BuildMetaInput(t *metafeat.TableInfo, includeStats bool) *MetaInput {
	in := &MetaInput{}
	sep := e.Tok.MustID(tokenizer.SEP)

	// Table-level metadata, appended in place and truncated by re-slicing
	// (same ids as building a separate slice, without the intermediates).
	in.IDs = append(in.IDs, e.Tok.MustID(tokenizer.TAB))
	in.IDs = e.Tok.EncodeAppend(in.IDs, t.Name)
	if t.Comment != "" {
		in.IDs = append(in.IDs, sep)
		in.IDs = e.Tok.EncodeAppend(in.IDs, t.Comment)
	}
	in.IDs = truncate(in.IDs, e.Cfg.TableTokens)
	for range in.IDs {
		in.Segments = append(in.Segments, 0)
	}

	// Per-column metadata.
	for _, c := range t.Columns {
		start := len(in.IDs)
		in.ColAnchors = append(in.ColAnchors, start)
		in.IDs = append(in.IDs, e.Tok.MustID(tokenizer.COL))
		in.IDs = e.Tok.EncodeAppend(in.IDs, c.Name)
		if c.Comment != "" {
			in.IDs = append(in.IDs, sep)
			in.IDs = e.Tok.EncodeAppend(in.IDs, c.Comment)
		}
		in.IDs = append(in.IDs, sep)
		in.IDs = e.Tok.EncodeAppend(in.IDs, strings.ToLower(c.DataType))
		in.IDs = truncate(in.IDs, start+e.Cfg.ColTokens)
		for len(in.Segments) < len(in.IDs) {
			in.Segments = append(in.Segments, 1)
		}
		in.ColSpans = append(in.ColSpans, [2]int{start, len(in.IDs)})
		in.NonTextual = append(in.NonTextual, metafeat.NonTextual(c, t.RowCount, includeStats))
	}
	if len(in.IDs) > e.Cfg.MaxSeq {
		panic(fmt.Sprintf("adtd: metadata sequence %d exceeds MaxSeq %d; lower the column split threshold", len(in.IDs), e.Cfg.MaxSeq))
	}
	return in
}

// ContentInput is the content tower's input: the serialized cell values Dᶜ
// of the selected columns.
//
// Layout per selected column: [VAL] then for each of the first n non-empty
// cells: [CLS] <length-bucket token> <cell pieces> (≤ CellTokens). The
// latent at each [VAL] position is the column's content representation.
type ContentInput struct {
	IDs        []int
	ValAnchors []int // position of each selected column's [VAL] token
	// ColSpans holds each selected column's [start, end) range; the content
	// representation is mean-pooled over it, and it is the column's half of
	// the per-column attention restriction of §6.4: a cell attends to all
	// metadata but only to content positions of its own column.
	ColSpans [][2]int
	Columns  []int // selected column indices within the TableInfo
}

// Len returns the sequence length.
func (in *ContentInput) Len() int { return len(in.IDs) }

// BuildContentInput serializes content for the selected columns (indices
// into t.Columns), using the first n non-empty cell values of each (§6.1.2).
// Columns must have Values populated (from training data or a P2 scan).
func (e *Encoder) BuildContentInput(t *metafeat.TableInfo, cols []int, n int) *ContentInput {
	in := &ContentInput{Columns: append([]int(nil), cols...)}
	for _, ci := range cols {
		c := t.Columns[ci]
		start := len(in.IDs)
		in.ValAnchors = append(in.ValAnchors, start)
		in.IDs = append(in.IDs, e.Tok.MustID(tokenizer.VAL))
		used := 0
		for _, v := range c.Values {
			if used >= n {
				break
			}
			if v == "" {
				continue // §6.1.2: skip empty cells, they contribute nothing
			}
			used++
			mark := len(in.IDs)
			in.IDs = append(in.IDs, e.Tok.MustID(tokenizer.CLS), e.Tok.ID(LengthBucketToken(len(v))))
			in.IDs = e.Tok.EncodeAppend(in.IDs, v)
			// +2: the [CLS] and length tokens.
			in.IDs = truncate(in.IDs, mark+e.Cfg.CellTokens+2)
		}
		in.ColSpans = append(in.ColSpans, [2]int{start, len(in.IDs)})
	}
	return in
}

// LengthBucketToken names the value-length bucket token included before each
// cell's pieces. Cell truncation to CellTokens pieces would otherwise erase
// the length signal that separates e.g. phone numbers from credit card
// numbers; real content-based models see the full value, so the bucket
// token restores information the truncation removed rather than adding any.
func LengthBucketToken(n int) string {
	bucket := n
	if bucket > 24 {
		bucket = 24
	}
	return lengthBuckets[bucket/2]
}

// lengthBuckets precomputes every bucket token so the per-cell hot path
// never formats strings.
var lengthBuckets = func() []string {
	var out []string
	for n := 0; n <= 24; n += 2 {
		out = append(out, fmt.Sprintf("len%d", n))
	}
	return out
}()

// LengthBucketTokens enumerates every length-bucket token, for vocabulary
// construction.
func LengthBucketTokens() []string {
	return append([]string(nil), lengthBuckets...)
}

func truncate(ids []int, max int) []int {
	if len(ids) > max {
		return ids[:max]
	}
	return ids
}
