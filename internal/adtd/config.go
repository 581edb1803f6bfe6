// Package adtd implements the Asymmetric Double-Tower Detection model of §4:
// a metadata tower and a content tower built from shared Transformer blocks,
// where the content tower asymmetrically attends over the concatenation of
// metadata and content latents. The metadata tower alone serves Phase 1; the
// full model serves Phase 2, reusing the per-layer metadata latents through
// a latent cache. Training combines the two tasks with the automatic
// weighted loss of §4.4; the encoder can be pre-trained with masked language
// modeling over a serialized table corpus (§4.2.1).
package adtd

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/corpus"
)

// Config carries the five BERT-style parameters of §2.3 plus the input
// token budgets of §4.2.1 and classifier sizes of §4.3.
type Config struct {
	// Layers (L), Heads (A), MaxSeq (W_max), Intermediate (I), Hidden (H).
	Layers       int
	Heads        int
	MaxSeq       int
	Intermediate int
	Hidden       int

	// TableTokens is the token budget for table-level metadata; ColTokens
	// per column's metadata; CellTokens per cell value.
	TableTokens int
	ColTokens   int
	CellTokens  int

	// MetaClassifierHidden and ContentClassifierHidden size the two
	// classifier heads (500 and 1000 at paper scale).
	MetaClassifierHidden    int
	ContentClassifierHidden int

	// SymmetricContent disables the asymmetric dependency of §4.2.3: the
	// content tower attends only over content latents instead of
	// [metadata ⊕ content]. Used by the asymmetric-attention ablation.
	SymmetricContent bool
}

// PaperScale is the configuration of the paper's deployed model (TinyBERT
// encoder, 14.5 M parameters). It is recorded for fidelity; training it in
// pure Go on CPU is possible but far too slow for the experiment sweeps.
func PaperScale() Config {
	return Config{
		Layers: 4, Heads: 12, MaxSeq: 512, Intermediate: 1200, Hidden: 312,
		TableTokens: 150, ColTokens: 10, CellTokens: 10,
		MetaClassifierHidden: 500, ContentClassifierHidden: 1000,
	}
}

// ReproScale is the default scaled-down configuration used throughout the
// reproduction: identical architecture, CPU-trainable in seconds.
func ReproScale() Config {
	return Config{
		Layers: 2, Heads: 4, MaxSeq: 512, Intermediate: 128, Hidden: 64,
		TableTokens: 12, ColTokens: 6, CellTokens: 3,
		MetaClassifierHidden: 64, ContentClassifierHidden: 128,
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	switch {
	case c.Layers <= 0 || c.Heads <= 0 || c.Hidden <= 0 || c.Intermediate <= 0:
		return fmt.Errorf("adtd: non-positive model dimensions: %+v", c)
	case c.Hidden%c.Heads != 0:
		return fmt.Errorf("adtd: hidden %d not divisible by heads %d", c.Hidden, c.Heads)
	case c.TableTokens < 1 || c.ColTokens < 2 || c.CellTokens < 1:
		return fmt.Errorf("adtd: token budgets too small: %+v", c)
	case c.MaxSeq < c.TableTokens+c.ColTokens:
		return fmt.Errorf("adtd: MaxSeq %d cannot hold one table and one column", c.MaxSeq)
	}
	return nil
}

// TypeSpace is the ordered semantic type domain S the classifiers predict
// over. Index 0 is always the background type (corpus.NullType): columns
// without any semantic type are trained toward it, which lets Phase 1
// confidently skip them (§6.6) — but it is never reported as an admitted
// type and is excluded from F1 scoring.
type TypeSpace struct {
	names []string
	index map[string]int
	// alone is a copy of names, behind NameSlice.
	alone []string
}

// NewTypeSpace builds a type space over the given type names (sorted for
// determinism); the background type is prepended automatically. A repeated
// name keeps its first index.
func NewTypeSpace(typeNames []string) *TypeSpace {
	sorted := slices.Clone(typeNames)
	sort.Strings(sorted)
	ts := &TypeSpace{index: make(map[string]int, len(sorted)+1)}
	for _, n := range append([]string{corpus.NullType}, sorted...) {
		if _, ok := ts.index[n]; !ok {
			ts.index[n] = len(ts.names)
			ts.names = append(ts.names, n)
		}
	}
	ts.alone = slices.Clone(ts.names)
	return ts
}

// Len returns the number of classes including the background type.
func (ts *TypeSpace) Len() int { return len(ts.names) }

// Name returns the type name at index i.
func (ts *TypeSpace) Name(i int) string { return ts.names[i] }

// Index returns the class index of a type name.
func (ts *TypeSpace) Index(name string) (int, bool) {
	i, ok := ts.index[name]
	return i, ok
}

// NameSlice returns []string{Name(i)} without allocating: one slice per type,
// shared by every caller and read-only (writing to it would change later
// answers, never the type space), capped so an append copies.
func (ts *TypeSpace) NameSlice(i int) []string { return ts.alone[i : i+1 : i+1] }

// Names returns a copy of all class names in index order.
func (ts *TypeSpace) Names() []string { return append([]string(nil), ts.names...) }

// Targets builds the multi-label target vector for a column's ground-truth
// labels; empty labels target the background type.
func (ts *TypeSpace) Targets(labels []string) []float64 {
	v := make([]float64, len(ts.names))
	if len(labels) == 0 {
		v[0] = 1
		return v
	}
	for _, l := range labels {
		if i, ok := ts.index[l]; ok {
			v[i] = 1
		}
	}
	return v
}
