package adtd

import (
	"bytes"
	"math"
	"sync"
	"testing"

	"repro/internal/corpus"
	"repro/internal/metafeat"
	"repro/internal/tensor"
)

// tinyModel builds a small model plus a small labelled corpus, shared by
// the structural tests.
func tinyModel(t *testing.T) (*Model, *corpus.Dataset) {
	t.Helper()
	ds := corpus.Generate(corpus.DefaultRegistry(), corpus.WikiTableProfile(30), 1)
	tok := BuildVocabulary(ds.Train, ds.Registry.Names(), 2000)
	types := NewTypeSpace(ds.Registry.Names())
	cfg := ReproScale()
	cfg.Layers, cfg.Hidden, cfg.Heads, cfg.Intermediate = 2, 32, 2, 48
	cfg.MetaClassifierHidden, cfg.ContentClassifierHidden = 32, 32
	m, err := New(cfg, tok, types, 7)
	if err != nil {
		t.Fatal(err)
	}
	m.SetEval()
	return m, ds
}

func TestConfigValidate(t *testing.T) {
	if err := ReproScale().Validate(); err != nil {
		t.Fatalf("ReproScale invalid: %v", err)
	}
	if err := PaperScale().Validate(); err != nil {
		t.Fatalf("PaperScale invalid: %v", err)
	}
	bad := ReproScale()
	bad.Hidden = 63 // not divisible by heads
	if bad.Validate() == nil {
		t.Fatal("expected validation error")
	}
	bad = ReproScale()
	bad.Layers = 0
	if bad.Validate() == nil {
		t.Fatal("expected validation error")
	}
}

func TestTypeSpaceBasics(t *testing.T) {
	ts := NewTypeSpace([]string{"b_type", "a_type", "b_type"})
	if ts.Len() != 3 {
		t.Fatalf("Len = %d, want 3 (null + 2)", ts.Len())
	}
	if ts.Name(0) != corpus.NullType {
		t.Fatal("index 0 must be the background type")
	}
	if i, ok := ts.Index("a_type"); !ok || i != 1 {
		t.Fatalf("a_type index = %d, %v", i, ok)
	}
	tv := ts.Targets([]string{"b_type"})
	if tv[2] != 1 || tv[0] != 0 || tv[1] != 0 {
		t.Fatalf("targets = %v", tv)
	}
	empty := ts.Targets(nil)
	if empty[0] != 1 {
		t.Fatal("empty labels must target the background type")
	}
}

func TestMetaInputStructure(t *testing.T) {
	m, ds := tinyModel(t)
	src := ds.Test[0]
	info := metafeat.FromCorpusTable(src, false, 0)
	in := m.Encoder().BuildMetaInput(info, false)
	if len(in.ColAnchors) != len(src.Columns) {
		t.Fatalf("anchors %d, columns %d", len(in.ColAnchors), len(src.Columns))
	}
	colID := m.Tok.MustID("[COL]")
	for i, a := range in.ColAnchors {
		if in.IDs[a] != colID {
			t.Fatalf("anchor %d does not point at [COL]", i)
		}
		if in.Segments[a] != 1 {
			t.Fatal("column tokens must use segment 1")
		}
	}
	if in.Segments[0] != 0 {
		t.Fatal("table tokens must use segment 0")
	}
	if len(in.NonTextual) != len(src.Columns) || len(in.NonTextual[0]) != metafeat.NonTextualDim {
		t.Fatal("non-textual features malformed")
	}
}

func TestMetaInputRespectsBudgets(t *testing.T) {
	m, _ := tinyModel(t)
	info := &metafeat.TableInfo{
		Name:    "a very long table name with many words to overflow the table budget entirely",
		Comment: "and a long comment on top of the long name for good measure",
		Columns: []*metafeat.ColumnInfo{
			{Name: "some extraordinarily long column name with several words", Comment: "long comment", DataType: "VARCHAR"},
		},
	}
	in := m.Encoder().BuildMetaInput(info, false)
	if in.ColAnchors[0] != m.Cfg.TableTokens {
		t.Fatalf("table block length %d, want %d", in.ColAnchors[0], m.Cfg.TableTokens)
	}
	if in.Len() != m.Cfg.TableTokens+m.Cfg.ColTokens {
		t.Fatalf("sequence length %d, want %d", in.Len(), m.Cfg.TableTokens+m.Cfg.ColTokens)
	}
}

func TestContentInputStructure(t *testing.T) {
	m, ds := tinyModel(t)
	src := ds.Test[0]
	info := metafeat.FromCorpusTable(src, false, 0)
	cols := []int{0, len(src.Columns) - 1}
	in := m.Encoder().BuildContentInput(info, cols, 3)
	if len(in.ValAnchors) != 2 {
		t.Fatalf("anchors = %d", len(in.ValAnchors))
	}
	valID := m.Tok.MustID("[VAL]")
	for slot, a := range in.ValAnchors {
		if in.IDs[a] != valID {
			t.Fatalf("anchor %d not at [VAL]", slot)
		}
		if in.ColSpans[slot][0] != a {
			t.Fatalf("column %d span starts at %d, its [VAL] anchor is at %d", slot, in.ColSpans[slot][0], a)
		}
	}
	// Each cell block starts with [CLS] then a length token.
	clsID := m.Tok.MustID("[CLS]")
	found := false
	for i, id := range in.IDs {
		if id == clsID && i+1 < len(in.IDs) {
			found = true
			tok := m.Tok.Token(in.IDs[i+1])
			if len(tok) < 4 || tok[:3] != "len" {
				t.Fatalf("token after [CLS] is %q, want length bucket", tok)
			}
		}
	}
	if !found {
		t.Fatal("no cell blocks found")
	}
}

func TestContentInputSkipsEmptyCells(t *testing.T) {
	m, _ := tinyModel(t)
	info := &metafeat.TableInfo{
		Name: "t",
		Columns: []*metafeat.ColumnInfo{
			{Name: "c", DataType: "VARCHAR", Values: []string{"", "", "x", "", "y"}},
		},
	}
	in := m.Encoder().BuildContentInput(info, []int{0}, 2)
	clsID := m.Tok.MustID("[CLS]")
	cells := 0
	for _, id := range in.IDs {
		if id == clsID {
			cells++
		}
	}
	if cells != 2 {
		t.Fatalf("got %d cells, want 2 non-empty", cells)
	}
}

func TestLengthBucketToken(t *testing.T) {
	if LengthBucketToken(0) != "len0" || LengthBucketToken(11) != "len10" || LengthBucketToken(500) != "len24" {
		t.Fatalf("bucket tokens wrong: %s %s %s", LengthBucketToken(0), LengthBucketToken(11), LengthBucketToken(500))
	}
	if len(LengthBucketTokens()) != 13 {
		t.Fatalf("bucket enumeration = %d", len(LengthBucketTokens()))
	}
}

func TestEncodeMetadataShapes(t *testing.T) {
	m, ds := tinyModel(t)
	info := metafeat.FromCorpusTable(ds.Test[0], false, 0)
	in := m.Encoder().BuildMetaInput(info, false)
	enc := m.EncodeMetadata(in)
	if len(enc.Layers) != m.Cfg.Layers+1 {
		t.Fatalf("encoding has %d layers", len(enc.Layers))
	}
	for _, l := range enc.Layers {
		if l.Rows != in.Len() || l.Cols != m.Cfg.Hidden {
			t.Fatalf("layer shape %dx%d", l.Rows, l.Cols)
		}
	}
	logits := m.MetaLogits(enc)
	if logits.Rows != len(info.Columns) || logits.Cols != m.Types.Len() {
		t.Fatalf("logits %dx%d", logits.Rows, logits.Cols)
	}
}

func TestEncodeContentShapes(t *testing.T) {
	m, ds := tinyModel(t)
	info := metafeat.FromCorpusTable(ds.Test[0], false, 0)
	menc := m.EncodeMetadata(m.Encoder().BuildMetaInput(info, false))
	cols := []int{0}
	if len(info.Columns) > 1 {
		cols = append(cols, 1)
	}
	cin := m.Encoder().BuildContentInput(info, cols, 3)
	content := m.EncodeContent(menc, cin)
	if content.Rows != cin.Len() || content.Cols != m.Cfg.Hidden {
		t.Fatalf("content shape %dx%d", content.Rows, content.Cols)
	}
	logits := m.ContentLogits(menc, cin, content)
	if logits.Rows != len(cols) || logits.Cols != m.Types.Len() {
		t.Fatalf("content logits %dx%d", logits.Rows, logits.Cols)
	}
}

func TestContentMaskBlocksCrossColumn(t *testing.T) {
	m, _ := tinyModel(t)
	info := &metafeat.TableInfo{
		Name: "t",
		Columns: []*metafeat.ColumnInfo{
			{Name: "a", DataType: "VARCHAR", Values: []string{"foo"}},
			{Name: "b", DataType: "VARCHAR", Values: []string{"bar"}},
		},
	}
	in := m.Encoder().BuildContentInput(info, []int{0, 1}, 1)
	lm := 5
	menc := []*MetaEncoding{{In: &MetaInput{IDs: make([]int, lm)}}}
	mask := contentMask(menc, []*ContentInput{in})
	if mask == nil {
		t.Fatal("multi-column input needs a mask")
	}
	if mask.Rows != in.Len() || mask.Cols != lm+in.Len() {
		t.Fatalf("mask shape %dx%d", mask.Rows, mask.Cols)
	}
	// Reference column membership, read off the token stream rather than
	// ColSpans (which the mask is built from): each [VAL] opens a column.
	valID := m.Tok.MustID("[VAL]")
	colOf := make([]int, in.Len())
	col := -1
	for i, id := range in.IDs {
		if id == valID {
			col++
		}
		colOf[i] = col
	}
	for i := 0; i < in.Len(); i++ {
		for j := 0; j < lm; j++ {
			if mask.At(i, j) != 0 {
				t.Fatal("metadata positions must always be attendable")
			}
		}
		for j := 0; j < in.Len(); j++ {
			v := mask.At(i, lm+j)
			same := colOf[i] == colOf[j]
			if same && v != 0 {
				t.Fatal("same-column content must be attendable")
			}
			if !same && !math.IsInf(v, -1) {
				t.Fatal("cross-column content must be masked")
			}
		}
	}
	// Single-column: no mask needed.
	single := m.Encoder().BuildContentInput(info, []int{0}, 1)
	if contentMask(menc, []*ContentInput{single}) != nil {
		t.Fatal("single-column mask should be nil")
	}
}

func TestPredictMetaProbabilitiesInRange(t *testing.T) {
	m, ds := tinyModel(t)
	info := metafeat.FromCorpusTable(ds.Test[0], false, 0)
	_, probs := m.PredictMeta(info, false)
	if len(probs) != len(info.Columns) {
		t.Fatalf("probs for %d columns, want %d", len(probs), len(info.Columns))
	}
	for _, row := range probs {
		if len(row) != m.Types.Len() {
			t.Fatalf("row width %d", len(row))
		}
		for _, p := range row {
			if p < 0 || p > 1 || math.IsNaN(p) {
				t.Fatalf("probability %v out of range", p)
			}
		}
	}
}

func TestEvalModeBuildsNoGraph(t *testing.T) {
	m, ds := tinyModel(t)
	m.SetEval()
	info := metafeat.FromCorpusTable(ds.Test[0], false, 0)
	enc := m.EncodeMetadata(m.Encoder().BuildMetaInput(info, false))
	if !tensor.NoGrad(enc.Final()) {
		t.Fatal("eval-mode forward must not track gradients")
	}
	m.SetTrain()
	enc = m.encodeMetadataGraph(m.Encoder().BuildMetaInput(info, false))
	if tensor.NoGrad(enc.Final()) {
		t.Fatal("train-mode forward must track gradients")
	}
	m.SetEval()
}

func TestSaveLoadRoundTrip(t *testing.T) {
	m, ds := tinyModel(t)
	info := metafeat.FromCorpusTable(ds.Test[0], false, 0)
	_, before := m.PredictMeta(info, false)
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	m2, err := New(m.Cfg, m.Tok, m.Types, 999) // different init seed
	if err != nil {
		t.Fatal(err)
	}
	m2.SetEval()
	if err := m2.Load(&buf); err != nil {
		t.Fatal(err)
	}
	_, after := m2.PredictMeta(info, false)
	for i := range before {
		for j := range before[i] {
			if math.Abs(before[i][j]-after[i][j]) > 1e-12 {
				t.Fatalf("prediction drift after load at (%d,%d)", i, j)
			}
		}
	}
}

// TestFailedLoadLeavesWeightsUntouched is the non-atomic checkpoint-load
// regression pin: a Load that fails partway — truncated mid-stream, or a
// concatenated file with trailing bytes — must leave every parameter
// bit-identical, keep the weight generation, and keep predictions
// byte-for-byte stable.
func TestFailedLoadLeavesWeightsUntouched(t *testing.T) {
	m, ds := tinyModel(t)
	info := metafeat.FromCorpusTable(ds.Test[0], false, 0)
	_, before := m.PredictMeta(info, false)
	genBefore := m.Generation()

	var snap [][]float64
	for _, p := range m.Params() {
		snap = append(snap, append([]float64(nil), p.Data...))
	}

	// A different model's checkpoint with the right prefix structure but a
	// truncated tail: the early tensors decode fine, so the old non-atomic
	// reader would already have overwritten them before noticing.
	other, err := New(m.Cfg, m.Tok, m.Types, 4242)
	if err != nil {
		t.Fatal(err)
	}
	var good bytes.Buffer
	if err := other.Save(&good); err != nil {
		t.Fatal(err)
	}
	truncated := good.Bytes()[:good.Len()-13]
	if err := m.Load(bytes.NewReader(truncated)); err == nil {
		t.Fatal("truncated checkpoint must fail to load")
	}
	trailing := append(append([]byte(nil), good.Bytes()...), 0x42)
	if err := m.Load(bytes.NewReader(trailing)); err == nil {
		t.Fatal("checkpoint with trailing bytes must fail to load")
	}

	for i, p := range m.Params() {
		for j, v := range p.Data {
			if v != snap[i][j] {
				t.Fatalf("param %d elem %d mutated by failed Load", i, j)
			}
		}
	}
	if g := m.Generation(); g != genBefore {
		t.Fatalf("failed Load changed generation: %d -> %d", genBefore, g)
	}
	_, after := m.PredictMeta(info, false)
	for i := range before {
		for j := range before[i] {
			if before[i][j] != after[i][j] {
				t.Fatalf("prediction drift after failed Load at (%d,%d)", i, j)
			}
		}
	}
}

// TestGenerationsUniqueAcrossModels pins the hot-swap cache contract: two
// live models must never share a weight generation, even right after
// construction, so swapping the serving pointer between them can never make
// one model's memoized outputs resolve for the other.
func TestGenerationsUniqueAcrossModels(t *testing.T) {
	m1, _ := tinyModel(t)
	m2 := roundTrip(t, m1)
	m2.SetEval()
	if m1.Generation() == m2.Generation() {
		t.Fatalf("a model and its file's twin share generation %d", m1.Generation())
	}
	g1 := m1.Generation()
	m2.SetTrain() // bump m2 only (a mode transition redraws its generation)
	if m1.Generation() != g1 {
		t.Fatal("bumping one model moved another's generation")
	}
	if m1.Generation() == m2.Generation() {
		t.Fatal("generations collided after invalidation")
	}
}

func TestAutoWeightedLossGradients(t *testing.T) {
	w := tensor.Param(1, 2)
	w.Fill(1)
	l1 := tensor.Param(1, 1)
	l1.Fill(2)
	l2 := tensor.Param(1, 1)
	l2.Fill(0.5)
	total := AutoWeightedLoss(w, l1, l2)
	// At w=1: total = 0.5*2 + 0.5*0.5 + 2*ln(2)
	want := 1 + 0.25 + 2*math.Log(2)
	if math.Abs(total.Item()-want) > 1e-9 {
		t.Fatalf("loss = %v, want %v", total.Item(), want)
	}
	total.Backward()
	if w.Grad == nil || w.Grad[0] == 0 || w.Grad[1] == 0 {
		t.Fatal("weights must receive gradients")
	}
	// dL/dw₁ = −L₁/w₁³ + 2w₁/(1+w₁²) = −2 + 1 = −1 at w=1, L₁=2.
	if math.Abs(w.Grad[0]-(-1)) > 1e-9 {
		t.Fatalf("dL/dw1 = %v, want -1", w.Grad[0])
	}
}

func TestFixedWeightedLoss(t *testing.T) {
	l1 := tensor.FromRows([][]float64{{2}})
	l2 := tensor.FromRows([][]float64{{4}})
	if got := FixedWeightedLoss(l1, l2).Item(); got != 3 {
		t.Fatalf("fixed loss = %v, want 3", got)
	}
}

func TestFineTuneReducesLoss(t *testing.T) {
	m, ds := tinyModel(t)
	cfg := DefaultTrainConfig()
	cfg.Epochs = 1
	first, err := FineTune(m, ds.Train[:20], cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Epochs = 3
	cfg.Seed = 2
	last, err := FineTune(m, ds.Train[:20], cfg)
	if err != nil {
		t.Fatal(err)
	}
	if last >= first {
		t.Fatalf("loss did not decrease: %v → %v", first, last)
	}
	if math.IsNaN(last) || math.IsInf(last, 0) {
		t.Fatalf("loss diverged: %v", last)
	}
}

func TestFineTuneErrorsOnEmptyInput(t *testing.T) {
	m, _ := tinyModel(t)
	if _, err := FineTune(m, nil, DefaultTrainConfig()); err == nil {
		t.Fatal("expected error for empty training set")
	}
	bad := DefaultTrainConfig()
	bad.Epochs = 0
	if _, err := FineTune(m, []*corpus.Table{{}}, bad); err == nil {
		t.Fatal("expected error for zero epochs")
	}
}

func TestPretrainRuns(t *testing.T) {
	m, ds := tinyModel(t)
	cfg := DefaultPretrainConfig()
	cfg.Steps = 30
	loss, err := Pretrain(m, ds.Train[:10], cfg)
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(loss) || loss < 0 {
		t.Fatalf("pretrain loss = %v", loss)
	}
	if _, err := Pretrain(m, nil, cfg); err == nil {
		t.Fatal("expected error for empty corpus")
	}
}

func TestBuildVocabularyIncludesLengthBuckets(t *testing.T) {
	ds := corpus.Generate(corpus.DefaultRegistry(), corpus.WikiTableProfile(10), 2)
	tok := BuildVocabulary(ds.Train, ds.Registry.Names(), 500)
	for _, lt := range LengthBucketTokens() {
		if got := tok.Tokenize(lt); len(got) != 1 || got[0] != lt {
			t.Fatalf("length token %s not whole in vocab: %v", lt, got)
		}
	}
}

func TestConcurrentEvalInference(t *testing.T) {
	m, ds := tinyModel(t)
	m.SetEval()
	var wg sync.WaitGroup
	errs := make(chan string, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				tb := ds.Test[(w+i)%len(ds.Test)]
				info := metafeat.FromCorpusTable(tb, false, 0)
				menc, probs := m.PredictMeta(info, false)
				if len(probs) != len(info.Columns) {
					errs <- "bad probs length"
					return
				}
				out := m.PredictContentBatch([]ContentRequest{{Menc: menc, Table: info, Cols: []int{0}}}, 3)
				if len(out) != 1 || len(out[0]) != 1 {
					errs <- "bad content probs"
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}

func TestPretrainImprovesMLMLoss(t *testing.T) {
	m, ds := tinyModel(t)
	cfg := DefaultPretrainConfig()
	cfg.Steps = 40
	first, err := Pretrain(m, ds.Train[:10], cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Steps = 160
	cfg.Seed = 2
	last, err := Pretrain(m, ds.Train[:10], cfg)
	if err != nil {
		t.Fatal(err)
	}
	if last >= first {
		t.Logf("warning: MLM loss %.4f → %.4f (noisy single-sample losses)", first, last)
	}
	if math.IsNaN(last) || math.IsInf(last, 0) {
		t.Fatalf("MLM loss diverged: %v", last)
	}
}
