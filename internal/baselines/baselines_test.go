package baselines

import (
	"bytes"
	"math"
	"testing"

	"repro/internal/adtd"
	"repro/internal/corpus"
	"repro/internal/metafeat"
	"repro/internal/tensor"
	"repro/internal/tokenizer"
)

func tiny(t *testing.T, v Variant) (*Model, *corpus.Dataset) {
	t.Helper()
	ds := corpus.Generate(corpus.DefaultRegistry(), corpus.WikiTableProfile(30), 3)
	tok := adtd.BuildVocabulary(ds.Train, ds.Registry.Names(), 2000)
	types := adtd.NewTypeSpace(ds.Registry.Names())
	cfg := TURLScale()
	if v == Doduo {
		cfg = DoduoScale()
	}
	cfg.Layers, cfg.Hidden, cfg.Heads, cfg.Intermediate, cfg.ClsHidden = 1, 32, 2, 48, 32
	m := New(v, cfg, tok, types, 5)
	m.SetEval()
	return m, ds
}

func TestVariantString(t *testing.T) {
	if TURL.String() != "TURL" || Doduo.String() != "Doduo" {
		t.Fatal("variant strings wrong")
	}
}

func TestDoduoBiggerThanTURL(t *testing.T) {
	ds := corpus.Generate(corpus.DefaultRegistry(), corpus.WikiTableProfile(10), 1)
	tok := adtd.BuildVocabulary(ds.Train, ds.Registry.Names(), 1000)
	types := adtd.NewTypeSpace(ds.Registry.Names())
	turl := New(TURL, TURLScale(), tok, types, 1)
	doduo := New(Doduo, DoduoScale(), tok, types, 1)
	if doduo.NumParams() <= turl.NumParams() {
		t.Fatalf("Doduo (%d params) must be larger than TURL (%d)", doduo.NumParams(), turl.NumParams())
	}
}

func TestPredictShapes(t *testing.T) {
	for _, v := range []Variant{TURL, Doduo} {
		m, ds := tiny(t, v)
		info := metafeat.FromCorpusTable(ds.Test[0], false, 0)
		probs := m.Predict(info, 5, true)
		if len(probs) != len(info.Columns) {
			t.Fatalf("%v: probs rows = %d, want %d", v, len(probs), len(info.Columns))
		}
		for _, row := range probs {
			if len(row) != m.Types.Len() {
				t.Fatalf("%v: row width %d", v, len(row))
			}
			for _, p := range row {
				if p < 0 || p > 1 || math.IsNaN(p) {
					t.Fatalf("%v: bad probability %v", v, p)
				}
			}
		}
	}
}

func TestPredictWithoutContentDiffers(t *testing.T) {
	m, ds := tiny(t, TURL)
	info := metafeat.FromCorpusTable(ds.Test[0], false, 0)
	with := m.Predict(info, 5, true)
	without := m.Predict(info, 5, false)
	same := true
	for i := range with {
		for j := range with[i] {
			if math.Abs(with[i][j]-without[i][j]) > 1e-12 {
				same = false
			}
		}
	}
	if same {
		t.Fatal("blanking content must change predictions")
	}
}

func TestTURLMaskRestrictsColumns(t *testing.T) {
	m, _ := tiny(t, TURL)
	info := &metafeat.TableInfo{
		Name: "t",
		Columns: []*metafeat.ColumnInfo{
			{Name: "a", DataType: "VARCHAR", Values: []string{"x"}},
			{Name: "b", DataType: "VARCHAR", Values: []string{"y"}},
		},
	}
	in := m.buildInput(info, 1, true)
	mask := tensor.DenseMask(m.keySpans(in), len(in.ids), len(in.ids))
	if mask == nil {
		t.Fatal("TURL multi-column input needs a mask")
	}
	// Reference column membership, read off the token stream rather than the
	// spans the mask is built from: -1 up to the first [COL], which opens
	// column 0.
	colID := m.Tok.MustID(tokenizer.COL)
	colOf := make([]int, len(in.ids))
	col := -1
	for i, id := range in.ids {
		if id == colID {
			col++
		}
		colOf[i] = col
	}
	for i := range in.ids {
		for j := range in.ids {
			ci, cj := colOf[i], colOf[j]
			blocked := math.IsInf(mask.At(i, j), -1)
			if ci >= 0 && cj >= 0 && ci != cj && !blocked {
				t.Fatalf("cross-column attention %d→%d not blocked", i, j)
			}
			if (ci == -1 || cj == -1 || ci == cj) && blocked {
				t.Fatalf("allowed attention %d→%d blocked", i, j)
			}
		}
	}
}

func TestDoduoNoMask(t *testing.T) {
	m, ds := tiny(t, Doduo)
	info := metafeat.FromCorpusTable(ds.Test[0], false, 0)
	if m.keySpans(m.buildInput(info, 2, true)) != nil {
		t.Fatal("Doduo must attend globally")
	}
}

func TestInputTruncationKeepsAnchorsValid(t *testing.T) {
	m, _ := tiny(t, Doduo)
	m.Cfg.MaxSeq = 30
	var cols []*metafeat.ColumnInfo
	for i := 0; i < 20; i++ {
		cols = append(cols, &metafeat.ColumnInfo{Name: "column_with_long_name", DataType: "VARCHAR", Values: []string{"some value", "other"}})
	}
	in := m.buildInput(&metafeat.TableInfo{Name: "wide", Columns: cols}, 2, true)
	if len(in.ids) > 30 {
		t.Fatalf("sequence %d exceeds MaxSeq", len(in.ids))
	}
	for _, a := range in.anchors {
		if a >= len(in.ids) {
			t.Fatalf("anchor %d beyond sequence", a)
		}
	}
}

func TestFineTuneReducesLoss(t *testing.T) {
	m, ds := tiny(t, TURL)
	cfg := DefaultTrainConfig()
	cfg.Epochs = 1
	first, err := FineTune(m, ds.Train[:15], cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Epochs = 3
	cfg.Seed = 2
	last, err := FineTune(m, ds.Train[:15], cfg)
	if err != nil {
		t.Fatal(err)
	}
	if last >= first || math.IsNaN(last) {
		t.Fatalf("loss did not decrease: %v → %v", first, last)
	}
}

func TestFineTuneErrors(t *testing.T) {
	m, _ := tiny(t, TURL)
	if _, err := FineTune(m, nil, DefaultTrainConfig()); err == nil {
		t.Fatal("expected error for empty set")
	}
	bad := DefaultTrainConfig()
	bad.Epochs = 0
	if _, err := FineTune(m, []*corpus.Table{{}}, bad); err == nil {
		t.Fatal("expected error for zero epochs")
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	m, ds := tiny(t, Doduo)
	info := metafeat.FromCorpusTable(ds.Test[0], false, 0)
	before := m.Predict(info, 3, true)
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	m2 := New(Doduo, m.Cfg, m.Tok, m.Types, 77)
	m2.SetEval()
	if err := m2.Load(&buf); err != nil {
		t.Fatal(err)
	}
	after := m2.Predict(info, 3, true)
	for i := range before {
		for j := range before[i] {
			if before[i][j] != after[i][j] {
				t.Fatal("prediction drift after load")
			}
		}
	}
}
