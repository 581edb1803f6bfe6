package adtd

import (
	"sync"
	"testing"

	"repro/internal/corpus"
	"repro/internal/metafeat"
)

var benchModel struct {
	once sync.Once
	m    *Model
	ds   *corpus.Dataset
}

func benchSetup(b *testing.B) (*Model, *corpus.Dataset) {
	b.Helper()
	benchModel.once.Do(func() {
		ds := corpus.Generate(corpus.DefaultRegistry(), corpus.WikiTableProfile(30), 1)
		tok := BuildVocabulary(ds.Train, ds.Registry.Names(), 2000)
		types := NewTypeSpace(ds.Registry.Names())
		m, err := New(ReproScale(), tok, types, 7)
		if err != nil {
			panic(err)
		}
		m.SetEval()
		benchModel.m, benchModel.ds = m, ds
	})
	return benchModel.m, benchModel.ds
}

// BenchmarkP1Inference measures the metadata tower alone — the Phase-1 cost
// every table pays.
func BenchmarkP1Inference(b *testing.B) {
	m, ds := benchSetup(b)
	info := metafeat.FromCorpusTable(ds.Test[0], false, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.PredictMeta(info, false)
	}
}

// BenchmarkP2InferenceCachedLatents measures the content tower with cached
// metadata latents (the latent-cache fast path of §4.2.2).
func BenchmarkP2InferenceCachedLatents(b *testing.B) {
	m, ds := benchSetup(b)
	info := metafeat.FromCorpusTable(ds.Test[0], false, 0)
	menc, _ := m.PredictMeta(info, false)
	reqs := []ContentRequest{{Menc: menc.Detach(), Table: info, Cols: []int{0}}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.PredictContentBatch(reqs, 10)
	}
}

// BenchmarkP2InferenceRecomputedLatents measures Phase 2 when the metadata
// tower must be re-run (the "Taste w/o caching" cost).
func BenchmarkP2InferenceRecomputedLatents(b *testing.B) {
	m, ds := benchSetup(b)
	info := metafeat.FromCorpusTable(ds.Test[0], false, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		menc := m.EncodeMetadata(m.Encoder().BuildMetaInput(info, false))
		m.PredictContentBatch([]ContentRequest{{Menc: menc, Table: info, Cols: []int{0}}}, 10)
	}
}

// BenchmarkP2InferenceBatched measures the batched content tower over four
// chunks at once, the path core's s4 stage uses; compare against four
// BenchmarkP2InferenceCachedLatents iterations for the batching win.
func BenchmarkP2InferenceBatched(b *testing.B) {
	m, ds := benchSetup(b)
	var reqs []ContentRequest
	for ti := 0; ti < 4 && ti < len(ds.Test); ti++ {
		info := metafeat.FromCorpusTable(ds.Test[ti], false, 0)
		menc, _ := m.PredictMeta(info, false)
		reqs = append(reqs, ContentRequest{Menc: menc.CloneDetach(), Table: info, Cols: []int{0}})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.PredictContentBatch(reqs, 10)
	}
}

// BenchmarkExtensionNewTypes measures growing the classifier heads for a
// freshly registered semantic type (§8).
func BenchmarkExtensionNewTypes(b *testing.B) {
	_, ds := benchSetup(b)
	tok := BuildVocabulary(ds.Train, ds.Registry.Names(), 2000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		types := NewTypeSpace(ds.Registry.Names())
		m, err := New(ReproScale(), tok, types, 7)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		m.ExtendTypes([]string{"new_type_a", "new_type_b"}, 1)
	}
}

// BenchmarkBuildMetaInput measures metadata serialization.
func BenchmarkBuildMetaInput(b *testing.B) {
	m, ds := benchSetup(b)
	info := metafeat.FromCorpusTable(ds.Test[0], false, 0)
	enc := m.Encoder()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		enc.BuildMetaInput(info, false)
	}
}

// BenchmarkPaperScaleForward times the two inference forwards of the
// paper's deployed model (PaperScale: H=312, 12 heads, I=1200, 4 layers)
// at random init on one WikiTable test table with all of its columns:
// meta is Phase 1 (PredictMeta), content Phase 2 (PredictContentBatch on
// cached metadata latents). Random weights time the same kernels a trained
// model runs; only the zero-skip depends on their values. Building the
// model takes about a second, outside the timer.
func BenchmarkPaperScaleForward(b *testing.B) {
	ds := corpus.Generate(corpus.DefaultRegistry(), corpus.WikiTableProfile(30), 1)
	tok := BuildVocabulary(ds.Train, ds.Registry.Names(), 2000)
	m, err := New(PaperScale(), tok, NewTypeSpace(ds.Registry.Names()), 7)
	if err != nil {
		b.Fatal(err)
	}
	m.SetEval()
	info := metafeat.FromCorpusTable(ds.Test[0], false, 0)
	cols := make([]int, len(info.Columns))
	for i := range cols {
		cols[i] = i
	}
	b.Run("meta", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			m.PredictMeta(info, false)
		}
	})
	b.Run("content", func(b *testing.B) {
		menc, _ := m.PredictMeta(info, false)
		reqs := []ContentRequest{{Menc: menc.Detach(), Table: info, Cols: cols}}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			m.PredictContentBatch(reqs, 10)
		}
	})
}
