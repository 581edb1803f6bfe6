package adtd

import (
	"fmt"
	"testing"

	"repro/internal/corpus"
)

// BenchmarkFineTuneEpoch measures one epoch of fine-tuning on a small
// corpus, serial (par1) versus two and four data-parallel gradient workers
// (par2, par4); used with -cpuprofile to find hot spots. W workers take one
// Adam step per W chunks, so parW's time mixes parallel speedup with W×
// fewer optimizer steps: par4 beats par2 even where only two cores run the
// workers (DESIGN.md §10, "Measured shape").
func BenchmarkFineTuneEpoch(b *testing.B) {
	ds := corpus.Generate(corpus.DefaultRegistry(), corpus.WikiTableProfile(40), 1)
	tok := BuildVocabulary(ds.Train, ds.Registry.Names(), 3000)
	types := NewTypeSpace(ds.Registry.Names())
	for _, par := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("par%d", par), func(b *testing.B) {
			m, err := New(ReproScale(), tok, types, 11)
			if err != nil {
				b.Fatal(err)
			}
			cfg := DefaultTrainConfig()
			cfg.Epochs = 1
			cfg.Workers = par
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := FineTune(m, ds.Train, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
