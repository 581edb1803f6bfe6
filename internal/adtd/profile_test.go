package adtd

import (
	"fmt"
	"testing"

	"repro/internal/corpus"
)

// BenchmarkFineTuneEpoch measures one epoch of fine-tuning on a small
// corpus, serial (par1) versus four data-parallel gradient workers (par4);
// used with -cpuprofile to find hot spots. On a single-CPU runner
// (GOMAXPROCS=1) par4 tracks par1: the workers time-slice one core, so the
// comparison records the trainer's coordination overhead rather than
// speedup.
func BenchmarkFineTuneEpoch(b *testing.B) {
	ds := corpus.Generate(corpus.DefaultRegistry(), corpus.WikiTableProfile(40), 1)
	tok := BuildVocabulary(ds.Train, ds.Registry.Names(), 3000)
	types := NewTypeSpace(ds.Registry.Names())
	for _, par := range []int{1, 4} {
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
