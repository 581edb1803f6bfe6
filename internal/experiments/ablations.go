package experiments

import (
	"context"
	"fmt"
	"strings"
	"time"

	"repro/internal/adtd"
	"repro/internal/core"
	"repro/internal/simdb"
)

// AblationResult collects the design-choice studies listed in DESIGN.md §4
// beyond what Fig 4 already covers (latent cache and pipelining variants).
type AblationResult struct {
	// AutoWeightedLoss compares §4.4's learnable weighting against a fixed
	// 50/50 combination.
	AutoWeightedLoss []LossPoint
	// AsymmetricAttention compares the asymmetric content tower (§4.2.3)
	// against plain content self-attention.
	AsymmetricAttention []LossPoint
	// CacheSpeedup compares Taste with and without the latent cache.
	CacheSpeedup struct {
		With, Without time.Duration
	}
}

// LossPoint is one trained-variant measurement.
type LossPoint struct {
	Name string
	F1   float64
}

// Ablations runs the extra design-choice studies on WikiTable.
func (s *Suite) Ablations() *AblationResult {
	res := &AblationResult{}

	// Latent cache speedup, from the main runs.
	main := s.MainRuns(Wiki)
	if with := findRun(main, "Taste"); with != nil {
		res.CacheSpeedup.With = with.Duration
	}
	if without := findRun(main, "Taste w/o caching"); without != nil {
		res.CacheSpeedup.Without = without.Duration
	}

	// Automatic weighted loss vs fixed weights: re-train a reduced-epoch
	// pair on the same data and compare F1.
	ds := s.Dataset(Wiki)
	auto := s.tunedTasteModel("taste-wiki-autoloss", ds, nil)
	fixed := s.tunedTasteModel("taste-wiki-fixedloss", ds, func(_ *adtd.Config, t *adtd.TrainConfig) {
		t.UseAutoWeightedLoss = false
	})
	res.AutoWeightedLoss = append(res.AutoWeightedLoss,
		LossPoint{Name: "automatic weighted loss", F1: s.quickF1(auto)},
		LossPoint{Name: "fixed 50/50 loss", F1: s.quickF1(fixed)},
	)

	// Asymmetric vs symmetric content tower.
	sym := s.tunedTasteModel("taste-wiki-symmetric", ds, func(m *adtd.Config, _ *adtd.TrainConfig) {
		m.SymmetricContent = true
	})
	res.AsymmetricAttention = append(res.AsymmetricAttention,
		LossPoint{Name: "asymmetric K/V (metadata ⊕ content)", F1: s.quickF1(auto)},
		LossPoint{Name: "content-only self-attention", F1: s.quickF1(sym)},
	)
	return res
}

// quickF1 scores a model's default two-phase detection on the WikiTable
// test split without latency.
func (s *Suite) quickF1(m *adtd.Model) float64 {
	ds := s.Dataset(Wiki)
	det, err := core.NewDetector(m, s.options(DefaultTaste()))
	if err != nil {
		panic(err)
	}
	server := simdb.NewServer(simdb.NoLatency)
	server.LoadTables("tenant", ds.Test)
	rep, err := det.DetectDatabase(context.Background(), server, "tenant", core.SequentialMode)
	if err != nil {
		panic(err)
	}
	return scoreReport(rep, truthOf(ds.Test)).F1()
}

// String renders the ablation report.
func (r *AblationResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Ablations (WikiTable)\n")
	fmt.Fprintf(&b, "Latent cache: with=%v without=%v (%.1f%% reduction)\n",
		r.CacheSpeedup.With.Round(time.Millisecond), r.CacheSpeedup.Without.Round(time.Millisecond),
		reduction(r.CacheSpeedup.Without, r.CacheSpeedup.With))
	fmt.Fprintf(&b, "Multi-task loss:\n")
	for _, p := range r.AutoWeightedLoss {
		fmt.Fprintf(&b, "  %-40s F1=%.4f\n", p.Name, p.F1)
	}
	fmt.Fprintf(&b, "Content-tower attention:\n")
	for _, p := range r.AsymmetricAttention {
		fmt.Fprintf(&b, "  %-40s F1=%.4f\n", p.Name, p.F1)
	}
	return b.String()
}
