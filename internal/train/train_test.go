package train

import (
	"math"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/tensor"
)

// synthModel is a tiny least-squares model (y = x·w) whose loss graph is
// rich enough to exercise the autograd tape but cheap enough for exhaustive
// bit-exactness checks.
type synthModel struct {
	w *tensor.Tensor
	x [][]float64 // per-item feature rows
	y [][]float64 // per-item targets
}

func newSynthData(seed int64, items, dim int) ([][]float64, [][]float64) {
	rng := rand.New(rand.NewSource(seed))
	x := make([][]float64, items)
	y := make([][]float64, items)
	for i := range x {
		x[i] = make([]float64, dim)
		for j := range x[i] {
			x[i][j] = rng.NormFloat64()
		}
		y[i] = []float64{rng.NormFloat64()}
	}
	return x, y
}

func newSynthModel(x, y [][]float64) *synthModel {
	dim := len(x[0])
	w := tensor.Param(dim, 1)
	rng := rand.New(rand.NewSource(42))
	tensor.XavierUniform(w, rng)
	w.SetRequiresGrad(true)
	return &synthModel{w: w, x: x, y: y}
}

// step builds the loss for one item: squared residual plus a small
// rng-driven feature dropout so the test also covers per-item RNG use.
func (m *synthModel) step(item int, rng *rand.Rand) *tensor.Tensor {
	row := append([]float64(nil), m.x[item]...)
	row[rng.Intn(len(row))] = 0 // rng-dependent: order-invariance matters
	pred := tensor.MatMul(tensor.FromRows([][]float64{row}), m.w)
	diff := tensor.Add(pred, tensor.Scale(tensor.FromRows([][]float64{m.y[item]}), -1))
	sq := tensor.Mul(diff, diff)
	return tensor.Scale(tensor.Sum(sq), 1/float64(len(sq.Data)))
}

func (m *synthModel) spec(workers ...func(w int)) Spec {
	return Spec{
		Params: []*tensor.Tensor{m.w},
		Items:  len(m.x),
		NewWorker: func(w int) (Worker, error) {
			if w == 0 {
				return Worker{Params: []*tensor.Tensor{m.w}, Step: m.step}, nil
			}
			// Replica: own Param tensor aliasing the canonical weights.
			rw := tensor.Param(m.w.Rows, m.w.Cols)
			rw.SetRequiresGrad(true)
			tensor.AliasData([]*tensor.Tensor{rw}, []*tensor.Tensor{m.w})
			replica := &synthModel{w: rw, x: m.x, y: m.y}
			return Worker{Params: []*tensor.Tensor{rw}, Step: replica.step}, nil
		},
	}
}

// serialReference replays the exact classic loop (zero → loss → backward →
// step per item) using the same EpochPerm/ItemRNG derivation, as the ground
// truth for the workers=1 bit-exactness contract.
func serialReference(m *synthModel, cfg Config) float64 {
	opt := tensor.NewAdam([]*tensor.Tensor{m.w}, cfg.LR)
	opt.ClipNorm = cfg.ClipNorm
	opt.WeightDecay = cfg.WeightDecay
	last := 0.0
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		opt.LR = EpochLR(cfg.LR, cfg.FinalLR, epoch, cfg.Epochs)
		var order []int
		if cfg.Shuffle {
			order = EpochPerm(cfg.Seed, epoch, len(m.x))
		} else {
			order = make([]int, len(m.x))
			for i := range order {
				order[i] = i
			}
		}
		total, n := 0.0, 0
		for _, item := range order {
			tensor.ZeroGrads([]*tensor.Tensor{m.w})
			loss := m.step(item, ItemRNG(cfg.Seed, epoch, item))
			loss.Backward()
			opt.Step()
			total += loss.Item()
			n++
			tensor.ReleaseGraph(loss)
		}
		last = total / float64(n)
	}
	return last
}

func cloneParams(ps []*tensor.Tensor) [][]float64 {
	out := make([][]float64, len(ps))
	for i, p := range ps {
		out[i] = append([]float64(nil), p.Data...)
	}
	return out
}

func paramsEqual(t *testing.T, a, b [][]float64, what string) {
	t.Helper()
	for i := range a {
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				t.Fatalf("%s: param %d elem %d differs: %v vs %v", what, i, j, a[i][j], b[i][j])
			}
		}
	}
}

func TestWorkers1BitExactVsSerial(t *testing.T) {
	for _, shuffle := range []bool{false, true} {
		x, y := newSynthData(5, 17, 6)
		serial := newSynthModel(x, y)
		trained := newSynthModel(x, y)
		cfg := Config{Epochs: 3, Workers: 1, Shuffle: shuffle,
			LR: 1e-2, FinalLR: 1e-3, ClipNorm: 1, WeightDecay: 1e-4, Seed: 11}
		refLoss := serialReference(serial, cfg)
		gotLoss, err := Run(trained.spec(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if gotLoss != refLoss {
			t.Fatalf("shuffle=%v: loss %v vs serial %v", shuffle, gotLoss, refLoss)
		}
		paramsEqual(t, cloneParams([]*tensor.Tensor{trained.w}),
			cloneParams([]*tensor.Tensor{serial.w}),
			"workers=1 vs serial")
	}
}

func TestMultiWorkerDeterminism(t *testing.T) {
	gomaxprocs(t, 4)
	var final [][][]float64
	var losses []float64
	for run := 0; run < 2; run++ {
		x, y := newSynthData(9, 23, 5)
		m := newSynthModel(x, y)
		loss, err := Run(m.spec(), Config{Epochs: 2, Workers: 4,
			Shuffle: true, LR: 5e-3, ClipNorm: 1, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		final = append(final, cloneParams([]*tensor.Tensor{m.w}))
		losses = append(losses, loss)
	}
	if losses[0] != losses[1] {
		t.Fatalf("same (seed, workers) gave losses %v vs %v", losses[0], losses[1])
	}
	paramsEqual(t, final[0], final[1], "identical (seed,workers) runs")
}

// TestMultiWorkerEpochRace exists to run a multi-worker epoch under
// `go test -race`: concurrent replica backward passes over aliased weights
// must never write the same gradient buffer.
func TestMultiWorkerEpochRace(t *testing.T) {
	gomaxprocs(t, 4)
	x, y := newSynthData(2, 40, 8)
	m := newSynthModel(x, y)
	if _, err := Run(m.spec(), Config{Epochs: 2, Workers: 4,
		Shuffle: true, LR: 1e-2, ClipNorm: 1, Seed: 7}); err != nil {
		t.Fatal(err)
	}
}

func TestMultiWorkerConverges(t *testing.T) {
	gomaxprocs(t, 4)
	x, y := newSynthData(4, 32, 4)
	m := newSynthModel(x, y)
	first, err := Run(m.spec(), Config{Epochs: 1, Workers: 2, LR: 5e-2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	last, err := Run(m.spec(), Config{Epochs: 30, Workers: 2, LR: 5e-2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if last >= first {
		t.Fatalf("loss did not improve: first %v last %v", first, last)
	}
}

func TestNilLossSkipsStep(t *testing.T) {
	x, y := newSynthData(6, 8, 3)
	m := newSynthModel(x, y)
	before := cloneParams([]*tensor.Tensor{m.w})
	spec := m.spec()
	inner := spec.NewWorker
	spec.NewWorker = func(w int) (Worker, error) {
		wk, err := inner(w)
		wk.Step = func(int, *rand.Rand) *tensor.Tensor { return nil }
		return wk, err
	}
	loss, err := Run(spec, Config{Epochs: 2, LR: 1e-2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if loss != 0 {
		t.Fatalf("all-skip run reported loss %v", loss)
	}
	paramsEqual(t, before, cloneParams([]*tensor.Tensor{m.w}), "all-skip run must not update params")
}

func TestRunErrors(t *testing.T) {
	x, y := newSynthData(1, 4, 2)
	m := newSynthModel(x, y)
	if _, err := Run(m.spec(), Config{Epochs: 0}); err == nil {
		t.Fatal("expected error for Epochs=0")
	}
	spec := m.spec()
	spec.Items = 0
	if _, err := Run(spec, Config{Epochs: 1}); err == nil {
		t.Fatal("expected error for zero items")
	}
}

func TestEpochPermStableAndComplete(t *testing.T) {
	a := EpochPerm(1, 0, 10)
	b := EpochPerm(1, 0, 10)
	seen := make([]bool, 10)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("EpochPerm not deterministic")
		}
		seen[a[i]] = true
	}
	for i, s := range seen {
		if !s {
			t.Fatalf("item %d missing from permutation", i)
		}
	}
	c := EpochPerm(1, 1, 10)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
		}
	}
	if same {
		t.Fatal("different epochs produced identical permutations")
	}
}

func TestItemRNGIndependentStreams(t *testing.T) {
	a := ItemRNG(1, 0, 5).Int63()
	if b := ItemRNG(1, 0, 5).Int63(); b != a {
		t.Fatal("ItemRNG not deterministic")
	}
	if b := ItemRNG(1, 0, 6).Int63(); b == a {
		t.Fatal("distinct items share a stream")
	}
	if b := ItemRNG(1, 1, 5).Int63(); b == a {
		t.Fatal("distinct epochs share a stream")
	}
	if b := ItemRNG(2, 0, 5).Int63(); b == a {
		t.Fatal("distinct seeds share a stream")
	}
}

func gomaxprocs(t testing.TB, n int) {
	old := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(old) })
}

func TestEpochLRSchedule(t *testing.T) {
	if got := EpochLR(1e-3, 0, 3, 10); got != 1e-3 {
		t.Fatalf("no decay expected, got %v", got)
	}
	if got := EpochLR(1e-3, 1e-4, 0, 10); got != 1e-3 {
		t.Fatalf("first epoch LR = %v", got)
	}
	last := EpochLR(1e-3, 1e-4, 9, 10)
	if math.Abs(last-1e-4) > 1e-9 {
		t.Fatalf("last epoch LR = %v", last)
	}
	mid := EpochLR(1e-3, 1e-4, 5, 10)
	if mid >= 1e-3 || mid <= 1e-4 {
		t.Fatalf("mid LR %v out of bounds", mid)
	}
}
