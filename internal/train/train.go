// Package train is the data-parallel training runtime shared by every
// training loop in the reproduction (adtd.FineTune, adtd.Pretrain,
// baselines.FineTune).
//
// A Trainer run owns the epoch/shuffle/LR-decay loop and fans items out to
// W gradient workers, one item per worker per optimizer step. Worker 0
// trains against the canonical model directly; every other worker runs
// forward+backward on its own replica model whose parameters alias the
// canonical weights (tensor.AliasData) but own pooled gradient buffers
// (tensor.AttachGrads), so no Tensor.Grad is ever written concurrently.
// After each group of Workers items the trainer reduces worker gradients
// into the canonical parameters in a fixed binary-tree order, averages
// them, and takes one optimizer step.
//
// Determinism contract: a run is bit-reproducible for a fixed
// (Seed, Workers) pair — shuffling and all per-item sampling derive from
// counter-based RNGs (EpochPerm, ItemRNG) keyed by stable item identity,
// never from a shared stream, so results do not depend on which worker
// processed which item first. Workers=1 executes exactly the classic serial
// loop (zero → loss → backward → step per item, no gradient scaling).
// Changing Workers regroups items per optimizer step (W items, so W× fewer
// steps per epoch) and therefore changes the floating-point summation order
// of the averaged gradient; losses follow a statistically equivalent but
// not bit-identical trajectory.
package train

import (
	"fmt"
	"io"
	"math"
	"math/rand"
	"sync"
	"time"

	"repro/internal/tensor"
)

// Config controls one training run. The zero value of every optional field
// selects the serial default (1 worker, no shuffling, no clipping, no
// logging).
type Config struct {
	// Epochs over the item set. Must be positive.
	Epochs int
	// Workers is the number of data-parallel gradient workers (≤0 → 1).
	Workers int
	// Shuffle reshuffles item order every epoch (EpochPerm).
	Shuffle bool
	// LR is the initial Adam learning rate; FinalLR, when positive, decays
	// it exponentially across epochs (EpochLR).
	LR      float64
	FinalLR float64
	// ClipNorm, when positive, enables global-norm gradient clipping.
	ClipNorm float64
	// WeightDecay is the AdamW decoupled weight decay (0 disables).
	WeightDecay float64
	// Seed drives shuffling and all per-item RNG derivation.
	Seed int64
	// Log, when non-nil, receives one progress line per epoch (and every
	// LogEvery items when LogEvery > 0), prefixed with LogPrefix.
	Log       io.Writer
	LogPrefix string
	LogEvery  int
}

// Worker is one gradient worker: a parameter list (canonical for worker 0,
// replica tensors aliasing the canonical weights for the rest) and a step
// function that builds the loss graph for one item. Step receives the
// item's stable index and an item-scoped RNG (ItemRNG-derived), and returns
// the loss tensor — or nil to skip the item (it then contributes nothing to
// the gradient or the epoch loss). The trainer runs Backward and releases
// the graph.
type Worker struct {
	Params []*tensor.Tensor
	Step   func(item int, rng *rand.Rand) *tensor.Tensor
}

// Spec describes what to train: the canonical parameters the optimizer
// updates, the number of items per epoch, and a constructor invoked once
// per worker slot. NewWorker(0) must return a worker whose Params are the
// canonical parameters themselves; NewWorker(w>0) must return a replica
// whose Params alias the canonical Data (tensor.AliasData) — the trainer
// attaches pooled gradient arenas to replicas and releases them when the
// run ends.
type Spec struct {
	Params    []*tensor.Tensor
	Items     int
	NewWorker func(w int) (Worker, error)
}

// Run executes the training loop and returns the mean loss of the final
// epoch (mean over items that produced a loss).
func Run(spec Spec, cfg Config) (float64, error) {
	if cfg.Epochs <= 0 {
		return 0, fmt.Errorf("train: Epochs must be positive")
	}
	if spec.Items <= 0 {
		return 0, fmt.Errorf("train: no items to train on")
	}
	nw := cfg.Workers
	if nw <= 0 {
		nw = 1
	}

	workers := make([]Worker, nw)
	for w := range workers {
		wk, err := spec.NewWorker(w)
		if err != nil {
			return 0, fmt.Errorf("train: worker %d: %w", w, err)
		}
		workers[w] = wk
	}
	for w := 1; w < nw; w++ {
		arena := tensor.AttachGrads(workers[w].Params)
		defer arena.Release()
	}
	tensor.ZeroGrads(spec.Params)

	opt := tensor.NewAdam(spec.Params, cfg.LR)
	opt.ClipNorm = cfg.ClipNorm
	opt.WeightDecay = cfg.WeightDecay

	steps := spec.Items
	losses := make([]float64, steps)
	haveLoss := make([]bool, steps)
	busy := make([]time.Duration, nw)

	meanLoss := 0.0
	runStart := time.Now()
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		epochStart := time.Now()
		opt.LR = EpochLR(cfg.LR, cfg.FinalLR, epoch, cfg.Epochs)
		var order []int
		if cfg.Shuffle {
			order = EpochPerm(cfg.Seed, epoch, spec.Items)
		} else {
			order = make([]int, spec.Items)
			for i := range order {
				order[i] = i
			}
		}
		for i := range losses {
			losses[i], haveLoss[i] = 0, false
		}
		for w := range busy {
			busy[w] = 0
		}

		logged, windowSum, windowN := 0, 0.0, 0
		for g0 := 0; g0 < steps; g0 += nw {
			g1 := min(g0+nw, steps)
			// Step s goes to worker s-g0: a fixed assignment, so the
			// per-worker gradients — and hence the reduced gradient — are
			// identical across runs with the same configuration.
			if nw == 1 {
				runWorker(workers[0], g0, order[g0], epoch, cfg.Seed, losses, haveLoss, &busy[0])
			} else {
				var wg sync.WaitGroup
				for s := g0; s < g1; s++ {
					wg.Add(1)
					go func(w, s int) {
						defer wg.Done()
						runWorker(workers[w], s, order[s], epoch, cfg.Seed, losses, haveLoss, &busy[w])
					}(s-g0, s)
				}
				wg.Wait()
			}

			// Fixed binary-tree reduction into worker 0 (the canonical
			// parameters): stride doubling keeps the summation order
			// independent of worker completion timing.
			for stride := 1; stride < nw; stride *= 2 {
				for lo := 0; lo+stride < nw; lo += 2 * stride {
					tensor.AccumGrads(workers[lo].Params, workers[lo+stride].Params)
				}
			}
			n := 0
			for s := g0; s < g1; s++ {
				if haveLoss[s] {
					n++
					windowSum += losses[s]
					windowN++
				}
			}
			if n > 0 {
				if n > 1 {
					tensor.ScaleGrads(spec.Params, 1/float64(n))
				}
				opt.Step()
				mOptSteps.Inc()
				if cfg.ClipNorm > 0 {
					mGradNorm.Observe(opt.LastGradNorm())
				}
				for w := 0; w < nw; w++ {
					tensor.ZeroGrads(workers[w].Params)
				}
			}
			if cfg.Log != nil && cfg.LogEvery > 0 && g1/cfg.LogEvery > logged {
				logged = g1 / cfg.LogEvery
				if windowN > 0 {
					fmt.Fprintf(cfg.Log, "%s step %d/%d: loss %.4f\n", cfg.LogPrefix, g1, steps, windowSum/float64(windowN))
				}
				windowSum, windowN = 0, 0
			}
		}

		total, cnt := 0.0, 0
		for s := range losses {
			if haveLoss[s] {
				total += losses[s]
				cnt++
			}
		}
		if cnt > 0 {
			meanLoss = total / float64(cnt)
		}
		epochWall := time.Since(epochStart)
		mEpochs.Inc()
		mEpochLoss.Observe(meanLoss)
		stepsPerSec := 0.0
		if epochWall > 0 {
			stepsPerSec = float64(steps) / epochWall.Seconds()
		}
		mStepsPerSec.Set(int64(stepsPerSec * 1000))
		for w := 0; w < nw; w++ {
			util := int64(0)
			if epochWall > 0 {
				util = int64(busy[w]) * 1000 / int64(epochWall)
			}
			workerUtil(w).Set(util)
		}
		if cfg.Log != nil {
			elapsed := time.Since(runStart)
			eta := time.Duration(float64(elapsed) / float64(epoch+1) * float64(cfg.Epochs-epoch-1))
			fmt.Fprintf(cfg.Log, "%s epoch %d/%d: loss %.4f (%.1f steps/s, eta %s)\n",
				cfg.LogPrefix, epoch+1, cfg.Epochs, meanLoss, stepsPerSec, eta.Round(time.Second))
		}
	}
	return meanLoss, nil
}

// runWorker processes one worker's item of a group: build the loss, record
// it at the item's position s in the epoch (positions are disjoint across
// workers), backprop into this worker's own gradient buffers, and release
// the graph.
func runWorker(wk Worker, s, item, epoch int, seed int64, losses []float64, haveLoss []bool, busy *time.Duration) {
	t0 := time.Now()
	loss := wk.Step(item, ItemRNG(seed, epoch, item))
	if loss != nil {
		losses[s] = loss.Item()
		haveLoss[s] = true
		loss.Backward()
		tensor.ReleaseGraph(loss)
	}
	d := time.Since(t0)
	mStepSeconds.ObserveDuration(d)
	mMicrobatches.Inc()
	*busy += d
}

// EpochLR interpolates the learning rate exponentially from lr to finalLR
// (when 0 < finalLR < lr) across epochs.
func EpochLR(lr, finalLR float64, epoch, epochs int) float64 {
	if finalLR <= 0 || finalLR >= lr || epochs <= 1 {
		return lr
	}
	frac := float64(epoch) / float64(epochs-1)
	return lr * math.Pow(finalLR/lr, frac)
}

// mix64 is the splitmix64 finalizer: a bijective avalanche over uint64 used
// to derive independent RNG streams from (seed, epoch, item) counters.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// deriveSeed hashes a (seed, epoch, counter, stream) tuple into an RNG seed.
func deriveSeed(seed int64, epoch, counter int, stream uint64) int64 {
	const golden = 0x9e3779b97f4a7c15
	h := mix64(uint64(seed) + golden)
	h = mix64(h ^ mix64(uint64(epoch)+golden) ^ stream)
	h = mix64(h ^ mix64(uint64(counter)+golden))
	return int64(h >> 1) // keep non-negative for rand.NewSource symmetry
}

// ItemRNG returns the RNG for one item, keyed by its stable (pre-shuffle)
// identity. Sampling decisions made with it are independent of the order in
// which items are processed and of which worker runs them.
func ItemRNG(seed int64, epoch, item int) *rand.Rand {
	return rand.New(rand.NewSource(deriveSeed(seed, epoch, item, 0x7461737465727367)))
}

// EpochPerm returns the deterministic item permutation for an epoch.
func EpochPerm(seed int64, epoch, n int) []int {
	r := rand.New(rand.NewSource(deriveSeed(seed, epoch, 0, 0x7065726d73747261)))
	return r.Perm(n)
}
