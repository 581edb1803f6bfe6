package tensor

import (
	"fmt"
	"math"
)

// WeightedBCEWithLogits computes the mean multi-label binary cross-entropy
// between logits and targets (same shape; targets in {0,1}) with a
// per-element positive-class weight: loss_i = posWeight*y*log(1+e^-x) +
// (1-y)*log(1+e^x). Working on logits rather than probabilities keeps the
// backward pass numerically stable, and the weight lets training compensate
// for the extreme label sparsity of multi-label type detection (most
// (column, type) pairs are negative).
//
// This is the per-task loss L_BCE of §4.3 in the paper, averaged over all
// (column, type) pairs in the batch.
func WeightedBCEWithLogits(logits, targets *Tensor, posWeight float64) *Tensor {
	checkSameShape("WeightedBCEWithLogits", logits, targets)
	if posWeight <= 0 {
		panic(fmt.Sprintf("tensor: posWeight must be positive, got %g", posWeight))
	}
	out := result(1, 1, []*Tensor{logits}, nil)
	n := float64(len(logits.Data))
	s := 0.0
	for i, x := range logits.Data {
		y := targets.Data[i]
		// Stable: log(1+e^x) = max(x,0) + log1p(e^{-|x|})
		softplus := math.Max(x, 0) + math.Log1p(math.Exp(-math.Abs(x)))
		// y*posW*(softplus − x) + (1−y)*softplus
		s += y*posWeight*(softplus-x) + (1-y)*softplus
	}
	out.Data[0] = s / n
	if out.requiresGrad {
		out.backward = func() {
			logits.ensureGrad()
			g := out.Grad[0] / n
			for i, x := range logits.Data {
				y := targets.Data[i]
				sig := 1 / (1 + math.Exp(-x))
				logits.Grad[i] += g * (y*posWeight*(sig-1) + (1-y)*sig)
			}
		}
	}
	return out
}

// CrossEntropyRows computes the mean softmax cross-entropy over rows of
// logits against integer class targets; rows with target < 0 are ignored
// (the convention used for non-masked positions in MLM pre-training).
func CrossEntropyRows(logits *Tensor, targets []int) *Tensor {
	if len(targets) != logits.Rows {
		panic(fmt.Sprintf("tensor: CrossEntropyRows got %d targets for %d rows", len(targets), logits.Rows))
	}
	out := result(1, 1, []*Tensor{logits}, nil)
	active := 0
	s := 0.0
	// Per-row log-sum-exp, retained for backward.
	lse := make([]float64, logits.Rows)
	for i := 0; i < logits.Rows; i++ {
		if targets[i] < 0 {
			continue
		}
		if targets[i] >= logits.Cols {
			panic(fmt.Sprintf("tensor: CrossEntropyRows target %d out of %d classes", targets[i], logits.Cols))
		}
		row := logits.Row(i)
		maxv := math.Inf(-1)
		for _, v := range row {
			if v > maxv {
				maxv = v
			}
		}
		sum := 0.0
		for _, v := range row {
			sum += math.Exp(v - maxv)
		}
		lse[i] = maxv + math.Log(sum)
		s += lse[i] - row[targets[i]]
		active++
	}
	if active == 0 {
		out.Data[0] = 0
		return out
	}
	out.Data[0] = s / float64(active)
	if out.requiresGrad {
		out.backward = func() {
			logits.ensureGrad()
			g := out.Grad[0] / float64(active)
			for i := 0; i < logits.Rows; i++ {
				if targets[i] < 0 {
					continue
				}
				row := logits.Data[i*logits.Cols : (i+1)*logits.Cols]
				grow := logits.Grad[i*logits.Cols : (i+1)*logits.Cols]
				for j, v := range row {
					p := math.Exp(v - lse[i])
					if j == targets[i] {
						grow[j] += g * (p - 1)
					} else {
						grow[j] += g * p
					}
				}
			}
		}
	}
	return out
}
