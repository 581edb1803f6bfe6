// Package metrics implements the evaluation metrics of §6.2: micro-averaged
// precision/recall/F1 for multi-label semantic type detection.
package metrics

import "sync"

// F1Accumulator accumulates micro-averaged multi-label counts. The
// background "no type" outcome is represented by empty label sets on both
// sides, contributing nothing — matching how the paper scores columns
// without semantic types. It is safe for concurrent use.
type F1Accumulator struct {
	mu         sync.Mutex
	tp, fp, fn int
}

// NewF1Accumulator creates an empty accumulator.
func NewF1Accumulator() *F1Accumulator { return &F1Accumulator{} }

// Add records one column's predicted and ground-truth label sets.
func (a *F1Accumulator) Add(predicted, truth []string) {
	predSet := toSet(predicted)
	truthSet := toSet(truth)
	a.mu.Lock()
	defer a.mu.Unlock()
	for p := range predSet {
		if truthSet[p] {
			a.tp++
		} else {
			a.fp++
		}
	}
	for t := range truthSet {
		if !predSet[t] {
			a.fn++
		}
	}
}

func toSet(ss []string) map[string]bool {
	m := make(map[string]bool, len(ss))
	for _, s := range ss {
		m[s] = true
	}
	return m
}

// Precision returns micro precision (1 when nothing was predicted).
func (a *F1Accumulator) Precision() float64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return safeDiv(a.tp, a.tp+a.fp)
}

// Recall returns micro recall (1 when there was nothing to find).
func (a *F1Accumulator) Recall() float64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return safeDiv(a.tp, a.tp+a.fn)
}

// F1 returns the micro F1 score.
func (a *F1Accumulator) F1() float64 {
	p, r := a.Precision(), a.Recall()
	if p+r == 0 {
		return 0
	}
	return 2 * p * r / (p + r)
}

func safeDiv(num, den int) float64 {
	if den == 0 {
		return 1
	}
	return float64(num) / float64(den)
}
