package metrics

import (
	"math"
	"sync"
	"testing"
	"testing/quick"
)

func TestPerfectPrediction(t *testing.T) {
	a := NewF1Accumulator()
	a.Add([]string{"x", "y"}, []string{"y", "x"})
	if a.Precision() != 1 || a.Recall() != 1 || a.F1() != 1 {
		t.Fatalf("P/R/F1 = %v/%v/%v", a.Precision(), a.Recall(), a.F1())
	}
}

func TestEmptyBothSidesIsNeutral(t *testing.T) {
	a := NewF1Accumulator()
	a.Add(nil, nil) // column without type, correctly left unlabelled
	tp, fp, fn := a.tp, a.fp, a.fn
	if tp != 0 || fp != 0 || fn != 0 {
		t.Fatal("empty/empty must contribute nothing")
	}
	if a.F1() != 1 {
		t.Fatalf("vacuous F1 = %v, want 1", a.F1())
	}
}

func TestFalsePositiveAndNegative(t *testing.T) {
	a := NewF1Accumulator()
	a.Add([]string{"x"}, []string{"y"})
	tp, fp, fn := a.tp, a.fp, a.fn
	if tp != 0 || fp != 1 || fn != 1 {
		t.Fatalf("counts = %d/%d/%d", tp, fp, fn)
	}
	if a.F1() != 0 {
		t.Fatalf("F1 = %v", a.F1())
	}
}

func TestMicroAveraging(t *testing.T) {
	a := NewF1Accumulator()
	a.Add([]string{"x"}, []string{"x"})      // tp
	a.Add([]string{"x"}, nil)                // fp
	a.Add(nil, []string{"x"})                // fn
	a.Add([]string{"y", "x"}, []string{"x"}) // tp + fp
	// tp=2, fp=2, fn=1
	if p := a.Precision(); math.Abs(p-0.5) > 1e-12 {
		t.Fatalf("precision = %v", p)
	}
	if r := a.Recall(); math.Abs(r-2.0/3) > 1e-12 {
		t.Fatalf("recall = %v", r)
	}
	want := 2 * 0.5 * (2.0 / 3) / (0.5 + 2.0/3)
	if f := a.F1(); math.Abs(f-want) > 1e-12 {
		t.Fatalf("F1 = %v, want %v", f, want)
	}
}

func TestDuplicateLabelsCountOnce(t *testing.T) {
	a := NewF1Accumulator()
	a.Add([]string{"x", "x"}, []string{"x", "x"})
	tp, fp, fn := a.tp, a.fp, a.fn
	if tp != 1 || fp != 0 || fn != 0 {
		t.Fatalf("counts = %d/%d/%d", tp, fp, fn)
	}
}

func TestConcurrentAdds(t *testing.T) {
	a := NewF1Accumulator()
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				a.Add([]string{"x"}, []string{"x"})
			}
		}()
	}
	wg.Wait()
	tp := a.tp
	if tp != 1600 {
		t.Fatalf("tp = %d, want 1600", tp)
	}
}

// Property: F1 is always within [0,1] and symmetric counts behave sanely.
func TestF1BoundsProperty(t *testing.T) {
	f := func(preds, truths []string) bool {
		a := NewF1Accumulator()
		a.Add(preds, truths)
		f1 := a.F1()
		return f1 >= 0 && f1 <= 1 && !math.IsNaN(f1)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
