package obs

import (
	"context"
	"sync"
	"testing"
	"time"
)

func TestSpanTree(t *testing.T) {
	ctx, root := NewTrace(context.Background(), "detect")
	c1, s1 := StartSpan(ctx, "s1:users")
	_, inner := StartSpan(c1, "scan")
	time.Sleep(time.Millisecond)
	inner.End()
	s1.End()
	_, s2 := StartSpan(ctx, "s2:users")
	s2.End()
	root.End()

	n := root.Node()
	if n.Name != "detect" || len(n.Children) != 2 {
		t.Fatalf("tree %+v", n)
	}
	if n.Children[0].Name != "s1:users" || len(n.Children[0].Children) != 1 {
		t.Fatalf("children %+v", n.Children)
	}
	if n.Children[0].Children[0].DurationMicros < 500 {
		t.Fatalf("inner span too short: %+v", n.Children[0].Children[0])
	}
	if n.DurationMicros < n.Children[0].Children[0].DurationMicros {
		t.Fatal("root shorter than descendant")
	}
	if n.Children[1].StartMicros < n.Children[0].StartMicros {
		t.Fatal("children not sorted by start")
	}
}

// TestStartSpanWithoutTrace: instrumentation sites run on untraced requests
// too — StartSpan must be free (nil span) and every Span method nil-safe.
func TestStartSpanWithoutTrace(t *testing.T) {
	ctx := context.Background()
	ctx2, s := StartSpan(ctx, "s1")
	if s != nil {
		t.Fatal("no root: span must be nil")
	}
	if ctx2 != ctx {
		t.Fatal("no root: context must pass through unchanged")
	}
	s.End()
	if s.Duration() != 0 {
		t.Fatal("nil span methods must be no-ops")
	}
	if s.Node().Name != "" {
		t.Fatal("nil span node must be zero")
	}
	if FromContext(ctx) != nil {
		t.Fatal("no span expected")
	}
}

func TestSpanEndIdempotent(t *testing.T) {
	_, s := NewTrace(context.Background(), "r")
	s.End()
	d1 := s.Duration()
	time.Sleep(2 * time.Millisecond)
	s.End()
	if d2 := s.Duration(); d2 != d1 {
		t.Fatalf("second End moved the end time: %v -> %v", d1, d2)
	}
}

// TestSpanConcurrentChildren mirrors the pipelined scheduler: many stages
// attach children to one root concurrently.
func TestSpanConcurrentChildren(t *testing.T) {
	ctx, root := NewTrace(context.Background(), "detect")
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, s := StartSpan(ctx, "stage")
			s.End()
		}()
	}
	wg.Wait()
	root.End()
	if got := len(root.Node().Children); got != 16 {
		t.Fatalf("children = %d, want 16", got)
	}
}

func TestWalk(t *testing.T) {
	ctx, root := NewTrace(context.Background(), "a")
	c, s := StartSpan(ctx, "b")
	_, s2 := StartSpan(c, "c")
	s2.End()
	s.End()
	root.End()
	var names []string
	root.Node().Walk(func(n SpanNode) { names = append(names, n.Name) })
	if len(names) != 3 || names[0] != "a" || names[1] != "b" || names[2] != "c" {
		t.Fatalf("walk order %v", names)
	}
}
