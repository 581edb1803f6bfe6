// Request-scoped trace spans. A root span is opened explicitly per request
// (NewTrace); instrumentation sites then call StartSpan, which is a no-op
// returning a nil span unless the context already carries a trace — so the
// hot path pays nothing when the caller did not ask for a trace. Spans form
// a parent/child tree threaded through context.Context, safe for the
// pipelined scheduler's concurrent stage execution, and export as a JSON
// tree (SpanNode) for the /v1/detect `trace` field.
package obs

import (
	"context"
	"sync"
	"time"
)

// Span is one timed node in a request's trace tree. All methods are safe on
// a nil receiver, so instrumentation never needs to branch on whether
// tracing is active.
type Span struct {
	name  string
	start time.Time

	mu       sync.Mutex
	end      time.Time
	children []*Span
}

type spanCtxKey struct{}

// NewTrace opens a root span and returns a context carrying it. The caller
// owns the root: End it and export with Node.
func NewTrace(ctx context.Context, name string) (context.Context, *Span) {
	s := &Span{name: name, start: time.Now()}
	return context.WithValue(ctx, spanCtxKey{}, s), s
}

// StartSpan opens a child span under the context's current span. When the
// context carries no trace it returns (ctx, nil): recording is free unless
// the request opted in via NewTrace.
func StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	parent, _ := ctx.Value(spanCtxKey{}).(*Span)
	if parent == nil {
		return ctx, nil
	}
	s := &Span{name: name, start: time.Now()}
	parent.mu.Lock()
	parent.children = append(parent.children, s)
	parent.mu.Unlock()
	return context.WithValue(ctx, spanCtxKey{}, s), s
}

// FromContext returns the context's current span, or nil.
func FromContext(ctx context.Context) *Span {
	s, _ := ctx.Value(spanCtxKey{}).(*Span)
	return s
}

// End closes the span. The first call wins; End on a nil span is a no-op.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.end.IsZero() {
		s.end = time.Now()
	}
	s.mu.Unlock()
}

// Duration returns the span's elapsed time (to now if still open; 0 on nil).
func (s *Span) Duration() time.Duration {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	end := s.end
	s.mu.Unlock()
	if end.IsZero() {
		end = time.Now()
	}
	return end.Sub(s.start)
}

// SpanNode is the JSON export of a span tree. Times are microseconds;
// StartMicros is the offset from the root span's start, so a renderer can
// draw a waterfall without absolute clocks.
type SpanNode struct {
	Name           string     `json:"name"`
	StartMicros    int64      `json:"start_us"`
	DurationMicros int64      `json:"duration_us"`
	Children       []SpanNode `json:"children,omitempty"`
}

// Node exports the span tree rooted at s, offsets relative to s's start.
// Children are sorted by start offset. Nil-safe (returns a zero node).
func (s *Span) Node() SpanNode {
	if s == nil {
		return SpanNode{}
	}
	return s.node(s.start)
}

func (s *Span) node(base time.Time) SpanNode {
	s.mu.Lock()
	children := append([]*Span(nil), s.children...)
	s.mu.Unlock()
	n := SpanNode{
		Name:           s.name,
		StartMicros:    s.start.Sub(base).Microseconds(),
		DurationMicros: s.Duration().Microseconds(),
	}
	for _, c := range children {
		n.Children = append(n.Children, c.node(base))
	}
	// The pipelined scheduler finishes stages out of submission order;
	// sort so the exported waterfall reads chronologically.
	sortNodes(n.Children)
	return n
}

func sortNodes(ns []SpanNode) {
	for i := 1; i < len(ns); i++ {
		for j := i; j > 0 && ns[j].StartMicros < ns[j-1].StartMicros; j-- {
			ns[j], ns[j-1] = ns[j-1], ns[j]
		}
	}
}

// Walk visits every node of the tree depth-first (root first).
func (n SpanNode) Walk(visit func(SpanNode)) {
	visit(n)
	for _, c := range n.Children {
		c.Walk(visit)
	}
}
