package cache

import (
	"bytes"
	"context"
	"fmt"
	"hash/maphash"
	"sync"
	"sync/atomic"

	"repro/internal/obs"
)

// Group coalesces concurrent executions of the same computation: while one
// caller (the leader) runs fn for a key, later callers with the same key
// (followers) block and receive the leader's result instead of recomputing.
// It is a stdlib-only, context-aware, generic reimplementation of the
// classic singleflight pattern, with panic containment — a panicking leader
// surfaces an error to every waiter instead of deadlocking them.
//
// In the serving path the key is the fleet route key plus the canonical
// request body, so dedup fires exactly where the fleet's consistent-hash
// routing concentrates identical traffic on one replica.
//
// A call nobody joined allocates nothing: the in-flight table is keyed by
// the key's hash (a call keeps the key's bytes to tell a hash collision from
// a repeat), a call's record is recycled when no follower holds it, and its
// done channel is made only when a first follower arrives to wait on it.
type Group[V any] struct {
	mu    sync.Mutex
	seed  maphash.Seed
	calls map[uint64]*call[V]
	free  sync.Pool // *call[V] records no follower holds

	leaders   atomic.Int64
	coalesced atomic.Int64
	counter   *obs.Counter // optional taste_cache_coalesced_total handle
}

type call[V any] struct {
	key []byte
	// done is closed when the leader finishes; nil until a follower waits.
	done      chan struct{}
	followers int
	val       V
	err       error
}

// FlightStats is a snapshot of a Group's counters for /v1/stats.
type FlightStats struct {
	// Leaders counts executions that actually ran fn.
	Leaders int64 `json:"leaders"`
	// Coalesced counts callers served by another caller's execution.
	Coalesced int64 `json:"coalesced"`
	// InFlight is the number of keys currently executing.
	InFlight int `json:"in_flight"`
}

// NewGroup creates a Group. coalesced, when non-nil, is incremented once
// per coalesced caller (wire it to MetricCoalesced on the serving
// registry).
func NewGroup[V any](coalesced *obs.Counter) *Group[V] {
	return &Group[V]{calls: make(map[uint64]*call[V]), seed: maphash.MakeSeed(), counter: coalesced}
}

// Run executes fn for key, coalescing with an in-flight execution of the
// same key, for a caller that recycles the value once it is done with it:
// key is read only during the call, and alone reports that the value went
// to this caller only — it led, and no follower joined — so nobody else
// reads it. A follower whose ctx dies while waiting returns ctx.Err()
// without cancelling the leader (other waiters may still want the result).
func (g *Group[V]) Run(ctx context.Context, key []byte, fn func() (V, error)) (v V, alone bool, err error) {
	v, shared, followed, err := g.do(ctx, key, fn)
	return v, !shared && !followed, err
}

// do is Run's body: shared reports a follower, followed a leader that a
// follower joined.
func (g *Group[V]) do(ctx context.Context, key []byte, fn func() (V, error)) (v V, shared, followed bool, err error) {
	h := maphash.Bytes(g.seed, key)
	g.mu.Lock()
	c, ok := g.calls[h]
	if ok && bytes.Equal(c.key, key) {
		c.followers++
		if c.done == nil {
			c.done = make(chan struct{})
		}
		done := c.done
		g.mu.Unlock()
		g.coalesced.Add(1)
		if g.counter != nil {
			g.counter.Inc()
		}
		select {
		case <-done:
			return c.val, true, false, c.err
		case <-ctx.Done():
			var zero V
			return zero, true, false, ctx.Err()
		}
	}
	c, _ = g.free.Get().(*call[V])
	if c == nil {
		c = new(call[V])
	}
	c.key = append(c.key[:0], key...)
	// A different key whose hash is in flight runs on its own, unregistered.
	register := !ok
	if register {
		g.calls[h] = c
	}
	g.mu.Unlock()
	g.leaders.Add(1)

	func() {
		defer func() {
			if r := recover(); r != nil {
				c.err = fmt.Errorf("singleflight: leader panicked: %v", r)
			}
		}()
		c.val, c.err = fn()
	}()

	if register {
		g.mu.Lock()
		delete(g.calls, h)
		g.mu.Unlock()
	}
	// Unregistered, the call gains no follower: those counted are all there are.
	v, err, followed = c.val, c.err, c.followers > 0
	if c.done != nil {
		close(c.done)
	}
	if !followed {
		var zero V
		c.val, c.err = zero, nil
		g.free.Put(c)
	}
	return v, false, followed, err
}

// Stats returns a snapshot of the group's counters.
func (g *Group[V]) Stats() FlightStats {
	g.mu.Lock()
	inFlight := len(g.calls)
	g.mu.Unlock()
	return FlightStats{
		Leaders:   g.leaders.Load(),
		Coalesced: g.coalesced.Load(),
		InFlight:  inFlight,
	}
}
