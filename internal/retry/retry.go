// Package retry is the repo's one transient-retry policy: exponential
// backoff with seeded jitter, deadline-aware give-up, and a caller-supplied
// transience test. It was extracted from the detection core (DESIGN.md §7)
// so every layer that retries — the detector against tenant databases, the
// fleet coordinator against replicas — shares the same machinery and the
// same reproducibility contract: jitter comes from a generator seeded at
// construction, so a (seed, fault-profile) pair replays identically.
package retry

import (
	"context"
	"math/rand"
	"sync"
	"time"
)

// Policy bounds a Retrier.
type Policy struct {
	// MaxRetries caps how many times a transient error is retried per
	// operation.
	MaxRetries int
	// BaseDelay is the backoff base: attempt k sleeps base·2ᵏ + jitter.
	BaseDelay time.Duration
	// MaxDelay caps a single backoff sleep (pre-jitter).
	MaxDelay time.Duration
	// DeadlineMargin gives up early: when the next backoff sleep would end
	// within this margin of the context deadline, the error is returned
	// instead of sleeping — the remaining budget belongs to degradation,
	// not to waiting.
	DeadlineMargin time.Duration
}

// Retrier runs operations under a Policy. Safe for concurrent use; the
// jitter generator is shared under a mutex so concurrent callers draw a
// serialized (still seeded) sequence.
type Retrier struct {
	policy Policy

	mu  sync.Mutex
	rng *rand.Rand
}

// New creates a Retrier whose jitter is seeded with seed.
func New(policy Policy, seed int64) *Retrier {
	return &Retrier{policy: policy, rng: rand.New(rand.NewSource(seed))}
}

// Backoff returns the sleep before retry attempt+1: base·2^attempt plus up
// to 50 % seeded jitter, capped at MaxDelay (pre-jitter).
func (r *Retrier) Backoff(attempt int) time.Duration {
	base := r.policy.BaseDelay
	if base <= 0 {
		return 0
	}
	delay := base << uint(attempt)
	if mx := r.policy.MaxDelay; mx > 0 && delay > mx {
		delay = mx
	}
	r.mu.Lock()
	jitter := time.Duration(r.rng.Int63n(int64(delay/2) + 1))
	r.mu.Unlock()
	return delay + jitter
}

// Do runs op, retrying errors for which transient returns true up to
// MaxRetries times with exponential backoff + jitter. It gives up early when
// the context dies or when the next backoff would cross the deadline (minus
// DeadlineMargin). onRetry, when non-nil, runs once per retry — the hook
// callers use to move their ledgers. Returns the retry count alongside the
// final error (nil on success).
func (r *Retrier) Do(ctx context.Context, transient func(error) bool, onRetry func(), op func() error) (int, error) {
	retries := 0
	for attempt := 0; ; attempt++ {
		err := op()
		if err == nil {
			return retries, nil
		}
		if !transient(err) || attempt >= r.policy.MaxRetries || ctx.Err() != nil {
			return retries, err
		}
		delay := r.Backoff(attempt)
		if dl, ok := ctx.Deadline(); ok && time.Now().Add(delay).After(dl.Add(-r.policy.DeadlineMargin)) {
			// Sleeping would eat the remaining budget; let the caller
			// degrade instead.
			return retries, err
		}
		retries++
		if onRetry != nil {
			onRetry()
		}
		if delay > 0 {
			t := time.NewTimer(delay)
			select {
			case <-t.C:
			case <-ctx.Done():
				t.Stop()
				return retries, err
			}
			t.Stop()
		}
	}
}
