package cache

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"
)

// Do is Run for a key held as a string, reporting whether the result came
// from another caller's execution: the form these tests read.
func (g *Group[V]) Do(ctx context.Context, key string, fn func() (V, error)) (v V, shared bool, err error) {
	v, shared, _, err = g.do(ctx, []byte(key), fn)
	return v, shared, err
}

// TestSingleflightCoalesces: concurrent callers of one key share a single
// execution; exactly one leader runs fn.
func TestSingleflightCoalesces(t *testing.T) {
	g := NewGroup[int](nil)
	release := make(chan struct{})
	started := make(chan struct{})
	calls := 0

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		v, shared, err := g.Do(context.Background(), "k", func() (int, error) {
			calls++
			close(started)
			<-release
			return 42, nil
		})
		if err != nil || shared || v != 42 {
			t.Errorf("leader got (%d, shared=%v, %v)", v, shared, err)
		}
	}()
	<-started

	const followers = 5
	for i := 0; i < followers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, shared, err := g.Do(context.Background(), "k", func() (int, error) {
				t.Error("follower executed fn")
				return 0, nil
			})
			if err != nil || !shared || v != 42 {
				t.Errorf("follower got (%d, shared=%v, %v)", v, shared, err)
			}
		}()
	}
	// Followers must be registered as waiters before the leader finishes.
	for {
		if g.Stats().Coalesced == followers {
			break
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()

	if calls != 1 {
		t.Fatalf("fn ran %d times, want 1", calls)
	}
	st := g.Stats()
	if st.Leaders != 1 || st.Coalesced != followers || st.InFlight != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestSingleflightLeaderErrorPropagates: a leader failure reaches every
// coalesced follower verbatim.
func TestSingleflightLeaderErrorPropagates(t *testing.T) {
	g := NewGroup[int](nil)
	boom := errors.New("boom")
	release := make(chan struct{})
	started := make(chan struct{})

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, _, err := g.Do(context.Background(), "k", func() (int, error) {
			close(started)
			<-release
			return 0, boom
		})
		if !errors.Is(err, boom) {
			t.Errorf("leader err = %v", err)
		}
	}()
	<-started
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, shared, err := g.Do(context.Background(), "k", func() (int, error) { return 0, nil })
		if !shared || !errors.Is(err, boom) {
			t.Errorf("follower got shared=%v err=%v", shared, err)
		}
	}()
	for g.Stats().Coalesced != 1 {
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()
}

// TestSingleflightLeaderPanicContained: a panicking leader surfaces an
// error to itself and every waiter instead of deadlocking or repanicking.
func TestSingleflightLeaderPanicContained(t *testing.T) {
	g := NewGroup[int](nil)
	_, _, err := g.Do(context.Background(), "k", func() (int, error) {
		panic("kaboom")
	})
	if err == nil || !strings.Contains(err.Error(), "kaboom") {
		t.Fatalf("err = %v, want panic error", err)
	}
	if g.Stats().InFlight != 0 {
		t.Fatal("panicked call left in flight")
	}
	// The key must be reusable afterwards.
	v, _, err := g.Do(context.Background(), "k", func() (int, error) { return 7, nil })
	if err != nil || v != 7 {
		t.Fatalf("post-panic call got (%d, %v)", v, err)
	}
}

// TestSingleflightFollowerCtxCancel: a follower whose context dies while
// waiting gets ctx.Err(); the leader keeps running and completes normally.
func TestSingleflightFollowerCtxCancel(t *testing.T) {
	g := NewGroup[int](nil)
	release := make(chan struct{})
	started := make(chan struct{})

	var wg sync.WaitGroup
	wg.Add(1)
	leaderErr := make(chan error, 1)
	go func() {
		defer wg.Done()
		v, _, err := g.Do(context.Background(), "k", func() (int, error) {
			close(started)
			<-release
			return 42, nil
		})
		if v != 42 {
			leaderErr <- errors.New("leader result lost")
			return
		}
		leaderErr <- err
	}()
	<-started

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, shared, err := g.Do(ctx, "k", func() (int, error) { return 0, nil })
	if !shared || !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled follower got shared=%v err=%v", shared, err)
	}

	close(release)
	wg.Wait()
	if err := <-leaderErr; err != nil {
		t.Fatalf("leader affected by follower cancellation: %v", err)
	}
}

// TestSingleflightSequentialNotCoalesced: back-to-back calls on one key
// each run fn — coalescing applies to concurrent callers only.
func TestSingleflightSequentialNotCoalesced(t *testing.T) {
	g := NewGroup[int](nil)
	for i := 1; i <= 3; i++ {
		v, shared, err := g.Do(context.Background(), "k", func() (int, error) { return i, nil })
		if err != nil || shared || v != i {
			t.Fatalf("call %d got (%d, shared=%v, %v)", i, v, shared, err)
		}
	}
	st := g.Stats()
	if st.Leaders != 3 || st.Coalesced != 0 {
		t.Fatalf("stats = %+v", st)
	}
}
