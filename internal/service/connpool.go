// The connection pool under every request that talks to a tenant database
// (DESIGN.md §7 "Connection reuse"): /v1/detect, single-table and
// whole-database, and /v1/feedback all check a connection out of their
// tenant's idle list and hand it back when they are done, so a request pays
// the handshake only when no warm connection is waiting.
package service

import (
	"context"
	"sync"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/simdb"
)

// maxIdleConns caps one tenant's idle list. Without a cap a burst of N
// concurrent requests would leave N idle connections pinned on the tenant's
// database forever (nothing ever expires them). It is a constant because
// there is nothing to derive it from: the service has no admission bound, so
// no number of concurrent requests is "the most there can be". Four keeps a
// handful of concurrent callers per tenant warm while bounding what an idle
// tenant's database carries; a burst above it pays its handshakes, as every
// request did before the pool.
const maxIdleConns = 4

// tenant is one registered database server and its warm connections. A
// request resolves its tenant once and releases to the same value, so a
// connection checked out before a re-registration can never land in the
// replacement's idle list.
type tenant struct {
	server *simdb.Server

	mu   sync.Mutex
	idle []*simdb.Conn // LIFO: the most recently released connection is reused first
	// retired is set when the tenant name was re-registered or the service
	// closed: the idle list is gone and every later release closes.
	retired bool
}

// checkout gives the caller exclusive use of a connection to the tenant's
// database until release: the most recently released idle one, or on a miss
// a fresh one opened under the detector's retry ladder, whose retries are
// returned for the caller's response. A context that is already dead gets
// its error back, as a fresh connect would answer, and takes nothing from
// the pool.
func (t *tenant) checkout(ctx context.Context, det *core.Detector, dbName string) (*simdb.Conn, int, error) {
	_, span := obs.StartSpan(ctx, "connect")
	defer span.End()
	if err := ctx.Err(); err != nil {
		return nil, 0, err
	}
	t.mu.Lock()
	if n := len(t.idle); n > 0 {
		conn := t.idle[n-1]
		t.idle[n-1] = nil
		t.idle = t.idle[:n-1]
		t.mu.Unlock()
		connpoolIdle.Add(-1)
		connpoolHits.Inc()
		return conn, 0, nil
	}
	t.mu.Unlock()
	connpoolMisses.Inc()
	return det.Connect(ctx, t.server, dbName)
}

// release ends a checkout. clean must be true only when the request that
// held the connection finished with no error, no retry, no degraded column
// and a live context; any other connection may have seen a fault or a
// cancelled read and is closed here, never handed out again. A clean
// connection is closed too when the idle list is full or the tenant retired.
func (t *tenant) release(conn *simdb.Conn, clean bool) {
	if clean {
		t.mu.Lock()
		if !t.retired && len(t.idle) < maxIdleConns {
			t.idle = append(t.idle, conn)
			t.mu.Unlock()
			connpoolIdle.Add(1)
			return
		}
		t.mu.Unlock()
	}
	connpoolDiscards.Inc()
	conn.Close()
}

// retire closes the tenant's idle connections and makes every later release
// close instead of pooling. Checked-out connections are closed by their
// holders' releases.
func (t *tenant) retire() {
	t.mu.Lock()
	idle := t.idle
	t.idle, t.retired = nil, true
	t.mu.Unlock()
	connpoolIdle.Add(-int64(len(idle)))
	for _, conn := range idle {
		conn.Close()
	}
}
