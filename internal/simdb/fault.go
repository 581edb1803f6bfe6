package simdb

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
)

// TransientError marks a failure as retryable: the operation hit a condition
// (dropped connection, query timeout, failover blip) that a real RDS client
// would retry, as opposed to a permanent error such as an unknown table.
// Callers classify with IsTransient / errors.As.
type TransientError struct {
	// Op names the failed operation ("connect", "query", "scan", …).
	Op string
	// Err is the underlying cause.
	Err error
}

// Error implements the error interface.
func (e *TransientError) Error() string {
	return fmt.Sprintf("simdb: transient %s failure: %v", e.Op, e.Err)
}

// Unwrap exposes the cause to errors.Is/As.
func (e *TransientError) Unwrap() error { return e.Err }

// Transient wraps err as a retryable failure of the given operation.
func Transient(op string, err error) error { return &TransientError{Op: op, Err: err} }

// IsTransient reports whether err is (or wraps) a TransientError.
func IsTransient(err error) bool {
	var t *TransientError
	return errors.As(err, &t)
}

// FaultProfile injects the failure modes of a real cloud database (the
// RDS-over-VPC deployment of §2.2 sees connection drops, slow queries, and
// timeouts as routine events) into the simulated server. All draws come from
// one seeded generator, in the order operations reach the server, so a
// given (profile, operation sequence) pair produces the same faults on every
// run. Outcomes repeat only where that order is fixed, as in a sequential
// detect on one connection; a pipelined detect's order follows goroutine
// scheduling, so which tables fault varies from run to run (ROADMAP item 35
// keys faults by what they hit instead).
//
// Probabilities are per operation and independent; zero values disable that
// fault kind, so the zero FaultProfile is the happy path.
type FaultProfile struct {
	// Seed seeds the fault generator. Two servers with equal profiles and
	// equal operation sequences fail identically.
	Seed int64
	// ConnectFailProb is the probability that Connect returns a transient
	// error after paying the setup latency.
	ConnectFailProb float64
	// QueryFailProb is the probability that a metadata query (ListTables,
	// TableMetadata, SchemaMetadata, AnalyzeTable) fails transiently.
	QueryFailProb float64
	// ScanFailProb is the probability that a content scan fails transiently
	// before any rows are transferred.
	ScanFailProb float64
	// MidScanDropProb is the probability that a content scan drops mid-way:
	// part of the per-cell transfer latency is paid, then the connection
	// breaks and no rows are returned.
	MidScanDropProb float64
	// SlowQueryProb is the probability that an operation's latency is
	// multiplied by SlowQueryFactor (a straggling query, not a failure).
	SlowQueryProb float64
	// SlowQueryFactor is the latency multiplier for slow queries
	// (default 8 when a SlowQueryProb is set).
	SlowQueryFactor float64
}

// enabled reports whether any fault kind can fire.
func (f FaultProfile) enabled() bool {
	return f.ConnectFailProb > 0 || f.QueryFailProb > 0 || f.ScanFailProb > 0 ||
		f.MidScanDropProb > 0 || f.SlowQueryProb > 0
}

// faultState is the server-side injector: profile + seeded generator.
type faultState struct {
	mu      sync.Mutex
	profile FaultProfile
	rng     *rand.Rand
}

// faultDecision is what the injector chose for one operation.
type faultDecision struct {
	// err, when non-nil, is the transient error the operation must return.
	err error
	// midScan selects the drop-after-partial-transfer failure shape; the
	// scan pays dropAt of its transfer latency before returning err.
	midScan bool
	dropAt  float64 // fraction of transfer latency paid before a mid-scan drop
	// slowFactor (≥ 1) multiplies the operation's latency.
	slowFactor float64
}

// SetFaultProfile arms (or, with a zero profile, disarms) deterministic
// fault injection. Call before issuing traffic; resetting mid-flight also
// resets the random stream.
func (s *Server) SetFaultProfile(p FaultProfile) {
	s.faultMu.Lock()
	defer s.faultMu.Unlock()
	if p.SlowQueryFactor <= 0 {
		p.SlowQueryFactor = 8
	}
	if !p.enabled() {
		s.faultProfile = nil
		return
	}
	s.faultProfile = &faultState{profile: p, rng: rand.New(rand.NewSource(p.Seed))}
}

// opConnect/opQuery/opScan classify operations for the injector.
type faultOp int

const (
	opConnect faultOp = iota
	opQuery
	opScan
)

// decide draws this operation's fate. Every call consumes a fixed number of
// random values per op kind, keeping the stream aligned across runs. The
// operation targets db, or object within it when object is not empty; the
// two are joined into an error's text only when a fault fires.
func (s *Server) decide(op faultOp, db, object string) faultDecision {
	s.faultMu.Lock()
	defer s.faultMu.Unlock()
	d := faultDecision{slowFactor: 1}
	fs := s.faultProfile
	if fs == nil {
		return d
	}
	detail := db
	if object != "" {
		detail += "." + object
	}
	fs.mu.Lock()
	defer fs.mu.Unlock()
	p, rng := fs.profile, fs.rng
	slow, fail, drop := rng.Float64(), rng.Float64(), rng.Float64()
	if p.SlowQueryProb > 0 && slow < p.SlowQueryProb {
		d.slowFactor = p.SlowQueryFactor
	}
	switch op {
	case opConnect:
		if fail < p.ConnectFailProb {
			d.err = Transient("connect", fmt.Errorf("connection refused by %s", detail))
		}
	case opQuery:
		if fail < p.QueryFailProb {
			d.err = Transient("query", fmt.Errorf("lost connection during query on %s", detail))
		}
	case opScan:
		if fail < p.ScanFailProb {
			d.err = Transient("scan", fmt.Errorf("scan aborted on %s", detail))
		} else if drop < p.MidScanDropProb {
			d.err = Transient("scan", fmt.Errorf("connection dropped mid-scan on %s", detail))
			d.midScan = true
			d.dropAt = 0.1 + 0.8*rng.Float64()
		}
	}
	if d.err != nil {
		s.acct.addFault()
	}
	return d
}
