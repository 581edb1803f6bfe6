package fleet

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"time"
)

// The health policy every pool runs: probe each replica once a second,
// bound each probe (and every other replica GET) by 2 s, eject after 3
// consecutive failures and readmit after 2 consecutive good probes.
const (
	probeInterval = time.Second
	getTimeout    = 2 * time.Second
	ejectAfter    = 3
	readmitAfter  = 2
)

// ReplicaState is one replica's health snapshot.
type ReplicaState struct {
	Name    string `json:"name"`
	URL     string `json:"url"`
	Healthy bool   `json:"healthy"`
	// ConsecFailures / ConsecSuccesses are the current hysteresis counters.
	ConsecFailures  int `json:"consec_failures"`
	ConsecSuccesses int `json:"consec_successes"`
	// Probes / ProbeFailures count lifetime probe outcomes.
	Probes        int `json:"probes"`
	ProbeFailures int `json:"probe_failures"`
	// Ejections counts healthy→unhealthy transitions.
	Ejections int `json:"ejections"`
}

type replica struct {
	name string
	url  string

	mu      sync.Mutex
	state   ReplicaState
	healthy bool
}

// Pool tracks a fixed set of replicas and their health. Membership is
// static after construction (the ring depends on it for minimal key
// movement); health is a dynamic filter over that membership.
type Pool struct {
	client   *http.Client
	replicas []*replica
	byName   map[string]*replica

	// ctx is cancelled by Stop; it ends the prober and any probe in flight.
	ctx    context.Context
	cancel context.CancelFunc
	prober sync.WaitGroup

	// onTransition, when set, runs after any health transition (both
	// directions) with the replica name and its new health. The coordinator
	// uses it to move gauges; tests use it to observe hysteresis.
	onTransition func(name string, healthy bool)
}

// NewPool creates a pool over name→baseURL replicas whose GETs go through
// client. Replicas start healthy: the fleet boots optimistic and ejects on
// evidence, so a cold start does not shed every request while the first
// probe round runs.
func NewPool(replicas map[string]string, client *http.Client) *Pool {
	p := &Pool{
		client: client,
		byName: make(map[string]*replica, len(replicas)),
	}
	p.ctx, p.cancel = context.WithCancel(context.Background())
	// Sorted iteration keeps replica order deterministic everywhere.
	names := make([]string, 0, len(replicas))
	for name := range replicas {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		r := &replica{name: name, url: replicas[name], healthy: true}
		r.state = ReplicaState{Name: name, URL: replicas[name], Healthy: true}
		p.replicas = append(p.replicas, r)
		p.byName[name] = r
	}
	return p
}

// SetTransitionHook installs the health-transition callback. Call before
// Start.
func (p *Pool) SetTransitionHook(fn func(name string, healthy bool)) { p.onTransition = fn }

// Start launches the background prober.
func (p *Pool) Start() {
	p.prober.Add(1)
	go func() {
		defer p.prober.Done()
		t := time.NewTicker(probeInterval)
		defer t.Stop()
		for {
			select {
			case <-p.ctx.Done():
				return
			case <-t.C:
				p.ProbeOnce(p.ctx)
			}
		}
	}()
}

// Stop terminates the prober, if Start launched one, and waits for it to
// exit.
func (p *Pool) Stop() {
	p.cancel()
	p.prober.Wait()
}

// ProbeOnce probes every replica's /v1/stats once, sequentially in name
// order (deterministic for tests; N is small). The stats endpoint — not
// /healthz — is probed deliberately: it exercises the detector's ledgers,
// so a replica that accepts TCP but cannot serve its API is ejected too.
func (p *Pool) ProbeOnce(ctx context.Context) {
	for _, r := range p.replicas {
		_, err := p.get(ctx, r.name, "/v1/stats")
		if ctx.Err() != nil {
			return // cut short by Stop: no evidence either way
		}
		p.noteProbe(r, err == nil)
	}
}

// get is the one replica GET: the probe, /v1/types and both scrapes use
// it. It returns the body of a 200 answer within getTimeout; a transport
// error, another status or a failed read is an error.
func (p *Pool) get(ctx context.Context, name, path string) ([]byte, error) {
	ctx, cancel := context.WithTimeout(ctx, getTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, p.URL(name)+path, nil)
	if err != nil {
		return nil, err
	}
	resp, err := p.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("fleet: %s %s: status %d", name, path, resp.StatusCode)
	}
	return data, nil
}

func (p *Pool) noteProbe(r *replica, ok bool) {
	r.mu.Lock()
	r.state.Probes++
	if !ok {
		r.state.ProbeFailures++
	}
	transition, healthy := r.noteOutcomeLocked(ok)
	r.mu.Unlock()
	if transition && p.onTransition != nil {
		p.onTransition(r.name, healthy)
	}
}

// ReportRequest feeds a routed request's outcome into the hysteresis
// counters: request failures accelerate ejection, but only probe successes
// readmit (an ejected replica sees no requests). Unknown names are ignored.
func (p *Pool) ReportRequest(name string, ok bool) {
	r := p.byName[name]
	if r == nil {
		return
	}
	r.mu.Lock()
	transition, healthy := r.noteOutcomeLocked(ok)
	r.mu.Unlock()
	if transition && p.onTransition != nil {
		p.onTransition(r.name, healthy)
	}
}

// noteOutcomeLocked updates the hysteresis counters and returns whether a
// health transition happened. Caller holds r.mu.
func (r *replica) noteOutcomeLocked(ok bool) (transition, healthy bool) {
	if ok {
		r.state.ConsecFailures = 0
		r.state.ConsecSuccesses++
		if !r.healthy && r.state.ConsecSuccesses >= readmitAfter {
			r.healthy = true
			r.state.Healthy = true
			return true, true
		}
	} else {
		r.state.ConsecSuccesses = 0
		r.state.ConsecFailures++
		if r.healthy && r.state.ConsecFailures >= ejectAfter {
			r.healthy = false
			r.state.Healthy = false
			r.state.Ejections++
			return true, false
		}
	}
	return false, r.healthy
}

// IsHealthy reports one replica's health (unknown names are unhealthy).
func (p *Pool) IsHealthy(name string) bool {
	r := p.byName[name]
	if r == nil {
		return false
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.healthy
}

// URL returns a replica's base URL ("" for unknown names).
func (p *Pool) URL(name string) string {
	if r := p.byName[name]; r != nil {
		return r.url
	}
	return ""
}

// Healthy returns the healthy replica names in deterministic (name) order.
func (p *Pool) Healthy() []string {
	var out []string
	for _, r := range p.replicas {
		r.mu.Lock()
		ok := r.healthy
		r.mu.Unlock()
		if ok {
			out = append(out, r.name)
		}
	}
	return out
}

// Names returns every replica name in deterministic order.
func (p *Pool) Names() []string {
	out := make([]string, len(p.replicas))
	for i, r := range p.replicas {
		out[i] = r.name
	}
	return out
}

// Snapshot returns every replica's state in name order.
func (p *Pool) Snapshot() []ReplicaState {
	out := make([]ReplicaState, len(p.replicas))
	for i, r := range p.replicas {
		r.mu.Lock()
		out[i] = r.state
		r.mu.Unlock()
	}
	return out
}
