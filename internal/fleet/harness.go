package fleet

import (
	"fmt"
	"net"
	"net/http"
	"time"

	"repro/internal/adtd"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/service"
	"repro/internal/simdb"
)

// HarnessConfig sizes an in-process fleet.
type HarnessConfig struct {
	// Replicas is the tasted replica count (0 = 3).
	Replicas int
	// Tables sizes the synthetic corpus (0 = 40).
	Tables int
	// Tenants is how many tenant databases the test split is sharded into
	// round-robin (0 = 8). Each replica registers every tenant — the ring,
	// not registration, decides placement.
	Tenants int
	// Seed drives corpus generation and model init (0 = 7).
	Seed int64
	// Epochs fine-tunes the shared model (0 = 1).
	Epochs int
}

// Harness is a fully wired local fleet: one trained model shared by
// Replicas in-process tasted services (each with its own detector and
// latent cache) behind a coordinator, everything on real loopback sockets.
// examples/fleet and the fleet tests drive fleets through this one
// constructor. The coordinator probes replica health every 200 ms; each
// replica's detector runs the process defaults with the result cache on at
// 16 MiB, because a serving fleet is the deployment that tier exists for.
type Harness struct {
	Coordinator    *Coordinator
	CoordinatorURL string
	// ReplicaURLs maps replica name → base URL.
	ReplicaURLs map[string]string
	// Tenants lists the registered tenant database names.
	Tenants []string
	// TenantTables maps tenant → its table names.
	TenantTables map[string][]string

	services []*service.Service
	servers  map[string]*http.Server
	coordSrv *http.Server
}

// StartLocal boots the fleet and blocks until every listener is accepting.
func StartLocal(cfg HarnessConfig) (*Harness, error) {
	if cfg.Replicas <= 0 {
		cfg.Replicas = 3
	}
	if cfg.Tables <= 0 {
		cfg.Tables = 40
	}
	if cfg.Tenants <= 0 {
		cfg.Tenants = 8
	}
	if cfg.Seed == 0 {
		cfg.Seed = 7
	}
	if cfg.Epochs <= 0 {
		cfg.Epochs = 1
	}

	// One model trained once; replicas share its (read-only at inference)
	// weights but own their detectors, caches, and accounting.
	ds := corpus.Generate(corpus.DefaultRegistry(), corpus.WikiTableProfile(cfg.Tables), cfg.Seed)
	tok := adtd.BuildVocabulary(ds.Train, ds.Registry.Names(), 4000)
	types := adtd.NewTypeSpace(ds.Registry.Names())
	model, err := adtd.New(adtd.ReproScale(), tok, types, cfg.Seed)
	if err != nil {
		return nil, fmt.Errorf("fleet harness: model: %w", err)
	}
	tcfg := adtd.DefaultTrainConfig()
	tcfg.Epochs = cfg.Epochs
	if _, err := adtd.FineTune(model, ds.Train, tcfg); err != nil {
		return nil, fmt.Errorf("fleet harness: train: %w", err)
	}

	// Tenant databases: the test split sharded round-robin, one shared
	// simdb server per tenant (simdb is concurrency-safe; sharing keeps the
	// harness light).
	tenants := make([]string, cfg.Tenants)
	dbs := make(map[string]*simdb.Server, cfg.Tenants)
	for i := range tenants {
		tenants[i] = fmt.Sprintf("tenant%02d", i)
	}
	for i, name := range tenants {
		srv := simdb.NewServer(simdb.NoLatency)
		var shard []*corpus.Table
		for j := i; j < len(ds.Test); j += cfg.Tenants {
			shard = append(shard, ds.Test[j])
		}
		srv.LoadTables(name, shard)
		dbs[name] = srv
	}

	h := &Harness{
		ReplicaURLs:  make(map[string]string, cfg.Replicas),
		Tenants:      tenants,
		TenantTables: make(map[string][]string, cfg.Tenants),
		servers:      make(map[string]*http.Server, cfg.Replicas),
	}
	for i, name := range tenants {
		for j := i; j < len(ds.Test); j += cfg.Tenants {
			h.TenantTables[name] = append(h.TenantTables[name], ds.Test[j].Name)
		}
	}
	fail := func(err error) (*Harness, error) {
		h.Close()
		return nil, err
	}

	opts := core.DefaultOptions()
	opts.ResultCacheBytes = 16 << 20
	for i := 0; i < cfg.Replicas; i++ {
		name := fmt.Sprintf("replica%02d", i)
		det, err := core.NewDetector(model, opts)
		if err != nil {
			return fail(fmt.Errorf("fleet harness: detector %s: %w", name, err))
		}
		svc := service.New(det)
		for tname, srv := range dbs {
			svc.RegisterTenant(tname, srv)
		}
		h.services = append(h.services, svc)
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return fail(fmt.Errorf("fleet harness: listen %s: %w", name, err))
		}
		hs := &http.Server{Handler: svc.Handler()}
		go hs.Serve(ln)
		h.servers[name] = hs
		h.ReplicaURLs[name] = "http://" + ln.Addr().String()
	}

	pool := DefaultPoolConfig()
	pool.ProbeInterval = 200 * time.Millisecond
	h.Coordinator = NewCoordinator(h.ReplicaURLs, Config{Pool: pool})
	h.Coordinator.Start()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fail(fmt.Errorf("fleet harness: listen coordinator: %w", err))
	}
	h.coordSrv = &http.Server{Handler: h.Coordinator.Handler()}
	go h.coordSrv.Serve(ln)
	h.CoordinatorURL = "http://" + ln.Addr().String()
	return h, nil
}

// StopReplica tears down one replica's HTTP server (simulating a crash);
// the coordinator's health gating notices via failed requests/probes.
// Unknown names are a no-op.
func (h *Harness) StopReplica(name string) {
	if hs := h.servers[name]; hs != nil {
		_ = hs.Close()
		delete(h.servers, name)
	}
}

// Close tears down the coordinator and every replica.
func (h *Harness) Close() {
	if h.Coordinator != nil {
		h.Coordinator.Stop()
	}
	if h.coordSrv != nil {
		_ = h.coordSrv.Close()
	}
	for _, hs := range h.servers {
		_ = hs.Close()
	}
	for _, svc := range h.services {
		svc.Close()
	}
}
