package fleet

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"sort"
	"strings"
	"testing"

	"repro/internal/service"
)

// TestHarnessEndToEnd boots a small real fleet (trained model, live
// sockets) and sends it 12 single-table detects: every request must
// complete, each must be served by the replica the ring names for its
// database/table key, traffic must reach more than one replica, and the
// coordinator's /metrics must aggregate real replica series.
func TestHarnessEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a model")
	}
	h, err := StartLocal(HarnessConfig{
		Replicas: 2,
		// 40 tables leave four in the test split, which the ring spreads
		// over both replicas.
		Tables:  40,
		Tenants: 2,
		Seed:    7,
		Epochs:  1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()

	replicas := make([]string, 0, len(h.ReplicaURLs))
	for name := range h.ReplicaURLs {
		replicas = append(replicas, name)
	}
	sort.Strings(replicas)
	var targets [][2]string
	for _, tenant := range h.Tenants {
		for _, table := range h.TenantTables[tenant] {
			targets = append(targets, [2]string{tenant, table})
		}
	}
	if len(targets) == 0 {
		t.Fatal("harness registered no tables")
	}
	served := make(map[string]int)
	for i := 0; i < 12; i++ {
		db, table := targets[i%len(targets)][0], targets[i%len(targets)][1]
		body, _ := json.Marshal(service.DetectRequest{Database: db, Tables: []string{table}})
		resp, err := http.Post(h.CoordinatorURL+"/v1/detect", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("detect %s/%s: status %d", db, table, resp.StatusCode)
		}
		got, want := resp.Header.Get(ReplicaHeader), h.Coordinator.Ring().Owner(db+"/"+table)
		if got != want {
			t.Fatalf("detect %s/%s served by %q, ring owner is %q", db, table, got, want)
		}
		served[got]++
	}
	if len(served) < 2 {
		t.Fatalf("only %d replica(s) served traffic: %v", len(served), served)
	}

	// The coordinator's /v1/stats must surface each replica's tiered-cache
	// block and a fleet-wide rollup with real traffic in it.
	sresp, err := http.Get(h.CoordinatorURL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats StatsResponse
	if err := json.NewDecoder(sresp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	sresp.Body.Close()
	if len(stats.Caches) != len(replicas) {
		t.Fatalf("coordinator scraped %d cache blocks, want %d: %v", len(stats.Caches), len(replicas), stats.Caches)
	}
	for _, name := range replicas {
		if _, ok := stats.Caches[name]; !ok {
			t.Fatalf("replica %q missing from coordinator cache stats", name)
		}
	}
	// Each replica's serving-model block rides the same scrape: every
	// replica reports a live weight generation. The harness shares one
	// trained model across replicas, so the generations must agree — skew
	// here would mean a replica silently serves different weights.
	if len(stats.Models) != len(replicas) {
		t.Fatalf("coordinator scraped %d model blocks, want %d: %v", len(stats.Models), len(replicas), stats.Models)
	}
	gens := make(map[uint64]bool)
	for _, name := range replicas {
		mb, ok := stats.Models[name]
		if !ok {
			t.Fatalf("replica %q missing from coordinator model stats", name)
		}
		if mb.Generation == 0 {
			t.Fatalf("replica %q reports no weight generation: %+v", name, mb)
		}
		gens[mb.Generation] = true
	}
	if len(gens) != 1 {
		t.Fatalf("replicas sharing one model report skewed generations: %v", stats.Models)
	}
	if stats.CacheTotals == nil {
		t.Fatal("coordinator cache rollup absent")
	}
	if stats.CacheTotals.LatentHits+stats.CacheTotals.LatentMisses == 0 {
		t.Fatalf("no latent-cache traffic in fleet rollup: %+v", stats.CacheTotals)
	}
	if stats.CacheTotals.ResultHits+stats.CacheTotals.ResultMisses == 0 {
		t.Fatalf("no result-cache traffic in fleet rollup: %+v", stats.CacheTotals)
	}

	resp, err := http.Get(h.CoordinatorURL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	text, _ := io.ReadAll(resp.Body)
	for _, want := range []string{
		"taste_detect_requests_total", // aggregated from the replicas
		"taste_fleet_requests_total",  // the coordinator's own ledger
	} {
		if !strings.Contains(string(text), want) {
			t.Fatalf("fleet /metrics missing %q:\n%.2000s", want, text)
		}
	}
}
