// Fleet: horizontal scale-out serving (DESIGN.md §12). Boots three tasted
// replicas behind the consistent-hash coordinator on loopback sockets,
// routes detection for several tenants, then kills a replica mid-run to
// show health-gated failover keeping the fleet answering — the cloud
// deployment story of §2.2 at demo scale.
package main

import (
	"encoding/json"
	"fmt"
	"log"
	"net/http"
	"strings"
	"time"

	"repro/internal/fleet"
)

func detect(baseURL, body string) (int, string, error) {
	resp, err := http.Post(baseURL+"/v1/detect", "application/json", strings.NewReader(body))
	if err != nil {
		return 0, "", err
	}
	defer resp.Body.Close()
	var parsed struct {
		TotalColumns int  `json:"total_columns"`
		Degraded     bool `json:"degraded"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&parsed); err != nil {
		return resp.StatusCode, "", err
	}
	return resp.StatusCode, fmt.Sprintf("%d columns, degraded=%v, served by %s",
		parsed.TotalColumns, parsed.Degraded, resp.Header.Get(fleet.ReplicaHeader)), nil
}

func fetchStats(baseURL string) fleet.StatsResponse {
	resp, err := http.Get(baseURL + "/v1/stats")
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	var stats fleet.StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		log.Fatal(err)
	}
	return stats
}

func replicaHealthy(stats fleet.StatsResponse, name string) bool {
	for _, r := range stats.Replicas {
		if r.Name == name {
			return r.Healthy
		}
	}
	return false
}

func main() {
	fmt.Println("booting a 3-replica fleet (one model, per-replica detectors) …")
	h, err := fleet.StartLocal(fleet.HarnessConfig{
		Replicas: 3,
		Tables:   60,
		Tenants:  6,
		Seed:     7,
		Epochs:   2,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer h.Close()
	fmt.Printf("coordinator %s over %d replicas, %d tenants\n\n",
		h.CoordinatorURL, len(h.ReplicaURLs), len(h.Tenants))

	fmt.Println("routing one whole-database detection per tenant:")
	victim := ""
	for _, tenant := range h.Tenants {
		if len(h.TenantTables[tenant]) == 0 {
			continue
		}
		status, summary, err := detect(h.CoordinatorURL, fmt.Sprintf(`{"database":%q}`, tenant))
		if err != nil || status != http.StatusOK {
			log.Fatalf("tenant %s: status %d err %v", tenant, status, err)
		}
		fmt.Printf("  %-10s → %s\n", tenant, summary)
		if victim == "" {
			owner := h.Coordinator.Ring().Owner(tenant)
			victim = owner
		}
	}

	fmt.Printf("\nkilling %s and re-routing its tenants …\n", victim)
	h.StopReplica(victim)
	for _, tenant := range h.Tenants {
		if len(h.TenantTables[tenant]) == 0 || h.Coordinator.Ring().Owner(tenant) != victim {
			continue
		}
		status, summary, err := detect(h.CoordinatorURL, fmt.Sprintf(`{"database":%q}`, tenant))
		if err != nil || status != http.StatusOK {
			log.Fatalf("failover for %s: status %d err %v", tenant, status, err)
		}
		fmt.Printf("  %-10s → %s  (owner %s is down)\n", tenant, summary, victim)
	}

	// Wait (at most 10 s) until the fleet reports the dead replica ejected:
	// the failed routes above count toward its 3 strikes, and the prober,
	// once a second, supplies the rest.
	deadline := time.Now().Add(10 * time.Second)
	stats := fetchStats(h.CoordinatorURL)
	for replicaHealthy(stats, victim) {
		if time.Now().After(deadline) {
			log.Fatalf("%s still reads healthy after 10 s", victim)
		}
		time.Sleep(100 * time.Millisecond)
		stats = fetchStats(h.CoordinatorURL)
	}
	fmt.Printf("\nfleet stats: routed=%d failovers=%d retries=%d\n",
		stats.Routing.Routed, stats.Routing.Failovers, stats.Routing.Retries)
	for _, r := range stats.Replicas {
		fmt.Printf("  %-10s healthy=%-5v ejections=%d\n", r.Name, r.Healthy, r.Ejections)
	}
}
