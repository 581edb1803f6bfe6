// Command tastefleet fronts N tasted replicas with the fleet coordinator:
// consistent-hash routing of /v1/detect by tenant (database, or
// database/table for single-table requests), health-checked replica pools
// with hysteresis, per-replica transient retries with cross-replica
// failover, admission control, and fleet-wide /metrics aggregation. The
// routing, health and admission policy is fixed (DESIGN.md §12): the only
// flags name where to listen and which replicas to route to.
//
// Usage:
//
//	tasted -train -addr 127.0.0.1:18081 &
//	tasted -train -addr 127.0.0.1:18082 &
//	tastefleet -addr :8080 -replicas r0=http://127.0.0.1:18081,r1=http://127.0.0.1:18082
//
// Then:
//
//	curl -s -XPOST localhost:8080/v1/detect -d '{"database":"demo"}' | jq .
//	curl -s localhost:8080/v1/stats | jq .routing
//	curl -s localhost:8080/metrics | grep taste_fleet
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/fleet"
)

// parseReplicas accepts "name=url,name=url" (or bare URLs, auto-named
// replica00, replica01, … in listed order).
func parseReplicas(spec string) (map[string]string, error) {
	out := make(map[string]string)
	for i, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, url := fmt.Sprintf("replica%02d", i), part
		if eq := strings.Index(part, "="); eq >= 0 {
			name, url = part[:eq], part[eq+1:]
		}
		if name == "" || url == "" {
			return nil, fmt.Errorf("bad replica spec %q", part)
		}
		if !strings.HasPrefix(url, "http://") && !strings.HasPrefix(url, "https://") {
			url = "http://" + url
		}
		if _, dup := out[name]; dup {
			return nil, fmt.Errorf("duplicate replica name %q", name)
		}
		out[name] = strings.TrimSuffix(url, "/")
	}
	if len(out) == 0 {
		return nil, errors.New("no replicas given (-replicas name=url,...)")
	}
	return out, nil
}

func main() {
	var (
		addr         = flag.String("addr", ":8080", "listen address")
		replicasSpec = flag.String("replicas", "", "comma-separated tasted replicas, name=url or bare url")
	)
	flag.Parse()

	replicas, err := parseReplicas(*replicasSpec)
	if err != nil {
		log.Fatalf("tastefleet: %v", err)
	}

	coord := fleet.NewCoordinator(replicas, fleet.Config{})
	coord.Start()
	defer coord.Stop()

	srv := &http.Server{Addr: *addr, Handler: coord.Handler()}
	go func() {
		log.Printf("tastefleet: routing across %d replicas on %s", len(replicas), *addr)
		if err := srv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
			log.Fatalf("tastefleet: %v", err)
		}
	}()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	<-ctx.Done()
	log.Print("tastefleet: shutting down")
	shCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_ = srv.Shutdown(shCtx)
}
