// Command tasted serves the Taste detector over HTTP (see
// internal/service for the API). It serves a model file tastetrain wrote —
// the file alone: its header carries the model's configuration, vocabulary
// and type space — and hosts a demo tenant database generated from the
// test split (-tables, -seed).
//
// Usage:
//
//	tastetrain -o taste.ckpt && tasted -checkpoint taste.ckpt -addr :8080
//	tasted -registry /var/taste/registry -addr :8080   # serve the latest published version
//
// With -registry the /v1/models endpoints come alive: list published
// versions, hot-swap the serving model with zero downtime, and publish the
// serving weights as a new version. A registry directory is one model's
// version history, one checkpoint file per version; a second model is a
// second directory. A version tastetrain -publish adds while tasted serves
// is listed at once, and POST /v1/models/swap {"version":0} serves it.
//
// Then:
//
//	curl -s localhost:8080/v1/types | jq .
//	curl -s -XPOST localhost:8080/v1/detect -d '{"database":"demo","pipelined":true}' | jq .
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
	"syscall"
	"time"

	"repro/internal/adtd"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/registry"
	"repro/internal/service"
	"repro/internal/simdb"
	"repro/internal/tensor"
)

func main() {
	var (
		addr         = flag.String("addr", ":8080", "listen address")
		debugAddr    = flag.String("debug-addr", "", "observability listener serving /metrics and /debug/pprof (empty disables)")
		checkpoint   = flag.String("checkpoint", "", "model file from tastetrain -o, served as it is")
		registryDir  = flag.String("registry", "", "model-registry directory (from tastetrain -publish); enables /v1/models list/swap/publish")
		modelVersion = flag.Int("model-version", 0, "registry version to serve at boot (0 = latest; requires -registry)")
		tables       = flag.Int("tables", 200, "demo tenant: tables in the generated corpus whose test split it holds (the model comes from its file)")
		seed         = flag.Int64("seed", 1, "demo tenant: corpus seed")
		deadline     = flag.Duration("deadline", 0, "default per-request deadline for /v1/detect (0 = none; requests can override via deadline_ms)")
		faultProb    = flag.Float64("fault-prob", 0, "demo tenant: probability of a transient fault per scan/query/connect (chaos mode)")
		faultSeed    = flag.Int64("fault-seed", 1, "demo tenant: fault-injection seed")
		cacheBytes   = flag.Int64("cache-bytes", 64<<20, "latent-cache byte budget (0 disables the metadata-latent tier)")
		resultCache  = flag.Int64("result-cache", 16<<20, "result-cache byte budget memoizing per-column detect outputs (0 disables; invalidated on any weight update)")
	)
	flag.Parse()
	if err := checkBootFlags(*checkpoint, *registryDir, *modelVersion); err != nil {
		log.Fatalf("tasted: %v", err)
	}

	var (
		model       *adtd.Model
		reg         *registry.Registry
		bootVersion int
		err         error
	)
	if *registryDir != "" {
		if reg, err = registry.Open(*registryDir); err != nil {
			log.Fatalf("open registry: %v", err)
		}
	}
	if *checkpoint != "" {
		if model, err = readModelFile(*checkpoint); err != nil {
			log.Fatalf("load checkpoint: %v", err)
		}
		log.Printf("loaded checkpoint %s", *checkpoint)
	} else {
		if bootVersion = *modelVersion; bootVersion == 0 {
			if bootVersion, err = reg.Latest(); err == nil && bootVersion == 0 {
				err = errors.New("the registry has no published versions")
			}
		}
		if err == nil {
			model, err = service.ReadVersion(reg, bootVersion)
		}
		if err != nil {
			log.Fatalf("registry %s: %v", *registryDir, err)
		}
	}

	opts := core.DefaultOptions()
	opts.CacheBytes = *cacheBytes
	opts.ResultCacheBytes = *resultCache
	det, err := core.NewDetector(model, opts)
	if err != nil {
		log.Fatal(err)
	}
	svc := service.New(det)
	if reg != nil {
		svc.AttachRegistry(reg, bootVersion)
		log.Printf("model registry attached (%s, serving version %d): /v1/models endpoints enabled", *registryDir, bootVersion)
	}
	svc.SetDefaultDeadline(*deadline)

	ds := corpus.Generate(corpus.DefaultRegistry(), corpus.WikiTableProfile(*tables), *seed)
	demo := simdb.NewServer(simdb.PaperLatency(0.1))
	demo.LoadTables("demo", ds.Test)
	if *faultProb > 0 {
		demo.SetFaultProfile(simdb.FaultProfile{
			Seed:            *faultSeed,
			ConnectFailProb: *faultProb,
			QueryFailProb:   *faultProb,
			ScanFailProb:    *faultProb,
			MidScanDropProb: *faultProb / 2,
			SlowQueryProb:   *faultProb,
		})
		log.Printf("chaos mode: demo tenant injecting transient faults with p=%.3f (seed %d)", *faultProb, *faultSeed)
	}
	svc.RegisterTenant("demo", demo)

	srv := &http.Server{Addr: *addr, Handler: svc.Handler()}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	var debugSrv *http.Server
	if *debugAddr != "" {
		debugSrv = &http.Server{Addr: *debugAddr, Handler: svc.DebugHandler()}
		go func() {
			log.Printf("observability listening on %s (/metrics, /debug/pprof)", *debugAddr)
			if err := debugSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				log.Printf("debug listener: %v", err)
			}
		}()
	}
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		<-ctx.Done()
		// Give in-flight detect requests a bounded window to finish; their
		// contexts descend from the server's base context and are cancelled
		// when the window closes.
		shCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(shCtx); err != nil {
			log.Printf("shutdown: %v", err)
		}
		if debugSrv != nil {
			_ = debugSrv.Shutdown(shCtx)
		}
	}()

	log.Printf("tasted listening on %s (demo tenant: %d tables; kernels: %s)", *addr, len(ds.Test), tensor.Kernels())
	if err := srv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Fatal(err)
	}
	// ListenAndServe returns as soon as Shutdown starts; wait for it to
	// finish draining in-flight requests before closing what they use.
	<-drained
	svc.Close()
	log.Printf("tasted: graceful shutdown complete")
}

// readModelFile reads the model file at path.
func readModelFile(path string) (*adtd.Model, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return adtd.ReadModel(f)
}

// checkBootFlags refuses, before anything loads, the flag combinations that
// name no model or that would drop one silently: the model comes from
// -checkpoint or else -registry, and -model-version picks the registry
// version served at boot, so it needs -registry and means nothing beside
// -checkpoint.
func checkBootFlags(checkpoint, registryDir string, modelVersion int) error {
	switch {
	case checkpoint == "" && registryDir == "":
		return errors.New("need -checkpoint or -registry")
	case modelVersion < 0:
		return fmt.Errorf("-model-version must be ≥ 0, got %d", modelVersion)
	case modelVersion == 0:
		return nil
	case registryDir == "":
		return fmt.Errorf("-model-version %d requires -registry", modelVersion)
	case checkpoint != "":
		return fmt.Errorf("-model-version %d conflicts with -checkpoint: the checkpoint is served", modelVersion)
	}
	return nil
}
