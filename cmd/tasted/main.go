// Command tasted serves the Taste detector over HTTP (see
// internal/service for the API). It loads an ADTD checkpoint produced by
// tastetrain — or, with -train, trains a fresh model at startup — and hosts
// a demo tenant database generated from the test split.
//
// Usage:
//
//	tasted -checkpoint taste.ckpt -addr :8080
//	tasted -train -addr :8080        # self-contained demo
//	tasted -registry /var/taste/registry -addr :8080   # serve the latest published version
//
// With -registry the /v1/models endpoints come alive: list published
// versions, hot-swap the serving model with zero downtime, and publish the
// (possibly feedback-adapted) serving weights as a new deduplicated version.
//
// Then:
//
//	curl -s localhost:8080/v1/types | jq .
//	curl -s -XPOST localhost:8080/v1/detect -d '{"database":"demo","pipelined":true}' | jq .
package main

import (
	"bytes"
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
		checkpoint   = flag.String("checkpoint", "", "ADTD checkpoint from tastetrain (matching -tables/-seed)")
		registryDir  = flag.String("registry", "", "model-registry journal directory (from tastetrain -publish); enables /v1/models list/swap/publish")
		modelName    = flag.String("model-name", "taste", "registry model name to serve and publish under")
		modelVersion = flag.Int("model-version", 0, "registry version to serve at boot (0 = latest; requires -registry)")
		train        = flag.Bool("train", false, "train a fresh model at startup instead of loading a checkpoint")
		tables       = flag.Int("tables", 200, "corpus size backing the vocabulary/type space (must match the checkpoint)")
		seed         = flag.Int64("seed", 1, "corpus seed (must match the checkpoint)")
		epochs       = flag.Int("epochs", 8, "training epochs when -train is set")
		trainWorkers = flag.Int("train-workers", 1, "data-parallel gradient workers when -train is set (bit-reproducible per (seed, workers))")
		gradAccum    = flag.Int("grad-accum", 1, "micro-batches accumulated per worker per optimizer step when -train is set")
		deadline     = flag.Duration("deadline", 0, "default per-request deadline for /v1/detect (0 = none; requests can override via deadline_ms)")
		faultProb    = flag.Float64("fault-prob", 0, "demo tenant: probability of a transient fault per scan/query/connect (chaos mode)")
		faultSeed    = flag.Int64("fault-seed", 1, "demo tenant: fault-injection seed")
		cacheBytes   = flag.Int64("cache-bytes", 64<<20, "latent-cache byte budget (0 disables the metadata-latent tier)")
		resultCache  = flag.Int64("result-cache", 16<<20, "result-cache byte budget memoizing per-column detect outputs (0 disables; invalidated on any weight update)")
	)
	flag.Parse()
	if err := checkBootFlags(*train, *checkpoint, *registryDir, *modelVersion); err != nil {
		log.Fatalf("tasted: %v", err)
	}

	ds := corpus.Generate(corpus.DefaultRegistry(), corpus.WikiTableProfile(*tables), *seed)
	tok := adtd.BuildVocabulary(ds.Train, ds.Registry.Names(), 4000)
	types := adtd.NewTypeSpace(ds.Registry.Names())
	model, err := adtd.New(adtd.ReproScale(), tok, types, *seed)
	if err != nil {
		log.Fatal(err)
	}

	// The registry lives on its own zero-latency simulated store: the
	// latency/fault model belongs to tenant databases, not to the service's
	// control plane.
	var reg *registry.Registry
	if *registryDir != "" {
		reg, err = registry.Open(simdb.NewServer(simdb.NoLatency), *registryDir, registry.Options{})
		if err != nil {
			log.Fatalf("open registry: %v", err)
		}
	}
	bootVersion := 0

	switch {
	case *train:
		cfg := adtd.DefaultTrainConfig()
		cfg.Epochs = *epochs
		cfg.LR, cfg.FinalLR = 1.5e-3, 4e-4
		cfg.PosWeight = 6
		cfg.Workers = *trainWorkers
		cfg.GradAccum = *gradAccum
		cfg.Log = os.Stderr
		log.Printf("training model (%d epochs) …", cfg.Epochs)
		if _, err := adtd.FineTune(model, ds.Train, cfg); err != nil {
			log.Fatal(err)
		}
	case *checkpoint != "":
		f, err := os.Open(*checkpoint)
		if err != nil {
			log.Fatal(err)
		}
		if err := model.Load(f); err != nil {
			log.Fatalf("load checkpoint: %v", err)
		}
		f.Close()
		log.Printf("loaded checkpoint %s", *checkpoint)
	case reg != nil:
		version := *modelVersion
		if version == 0 {
			latest, ok := reg.Latest(*modelName)
			if !ok {
				log.Fatalf("registry %s has no published versions of %q", *registryDir, *modelName)
			}
			version = latest
		}
		ckpt, err := reg.Checkpoint(context.Background(), *modelName, version)
		if err != nil {
			log.Fatalf("registry checkpoint %s@%d: %v", *modelName, version, err)
		}
		if err := model.Load(bytes.NewReader(ckpt)); err != nil {
			log.Fatalf("load %s@%d: %v", *modelName, version, err)
		}
		bootVersion = version
		log.Printf("loaded %s@%d from registry %s", *modelName, version, *registryDir)
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
		svc.AttachRegistry(reg, *modelName, bootVersion)
		log.Printf("model registry attached (%s, serving %s@%d): /v1/models endpoints enabled", *registryDir, *modelName, bootVersion)
	}
	svc.SetDefaultDeadline(*deadline)

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

// checkBootFlags refuses, before anything loads, the flag combinations that
// name no model or that would drop one silently: the model comes from
// -train, -checkpoint or -registry (in that order), and -model-version picks
// the registry version served at boot, so it needs -registry and means
// nothing beside -train or -checkpoint.
func checkBootFlags(train bool, checkpoint, registryDir string, modelVersion int) error {
	switch {
	case !train && checkpoint == "" && registryDir == "":
		return errors.New("need -checkpoint, -registry, or -train")
	case modelVersion < 0:
		return fmt.Errorf("-model-version must be ≥ 0, got %d", modelVersion)
	case modelVersion == 0:
		return nil
	case registryDir == "":
		return fmt.Errorf("-model-version %d requires -registry", modelVersion)
	case train:
		return fmt.Errorf("-model-version %d conflicts with -train: the trained model is served", modelVersion)
	case checkpoint != "":
		return fmt.Errorf("-model-version %d conflicts with -checkpoint: the checkpoint is served", modelVersion)
	}
	return nil
}
