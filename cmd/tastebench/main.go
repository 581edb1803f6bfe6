// Command tastebench regenerates the paper's tables and figures (§6) over
// the synthetic substrate. With no flags it runs every experiment at full
// scale, training models on first use and caching checkpoints under
// ./artifacts so that subsequent runs skip training.
//
// Usage:
//
//	tastebench [-quick] [-experiment name] [-checkpoints dir] [-repeats n] [-latency scale]
//
// -experiment table7 runs one traced detection and prints the per-phase
// latency breakdown in the style of the paper's Table 7.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/experiments"
)

func main() {
	var (
		quick       = flag.Bool("quick", false, "minutes-scale smoke configuration (tiny corpora, 2 epochs)")
		experiment  = flag.String("experiment", "all", "experiment to run: all, "+strings.Join(experiments.AllExperiments, ", "))
		checkpoints = flag.String("checkpoints", "artifacts", "checkpoint cache directory (empty disables)")
		repeats     = flag.Int("repeats", 0, "timing repetitions per variant (0 = config default)")
		latency     = flag.Float64("latency", -1, "database latency scale, 1 = paper testbed (negative = config default)")
		verbose     = flag.Bool("v", true, "log training and run progress to stderr")
	)
	flag.Parse()

	cfg := experiments.DefaultConfig()
	if *quick {
		cfg = experiments.QuickConfig()
	}
	cfg.CheckpointDir = *checkpoints
	if *repeats > 0 {
		cfg.Repeats = *repeats
	}
	if *latency >= 0 {
		cfg.LatencyScale = *latency
	}
	if *verbose {
		cfg.Log = os.Stderr
	}

	suite := experiments.NewSuite(cfg)
	start := time.Now()

	// A first SIGINT/SIGTERM asks for a clean stop after the in-flight
	// experiment; a second one kills the process the usual way.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	done := make(chan error, 1)
	go func() { done <- suite.Run(*experiment, os.Stdout) }()
	var err error
	select {
	case err = <-done:
	case <-ctx.Done():
		stop()
		fmt.Fprintln(os.Stderr, "tastebench: interrupted, exiting (press again to force-kill)")
		os.Exit(130)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "tastebench:", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "tastebench: done in %v\n", time.Since(start).Round(time.Second))
}
