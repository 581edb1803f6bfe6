// Pipelined: process a large batch of tables and compare sequential
// execution (how prior systems run) against the pipelined scheduler of §5,
// which overlaps one table's database I/O with another table's model
// inference. Also demonstrates the latent cache's contribution. (For the
// horizontal scale-out fleet — coordinator, hash ring, failover — see
// examples/fleet.)
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"time"

	taste "repro"
)

func main() {
	fmt.Println("generating a fleet of tenant tables …")
	ds := taste.WikiTableDataset(200, 3)

	fmt.Println("training ADTD model …")
	model, err := taste.NewModel(ds, taste.ReproScale(), 1)
	if err != nil {
		log.Fatal(err)
	}
	cfg := taste.DefaultTrainConfig()
	cfg.Epochs = 5
	cfg.LR, cfg.FinalLR = 1.5e-3, 5e-4
	cfg.PosWeight = 6
	cfg.Log = os.Stderr
	if err := taste.Train(model, ds, cfg); err != nil {
		log.Fatal(err)
	}

	// Batch = the test split plus the validation split, ~60 tables.
	batch := append(append([]*taste.Table{}, ds.Val...), ds.Test...)
	fmt.Printf("\nbatch: %d tables\n\n", len(batch))

	type run struct {
		name    string
		mode    taste.ExecMode
		caching bool
	}
	runs := []run{
		{"sequential, no cache", taste.SequentialMode, false},
		{"sequential, latent cache", taste.SequentialMode, true},
		// Reads are not pooled (TP1 is unbounded); Workers caps the
		// inference stages running at once (TP2).
		{"pipelined (TP2=4), latent cache", taste.PipelinedMode(), true},
		{"pipelined (TP2=8), latent cache", taste.ExecMode{Pipelined: true, Workers: 8}, true},
	}
	fmt.Printf("%-38s %12s %10s %12s\n", "execution mode", "duration", "scanned", "cache hits")
	var baseline time.Duration
	for i, r := range runs {
		opts := taste.DefaultOptions()
		if !r.caching {
			opts.CacheBytes = 0
		}
		det, err := taste.NewDetector(model, opts)
		if err != nil {
			log.Fatal(err)
		}
		server := taste.NewServer(taste.PaperLatency(1.0))
		server.LoadTables("tenant", batch)
		rep, err := det.DetectDatabase(context.Background(), server, "tenant", r.mode)
		if err != nil {
			log.Fatal(err)
		}
		if len(rep.Errors) > 0 {
			log.Fatalf("batch errors: %v", rep.Errors)
		}
		if i == 0 {
			baseline = rep.Duration
		}
		fmt.Printf("%-38s %12v %9.1f%% %12d   (%.1f%% faster than first row)\n",
			r.name, rep.Duration.Round(time.Millisecond),
			100*rep.ScannedRatio(), rep.CacheHits,
			100*(1-float64(rep.Duration)/float64(baseline)))
	}
}
