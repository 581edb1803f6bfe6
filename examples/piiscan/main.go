// PII scan: the data-protection scenario from the paper's introduction. A
// cloud tenant wants Personally Identifiable Information located across
// their databases, but is sensitive about letting the detection service
// read column content. This example runs the same detector twice — strict
// privacy (Phase 2 disabled, metadata only) and default (Phase 2 allowed) —
// and compares what each finds and what each cost the user database.
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"sort"

	taste "repro"
)

// piiTypes are the sensitive semantic types the tenant cares about.
var piiTypes = map[string]bool{
	"email": true, "phone_number": true, "credit_card_number": true,
	"ssn": true, "passport_number": true, "iban": true, "full_name": true,
	"first_name": true, "last_name": true, "address": true,
}

func main() {
	fmt.Println("generating tenant databases …")
	ds := taste.GitTablesDataset(120, 7)

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

	for _, mode := range []struct {
		name    string
		options taste.Options
	}{
		{"strict privacy (metadata only, P2 disabled)", strictOptions()},
		{"default (P2 scans uncertain columns)", taste.DefaultOptions()},
	} {
		server := taste.NewServer(taste.PaperLatency(0.2))
		server.LoadTables("tenant", ds.Test)
		det, err := taste.NewDetector(model, mode.options)
		if err != nil {
			log.Fatal(err)
		}
		rep, err := det.DetectDatabase(context.Background(), server, "tenant", taste.PipelinedMode())
		if err != nil {
			log.Fatal(err)
		}

		found := map[string]int{}
		for _, tr := range rep.Tables {
			for _, c := range tr.Columns {
				for _, typ := range c.Admitted {
					if piiTypes[typ] {
						found[typ]++
					}
				}
			}
		}
		snap := server.Accounting().Snapshot()
		fmt.Printf("\n== %s ==\n", mode.name)
		fmt.Printf("sensitive columns found by type:\n")
		var names []string
		for t := range found {
			names = append(names, t)
		}
		sort.Strings(names)
		for _, t := range names {
			fmt.Printf("  %-22s %d\n", t, found[t])
		}
		fmt.Printf("impact on the user database:\n")
		fmt.Printf("  columns scanned:   %d of %d (%.1f%%)\n", rep.ScannedColumns, rep.TotalColumns, 100*rep.ScannedRatio())
		fmt.Printf("  cells transferred: %d (%d bytes)\n", snap.CellsRead, snap.BytesRead)
		fmt.Printf("  queries issued:    %d over %d connection(s)\n", snap.Queries, snap.Connections)
		fmt.Printf("  end-to-end time:   %v\n", rep.Duration.Round(1e6))
	}
}

// strictOptions disables Phase 2 entirely by collapsing the uncertainty
// band (α = β), the configuration §3.2 recommends for tenants who disallow
// content examination.
func strictOptions() taste.Options {
	o := taste.DefaultOptions()
	o.Alpha, o.Beta = 0.5, 0.5
	return o
}
