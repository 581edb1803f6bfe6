// Command tastegen generates a synthetic table corpus and either prints its
// summary statistics (the Table 2 view) or dumps tables as JSONL, one table
// per line in the format taste.ReadTables reads, for inspection and external
// tooling.
//
// Usage:
//
//	tastegen -dataset gittables -tables 200 -stats
//	tastegen -dataset wikitable -tables 10 -dump | jq .
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"repro/internal/corpus"
)

func main() {
	var (
		dataset = flag.String("dataset", "wikitable", "corpus profile: wikitable, gittables")
		tables  = flag.Int("tables", 100, "corpus size in tables")
		seed    = flag.Int64("seed", 1, "generation seed")
		stats   = flag.Bool("stats", true, "print per-split summary statistics")
		dump    = flag.Bool("dump", false, "dump test-split tables to stdout as JSONL, one table per line")
		types   = flag.Bool("types", false, "list the semantic type domain")
	)
	flag.Parse()

	reg := corpus.DefaultRegistry()
	if *types {
		for _, t := range reg.Types() {
			fmt.Printf("%-22s category=%-12s sql=%-9s names=%v\n", t.Name, t.Category, t.SQLType, t.ColumnNames)
		}
		return
	}

	var profile corpus.Profile
	switch *dataset {
	case "wikitable":
		profile = corpus.WikiTableProfile(*tables)
	case "gittables":
		profile = corpus.GitTablesProfile(*tables)
	default:
		log.Fatalf("tastegen: unknown dataset %q", *dataset)
	}
	ds := corpus.Generate(reg, profile, *seed)

	if *dump {
		if err := corpus.WriteJSONL(os.Stdout, ds.Test); err != nil {
			log.Fatal(err)
		}
		return
	}
	if *stats {
		all := ds.Stats()
		names := []string{ds.Name, " - training", " - validation", " - testing"}
		fmt.Printf("%-22s %8s %9s %7s %10s %8s\n", "Split", "#tables", "#cols", "#types", "%col w/o", "#multi")
		for i, st := range all {
			fmt.Printf("%-22s %8d %9d %7d %9.2f%% %8d\n", names[i], st.Tables, st.Columns, st.Types, st.PctNoType, st.MultiLabeled)
		}
	}
}
