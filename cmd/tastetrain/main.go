// Command tastetrain trains a single model (Taste ADTD, TURL, or Doduo) on
// a generated corpus and writes it as a model file: a header carrying the
// model's kind, configuration, vocabulary and type space, then its
// weights. It is the standalone counterpart of the training the experiment
// suite performs lazily, and the one trainer of the models tasted serves:
// tasted -checkpoint reads the file alone, whatever -tables and -seed it
// was trained with. The file is written under a temporary name and renamed
// over -o only once complete, so a run that fails leaves -o as it was.
//
// Usage:
//
//	tastetrain -model taste -dataset wikitable -tables 600 -epochs 16 -o taste.ckpt
//	tastetrain -model taste -publish /var/taste/registry   # also publish to a model registry
//
// With -publish the model file is additionally stored as the next version
// in a model registry, one file per version. tasted -registry serves
// straight from the same directory, and a tasted already serving it lists
// the new version at once (swap to it with POST /v1/models/swap).
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"repro/internal/adtd"
	"repro/internal/baselines"
	"repro/internal/corpus"
	"repro/internal/registry"
)

func main() {
	var (
		modelKind = flag.String("model", "taste", "model to train: taste, turl, doduo")
		dataset   = flag.String("dataset", "wikitable", "corpus profile: wikitable, gittables")
		tables    = flag.Int("tables", 300, "corpus size in tables")
		seed      = flag.Int64("seed", 1, "corpus and init seed")
		epochs    = flag.Int("epochs", 12, "fine-tuning epochs")
		pretrain  = flag.Int("pretrain", 0, "MLM pre-training steps before fine-tuning (taste only)")
		hist      = flag.Bool("histogram", false, "train the with-histogram variant (taste only)")
		workers   = flag.Int("train-workers", 1, "data-parallel gradient workers (results are bit-reproducible per (seed, workers))")
		out       = flag.String("o", "model.ckpt", "model file output path")
		publish   = flag.String("publish", "", "also publish the model file to the model registry rooted at this directory (taste only)")
	)
	flag.Parse()
	switch *modelKind {
	case "taste", "turl", "doduo":
	default:
		log.Fatalf("tastetrain: unknown model %q", *modelKind)
	}
	if *publish != "" && *modelKind != "taste" {
		log.Fatalf("tastetrain: -publish supports -model taste only (got %q)", *modelKind)
	}

	var profile corpus.Profile
	switch *dataset {
	case "wikitable":
		profile = corpus.WikiTableProfile(*tables)
	case "gittables":
		profile = corpus.GitTablesProfile(*tables)
	default:
		log.Fatalf("tastetrain: unknown dataset %q", *dataset)
	}
	ds := corpus.Generate(corpus.DefaultRegistry(), profile, *seed)
	tok := adtd.BuildVocabulary(ds.Train, ds.Registry.Names(), 4000)
	types := adtd.NewTypeSpace(ds.Registry.Names())

	start := time.Now()
	switch *modelKind {
	case "taste":
		m, err := adtd.New(adtd.ReproScale(), tok, types, *seed)
		if err != nil {
			log.Fatal(err)
		}
		if *pretrain > 0 {
			pcfg := adtd.DefaultPretrainConfig()
			pcfg.Steps = *pretrain
			pcfg.Workers = *workers
			pcfg.Log = os.Stderr
			if _, err := adtd.Pretrain(m, ds.Train, pcfg); err != nil {
				log.Fatal(err)
			}
		}
		cfg := adtd.TunedTrainConfig(*epochs, *hist)
		cfg.Workers = *workers
		cfg.Log = os.Stderr
		if _, err := adtd.FineTune(m, ds.Train, cfg); err != nil {
			log.Fatal(err)
		}
		if err := adtd.WriteFile(*out, m.WriteModel); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("trained taste model (%d params) in %v → %s\n", m.NumParams(), time.Since(start).Round(time.Second), *out)
		if *publish != "" {
			reg, err := registry.Open(*publish)
			if err != nil {
				log.Fatalf("open registry: %v", err)
			}
			res, err := reg.Publish(m.WriteModel)
			if err != nil {
				log.Fatalf("publish: %v", err)
			}
			fmt.Printf("published version %d → %s\n", res.Version, *publish)
		}
	case "turl", "doduo":
		v, cfg := baselines.TURL, baselines.TURLScale()
		if *modelKind == "doduo" {
			v, cfg = baselines.Doduo, baselines.DoduoScale()
		}
		m := baselines.New(v, cfg, tok, types, *seed)
		tcfg := baselines.TunedTrainConfig(v, *epochs)
		tcfg.Workers = *workers
		tcfg.Log = os.Stderr
		if _, err := baselines.FineTune(m, ds.Train, tcfg); err != nil {
			log.Fatal(err)
		}
		if err := adtd.WriteFile(*out, m.WriteModel); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("trained %s model (%d params) in %v → %s\n", v, m.NumParams(), time.Since(start).Round(time.Second), *out)
	}
}
