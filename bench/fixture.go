package main

import (
	"bytes"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/adtd"
	"repro/internal/corpus"
	"repro/internal/tokenizer"
)

// The model every workload serves is a checked-in fixture, not a cached
// retrain: a first-run/second-run difference in set-up is exactly what made
// the previous harness's setup_s unrepeatable. The recipe below rebuilds the
// checkpoint bit-identically (`-regen-fixture`); setup verifies both hashes
// and refuses to run on a mismatch.
const (
	fixtureTables   = 300
	fixtureSeed     = 1
	fixtureEpochs   = 16
	fixtureMaxTerms = 4000
	fixtureCkptName = "adtd_wiki300_e16.ckpt"
)

//go:embed fixture/adtd_wiki300_e16.ckpt
var fixtureCkpt []byte

//go:embed fixture/fixture.json
var fixtureJSON []byte

// fixtureRecipe is fixture/fixture.json: how the checkpoint was made and the
// two hashes that pin it.
type fixtureRecipe struct {
	Dataset      string `json:"dataset"`
	Tables       int    `json:"tables"`
	Seed         int64  `json:"seed"`
	Scale        string `json:"scale"`
	TrainConfig  string `json:"train_config"`
	Epochs       int    `json:"epochs"`
	TrainWorkers int    `json:"train_workers"`
	MaxTerms     int    `json:"max_terms"`
	Checkpoint   string `json:"checkpoint"`
	CkptSHA256   string `json:"checkpoint_sha256"`
	VocabSHA256  string `json:"vocabulary_sha256"`
}

// vocabHash digests the tokenizer's id → token table.
func vocabHash(tok *tokenizer.Tokenizer) string {
	h := sha256.New()
	for i := 0; i < tok.VocabSize(); i++ {
		h.Write([]byte(tok.Token(i)))
		h.Write([]byte{0})
	}
	return hex.EncodeToString(h.Sum(nil))
}

// fixtureModel builds the untrained model over the fixture corpus: the
// vocabulary and type space the checkpoint's tensors are shaped for.
func fixtureModel() (*adtd.Model, *corpus.Dataset, error) {
	ds := corpus.Generate(corpus.DefaultRegistry(), corpus.WikiTableProfile(fixtureTables), fixtureSeed)
	tok := adtd.BuildVocabulary(ds.Train, ds.Registry.Names(), fixtureMaxTerms)
	m, err := adtd.New(adtd.ReproScale(), tok, adtd.NewTypeSpace(ds.Registry.Names()), fixtureSeed)
	return m, ds, err
}

// loadFixture returns the trained model, verifying the vocabulary and
// checkpoint hashes against fixture.json.
func loadFixture() (*adtd.Model, error) {
	var rec fixtureRecipe
	if err := json.Unmarshal(fixtureJSON, &rec); err != nil {
		return nil, fmt.Errorf("fixture.json: %w", err)
	}
	sum := sha256.Sum256(fixtureCkpt)
	if got := hex.EncodeToString(sum[:]); got != rec.CkptSHA256 {
		return nil, fmt.Errorf("fixture checkpoint sha256 %s, fixture.json says %s: run -regen-fixture", got, rec.CkptSHA256)
	}
	m, _, err := fixtureModel()
	if err != nil {
		return nil, err
	}
	if got := vocabHash(m.Encoder().Tok); got != rec.VocabSHA256 {
		return nil, fmt.Errorf("vocabulary sha256 %s, fixture.json says %s: corpus or tokenizer changed, run -regen-fixture", got, rec.VocabSHA256)
	}
	if err := m.Load(bytes.NewReader(fixtureCkpt)); err != nil {
		return nil, fmt.Errorf("load fixture checkpoint: %w", err)
	}
	return m, nil
}

// regenFixture retrains the fixture model from its recipe and writes the
// checkpoint and fixture.json into dir.
func regenFixture(dir string) error {
	m, ds, err := fixtureModel()
	if err != nil {
		return err
	}
	cfg := adtd.DefaultTrainConfig()
	cfg.Epochs = fixtureEpochs
	cfg.Seed = fixtureSeed
	cfg.Workers = 1
	cfg.Log = os.Stderr
	if _, err := adtd.FineTune(m, ds.Train, cfg); err != nil {
		return err
	}
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		return err
	}
	sum := sha256.Sum256(buf.Bytes())
	rec := fixtureRecipe{
		Dataset: "corpus.WikiTableProfile", Tables: fixtureTables, Seed: fixtureSeed,
		Scale: "adtd.ReproScale", TrainConfig: "adtd.DefaultTrainConfig", Epochs: fixtureEpochs,
		TrainWorkers: 1, MaxTerms: fixtureMaxTerms, Checkpoint: fixtureCkptName,
		CkptSHA256:  hex.EncodeToString(sum[:]),
		VocabSHA256: vocabHash(m.Encoder().Tok),
	}
	out, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, fixtureCkptName), buf.Bytes(), 0o644); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "fixture.json"), append(out, '\n'), 0o644)
}
