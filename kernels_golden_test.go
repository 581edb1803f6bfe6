package taste

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"repro/internal/tensor"
)

// TestKernelsReported logs which kernels the goldens ran on.
func TestKernelsReported(t *testing.T) {
	t.Logf("kernels: %s", tensor.Kernels())
}

// answerBitsSHA256 is the SHA-256 TestAnswerBitsPinned recomputes.
const answerBitsSHA256 = "da9db50cf099de5b624175362a0d3857cd0ebf100ab56af616c60ee376a11e28"

// TestAnswerBitsPinned pins the answer bits themselves: the same fixed-seed
// untrained model over the same small tenant must give the same bits of every
// probability (Phase 1's for the columns it decides, Phase 2's for the
// scanned ones) and the same scanned set on every host, with or without FMA
// (CI runs it again under GODEBUG=cpu.fma=off, which moves math.Exp but not
// tensor.Exp). The goldens' 1e-6 tolerance would hide exactly the last-place
// differences this is about, and their in-process training keeps the
// library's exp. Initialisation draws the same values everywhere: Xavier is
// rng.Float64() times a math.Sqrt (correctly rounded on every host), and the
// embeddings' rng.NormFloat64() calls math.Exp only in its ziggurat's
// rejection test, whose result it rounds to float32 before comparing.
//
// After an intended change to the answer, recompute the constant with
//
//	go test -run TestAnswerBitsPinned -v .
func TestAnswerBitsPinned(t *testing.T) {
	old := tensor.DefaultParallelism()
	tensor.SetParallelism(1)
	defer tensor.SetParallelism(old)

	ds := WikiTableDataset(40, 7)
	model, err := NewModel(ds, ReproScale(), 7)
	if err != nil {
		t.Fatal(err)
	}
	det, err := NewDetector(model, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	server := NewServer(NoLatency)
	server.LoadTables("pin", ds.Test)
	rep, err := det.DetectDatabase(context.Background(), server, "pin", SequentialMode)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Errors) != 0 {
		t.Fatalf("errors: %v", rep.Errors)
	}
	h := sha256.New()
	var w [8]byte
	for _, tr := range rep.Tables {
		for _, c := range tr.Columns {
			h.Write([]byte(tr.Table + "." + c.Column + "\x00"))
			binary.LittleEndian.PutUint64(w[:], uint64(c.Phase)) // 2: scanned
			h.Write(w[:])
			for _, p := range c.Probs {
				binary.LittleEndian.PutUint64(w[:], math.Float64bits(p))
				h.Write(w[:])
			}
		}
	}
	got := hex.EncodeToString(h.Sum(nil))
	t.Logf("kernels %s: %d tables, %d of %d columns scanned, answer bits %s",
		tensor.Kernels(), len(rep.Tables), rep.ScannedColumns, rep.TotalColumns, got)
	if got != answerBitsSHA256 {
		t.Fatalf("answer bits %s, pinned %s", got, answerBitsSHA256)
	}
}
