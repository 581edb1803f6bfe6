package registry

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/tensor"
)

func randTensor(rng *rand.Rand, rows, cols int) *tensor.Tensor {
	t := tensor.New(rows, cols)
	for i := range t.Data {
		t.Data[i] = rng.NormFloat64()
	}
	return t
}

// params builds a small stand-in parameter set: a few "encoder" tensors plus
// one "classifier head" tensor at the end.
func params(rng *rand.Rand) []*tensor.Tensor {
	return []*tensor.Tensor{
		randTensor(rng, 64, 32),
		randTensor(rng, 32, 32),
		randTensor(rng, 32, 16),
		randTensor(rng, 16, 8),
	}
}

func TestPublishCheckpointRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	ts := params(rng)
	r := openDir(t, t.TempDir())
	defer r.Close()

	res, err := r.Publish(ts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Version != 1 || res.NewPages != res.Pages || res.NewPages == 0 {
		t.Fatalf("first publish: %+v", res)
	}

	ckpt, err := r.Checkpoint(1)
	if err != nil {
		t.Fatal(err)
	}
	// The reassembled stream must be exactly what WriteTensors produces.
	var want bytes.Buffer
	if err := tensor.WriteTensors(&want, ts); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ckpt, want.Bytes()) {
		t.Fatal("checkpoint differs from direct serialization")
	}
	// And it must load back bit-identically through the validated reader.
	restored := []*tensor.Tensor{tensor.New(64, 32), tensor.New(32, 32), tensor.New(32, 16), tensor.New(16, 8)}
	if err := tensor.ReadTensors(bytes.NewReader(ckpt), restored); err != nil {
		t.Fatal(err)
	}
	for i := range ts {
		for j := range ts[i].Data {
			if ts[i].Data[j] != restored[i].Data[j] {
				t.Fatalf("tensor %d elem %d drifted through the registry", i, j)
			}
		}
	}

	for _, v := range []int{0, 2, 7} {
		if _, err := r.Checkpoint(v); err == nil {
			t.Fatalf("want error for unknown version %d", v)
		}
	}
}

// TestDedupAcrossVariants is the acceptance pin: two versions that share all
// but one tensor must store measurably less than two standalone checkpoints.
func TestDedupAcrossVariants(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	base := params(rng)
	variant := make([]*tensor.Tensor, len(base))
	for i, p := range base {
		c := tensor.New(p.Rows, p.Cols)
		copy(c.Data, p.Data)
		variant[i] = c
	}
	// Fine-tuning touches only the classifier head (the last tensor).
	for i := range variant[len(variant)-1].Data {
		variant[len(variant)-1].Data[i] += 0.01
	}

	r := openDir(t, t.TempDir())
	defer r.Close()
	res1, err := r.Publish(base)
	if err != nil {
		t.Fatal(err)
	}
	res2, err := r.Publish(variant)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Version != 2 {
		t.Fatalf("version = %d, want 2", res2.Version)
	}
	if res2.NewPages >= res2.Pages {
		t.Fatalf("variant stored all %d pages, dedup did nothing", res2.Pages)
	}
	if res2.SharedFrac <= 0.5 {
		t.Fatalf("variant shared fraction = %v, want most of the checkpoint", res2.SharedFrac)
	}

	st := r.Stats()
	standalone := res1.LogicalBytes + res2.LogicalBytes
	if st.StoredBytes >= standalone {
		t.Fatalf("stored %d bytes ≥ two standalone checkpoints (%d): no dedup", st.StoredBytes, standalone)
	}
	if st.SavedBytes <= 0 || st.DedupRatio <= 1 {
		t.Fatalf("stats report no saving: %+v", st)
	}
	if st.Versions != 2 {
		t.Fatalf("stats counts: %+v", st)
	}

	// Both versions must still reassemble correctly despite sharing pages.
	for v, want := range map[int][]*tensor.Tensor{1: base, 2: variant} {
		ckpt, err := r.Checkpoint(v)
		if err != nil {
			t.Fatal(err)
		}
		var direct bytes.Buffer
		if err := tensor.WriteTensors(&direct, want); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(ckpt, direct.Bytes()) {
			t.Fatalf("version %d corrupted by page sharing", v)
		}
	}
}

func TestVersionIndex(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	r := openDir(t, t.TempDir())
	defer r.Close()
	if _, ok := r.Latest(); ok {
		t.Fatal("Latest on empty registry")
	}
	for i := 0; i < 3; i++ {
		if _, err := r.Publish(params(rng)); err != nil {
			t.Fatal(err)
		}
	}
	if v, ok := r.Latest(); !ok || v != 3 {
		t.Fatalf("Latest = %d, %v", v, ok)
	}
	if vs := r.Versions(); !slices.Equal(vs, []int{1, 2, 3}) {
		t.Fatalf("Versions = %v", vs)
	}
}

// TestJournalReplayAcrossProcesses simulates train-then-serve: one registry
// publishes into a journal dir, a second registry (fresh server, as a new
// process would have) opens the same dir and sees every version and page.
func TestJournalReplayAcrossProcesses(t *testing.T) {
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(4))
	base := params(rng)

	w, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Publish(base); err != nil {
		t.Fatal(err)
	}
	wantCkpt, err := w.Checkpoint(1)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	rd, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer rd.Close()
	if v, ok := rd.Latest(); !ok || v != 1 {
		t.Fatalf("replayed Latest = %d, %v", v, ok)
	}
	got, err := rd.Checkpoint(1)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, wantCkpt) {
		t.Fatal("replayed checkpoint differs")
	}
	// Publishing after replay continues the version sequence and dedups
	// against replayed pages.
	res, err := rd.Publish(base)
	if err != nil {
		t.Fatal(err)
	}
	if res.Version != 2 || res.NewPages != 0 {
		t.Fatalf("post-replay publish: %+v", res)
	}
}

// TestJournalTruncatedTail pins crash tolerance: cutting the log mid-record
// must lose at most the unfinished version, never fail to open.
func TestJournalTruncatedTail(t *testing.T) {
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(5))
	w, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Publish(params(rng)); err != nil {
		t.Fatal(err)
	}
	v1End := w.end
	if _, err := w.Publish(params(rng)); err != nil {
		t.Fatal(err)
	}
	w.Close()

	path := filepath.Join(dir, logName)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, raw[:len(raw)-11], 0o644); err != nil {
		t.Fatal(err)
	}

	rd, err := Open(dir)
	if err != nil {
		t.Fatalf("truncated journal must still open: %v", err)
	}
	defer rd.Close()
	// Version 1 survives whole (its record precedes the cut); version 2's
	// record is torn, so it is gone and Open cut the file before it.
	if _, err := rd.Checkpoint(1); err != nil {
		t.Fatalf("version 1 lost to an unrelated truncation: %v", err)
	}
	if vs := rd.Versions(); !slices.Equal(vs, []int{1}) {
		t.Fatalf("Versions = %v, want [1]", vs)
	}
	if st, err := os.Stat(path); err != nil || st.Size() != v1End {
		t.Fatalf("Open left the log at %v bytes (%v), want %d: the torn record was not cut", st.Size(), err, v1End)
	}
}
