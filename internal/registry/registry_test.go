package registry

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"io"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
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

// ckptOf is the checkpoint stream WriteTensors makes of ts: what
// Checkpoint must return for a version published from ts.
func ckptOf(tb testing.TB, ts []*tensor.Tensor) []byte {
	tb.Helper()
	var buf bytes.Buffer
	if err := tensor.WriteTensors(&buf, ts); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// writeOf is a Publish writer of ts's weights stream: the registry stores
// whatever bytes its writer writes.
func writeOf(ts []*tensor.Tensor) func(io.Writer) error {
	return func(w io.Writer) error { return tensor.WriteTensors(w, ts) }
}

func openDir(tb testing.TB, dir string) *Registry {
	tb.Helper()
	r, err := Open(dir)
	if err != nil {
		tb.Fatal(err)
	}
	return r
}

func mustPublish(tb testing.TB, r *Registry, ts []*tensor.Tensor) int {
	tb.Helper()
	res, err := r.Publish(writeOf(ts))
	if err != nil {
		tb.Fatal(err)
	}
	return res.Version
}

// wantLoads fails unless version loads as exactly ts.
func wantLoads(tb testing.TB, r *Registry, version int, ts []*tensor.Tensor) {
	tb.Helper()
	got, err := r.Checkpoint(version)
	if err != nil {
		tb.Fatalf("version %d: %v", version, err)
	}
	if !bytes.Equal(got, ckptOf(tb, ts)) {
		tb.Fatalf("version %d does not load as what was published", version)
	}
}

func wantVersions(tb testing.TB, r *Registry, want ...int) {
	tb.Helper()
	vs, err := r.Versions()
	if err != nil || !slices.Equal(vs, want) {
		tb.Fatalf("Versions = %v, %v; want %v", vs, err, want)
	}
	if latest, err := r.Latest(); err != nil || latest != want[len(want)-1] {
		tb.Fatalf("Latest = %d, %v; want %d", latest, err, want[len(want)-1])
	}
}

func TestPublishCheckpointRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	ts := params(rng)
	r := openDir(t, t.TempDir())
	if v := mustPublish(t, r, ts); v != 1 {
		t.Fatalf("first publish took version %d", v)
	}
	// The stream must be exactly what WriteTensors produces.
	wantLoads(t, r, 1, ts)
	ckpt, err := r.Checkpoint(1)
	if err != nil {
		t.Fatal(err)
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
	for _, v := range []int{-1, 0, 2, 7} {
		if _, err := r.Checkpoint(v); !errors.Is(err, fs.ErrNotExist) {
			t.Fatalf("Checkpoint(%d) = %v, want a not-found error", v, err)
		}
	}
}

// TestPublishedVersionIsWorldReadable: a version file is mode 0644, not the
// 0600 of the temporary file it was written as, so a server running as
// another user can read what a trainer published.
func TestPublishedVersionIsWorldReadable(t *testing.T) {
	dir := t.TempDir()
	r := openDir(t, dir)
	v := mustPublish(t, r, params(rand.New(rand.NewSource(2))))
	fi, err := os.Stat(filepath.Join(dir, strconv.Itoa(v)+".ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	if mode := fi.Mode().Perm(); mode != 0o644 {
		t.Fatalf("version %d has mode %v, want -rw-r--r--", v, mode)
	}
}

// TestVersionIndex: versions are the canonical <n>.ckpt names in the
// directory, whatever else it holds.
func TestVersionIndex(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	dir := t.TempDir()
	r := openDir(t, dir)
	if vs, err := r.Versions(); err != nil || len(vs) != 0 {
		t.Fatalf("Versions on an empty registry = %v, %v", vs, err)
	}
	if v, err := r.Latest(); err != nil || v != 0 {
		t.Fatalf("Latest on an empty registry = %d, %v", v, err)
	}
	for _, name := range []string{"01.ckpt", "0.ckpt", "-2.ckpt", "x.ckpt", "3.ckpt.tmp", ".publish-1", "notes.txt"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("x"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for range 3 {
		mustPublish(t, r, params(rng))
	}
	wantVersions(t, r, 1, 2, 3)
	st, err := r.Stats()
	if err != nil || st.Versions != 3 {
		t.Fatalf("Stats = %+v, %v", st, err)
	}
	var size int64
	for v := 1; v <= 3; v++ {
		fi, err := os.Stat(filepath.Join(dir, strconv.Itoa(v)+".ckpt"))
		if err != nil {
			t.Fatal(err)
		}
		size += fi.Size()
	}
	if st.StoredBytes != size {
		t.Fatalf("Stats.StoredBytes = %d, want the version files' %d", st.StoredBytes, size)
	}
}

// TestSecondRegistrySeesLaterPublish: training and serving are separate
// processes on one directory, so a registry opened before another one
// publishes must list, pick as latest and load the new version.
func TestSecondRegistrySeesLaterPublish(t *testing.T) {
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(4))
	server := openDir(t, dir)
	v1 := params(rng)
	mustPublish(t, server, v1)

	trainer := openDir(t, dir)
	v2 := params(rng)
	if v := mustPublish(t, trainer, v2); v != 2 {
		t.Fatalf("the second registry's publish took version %d, want 2", v)
	}
	wantVersions(t, server, 1, 2)
	wantLoads(t, server, 2, v2)
	wantLoads(t, server, 1, v1)
}

// TestTwoRegistriesPublishDistinctVersions: two registries on one
// directory publish, first alternately and then eight at once, and every
// publish claims its own version, which loads as what its publisher sent
// through either registry and through one opened afterwards.
func TestTwoRegistriesPublishDistinctVersions(t *testing.T) {
	dir := t.TempDir()
	rs := []*Registry{openDir(t, dir), openDir(t, dir)}
	published := map[int][]*tensor.Tensor{}
	for i := range 4 {
		ts := params(rand.New(rand.NewSource(int64(300 + i))))
		v := mustPublish(t, rs[i%2], ts)
		if v != i+1 {
			t.Fatalf("alternate publish %d took version %d", i, v)
		}
		published[v] = ts
	}
	const n = 8
	sets := make([][]*tensor.Tensor, n)
	got := make([]int, n)
	for g := range sets {
		sets[g] = params(rand.New(rand.NewSource(int64(400 + g))))
	}
	var start, wg sync.WaitGroup
	start.Add(1)
	for g := range sets {
		wg.Add(1)
		go func() {
			defer wg.Done()
			start.Wait()
			res, err := rs[g%2].Publish(writeOf(sets[g]))
			if err != nil {
				t.Errorf("publish %d: %v", g, err)
				return
			}
			got[g] = res.Version
		}()
	}
	start.Done()
	wg.Wait()
	if t.Failed() {
		return
	}
	for g, v := range got {
		if published[v] != nil {
			t.Fatalf("concurrent publishes took versions %v; version %d twice", got, v)
		}
		published[v] = sets[g]
	}
	want := []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}
	for _, r := range append(rs, openDir(t, dir)) {
		wantVersions(t, r, want...)
		for v, ts := range published {
			wantLoads(t, r, v, ts)
		}
	}
}

// TestConcurrentPublishesClaimDistinctVersions: publishes racing on one
// registry all succeed, take versions 1 through n between them, and each
// version loads, after a reopen, as exactly what its publisher sent.
func TestConcurrentPublishesClaimDistinctVersions(t *testing.T) {
	const n = 8
	dir := t.TempDir()
	r := openDir(t, dir)
	sets := make([][]*tensor.Tensor, n)
	for g := range sets {
		sets[g] = params(rand.New(rand.NewSource(int64(200 + g))))
	}
	got := make([]int, n)
	var start, wg sync.WaitGroup
	start.Add(1)
	for g := range sets {
		wg.Add(1)
		go func() {
			defer wg.Done()
			start.Wait()
			res, err := r.Publish(writeOf(sets[g]))
			if err != nil {
				t.Errorf("publish %d: %v", g, err)
				return
			}
			got[g] = res.Version
		}()
	}
	start.Done()
	wg.Wait()
	if t.Failed() {
		return
	}
	vs := slices.Clone(got)
	slices.Sort(vs)
	if !slices.Equal(vs, []int{1, 2, 3, 4, 5, 6, 7, 8}) {
		t.Fatalf("concurrent publishes took versions %v, want 1 through %d", got, n)
	}
	rd := openDir(t, dir)
	for g, v := range got {
		wantLoads(t, rd, v, sets[g])
	}
}

// TestConcurrentPublishAndCheckpoint gives the race detector publishes,
// checkpoints and stats on one registry at once.
func TestConcurrentPublishAndCheckpoint(t *testing.T) {
	r := openDir(t, t.TempDir())
	base := params(rand.New(rand.NewSource(10)))
	mustPublish(t, r, base)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + g)))
			for range 3 {
				if _, err := r.Publish(writeOf(params(rng))); err != nil {
					t.Error(err)
					return
				}
				if _, err := r.Checkpoint(1); err != nil {
					t.Error(err)
				}
				if _, err := r.Stats(); err != nil {
					t.Error(err)
				}
			}
		}(g)
	}
	wg.Wait()
	if st, err := r.Stats(); err != nil || st.Versions != 13 {
		t.Fatalf("stats after concurrent publishes: %+v, %v", st, err)
	}
	wantLoads(t, r, 1, base)
}

// TestCorruptVersionFailsOnlyItself: a flipped byte in one version file
// fails that version's load with a verification error; the other versions
// still load, the next publish takes the next number, and the damaged file
// is left as it is.
func TestCorruptVersionFailsOnlyItself(t *testing.T) {
	damageFailsOnlyItself(t, func(b []byte) []byte { b[len(b)/2] ^= 0x01; return b })
}

// TestTruncatedVersionFailsOnlyItself: a version file cut short behaves as
// a corrupt one: only its own load fails.
func TestTruncatedVersionFailsOnlyItself(t *testing.T) {
	damageFailsOnlyItself(t, func(b []byte) []byte { return b[:len(b)-11] })
}

// damageFailsOnlyItself publishes three versions, rewrites version 2 with
// damage applied to its bytes, and checks that only version 2 fails to load.
func damageFailsOnlyItself(t *testing.T, damage func([]byte) []byte) {
	t.Helper()
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(8))
	r := openDir(t, dir)
	sets := [][]*tensor.Tensor{params(rng), params(rng), params(rng)}
	for _, ts := range sets {
		mustPublish(t, r, ts)
	}
	path := filepath.Join(dir, "2.ckpt")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	damaged := damage(raw)
	if err := os.WriteFile(path, damaged, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Checkpoint(2); err == nil || !strings.Contains(err.Error(), "failed verification") {
		t.Fatalf("Checkpoint(2) of a damaged file = %v, want a verification error", err)
	}
	wantVersions(t, r, 1, 2, 3)
	wantLoads(t, r, 1, sets[0])
	wantLoads(t, r, 3, sets[2])
	v4 := params(rng)
	if v := mustPublish(t, r, v4); v != 4 {
		t.Fatalf("publish after the damage took version %d, want 4", v)
	}
	wantLoads(t, r, 4, v4)
	if raw, err := os.ReadFile(path); err != nil || !bytes.Equal(raw, damaged) {
		t.Fatalf("2.ckpt changed after the damage (%v)", err)
	}
}

// TestTornPublishIsInvisible: a publish that crashed before its link leaves
// a temporary file, never a version; the next publish takes the next
// number and leaves the stray file alone.
func TestTornPublishIsInvisible(t *testing.T) {
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(6))
	r := openDir(t, dir)
	mustPublish(t, r, params(rng))
	torn := filepath.Join(dir, ".publish-12345")
	if err := os.WriteFile(torn, ckptOf(t, params(rng))[:100], 0o644); err != nil {
		t.Fatal(err)
	}
	wantVersions(t, r, 1)
	v2 := params(rng)
	if v := mustPublish(t, openDir(t, dir), v2); v != 2 {
		t.Fatalf("publish after a torn one took version %d, want 2", v)
	}
	wantVersions(t, r, 1, 2)
	wantLoads(t, r, 2, v2)
	if _, err := os.Stat(torn); err != nil {
		t.Fatalf("the stray temporary file: %v", err)
	}
}

// TestFailedWriterPublishesNothing: a writer that fails partway claims no
// version and leaves no file in the directory.
func TestFailedWriterPublishesNothing(t *testing.T) {
	dir := t.TempDir()
	r := openDir(t, dir)
	mustPublish(t, r, params(rand.New(rand.NewSource(12))))
	if _, err := r.Publish(func(w io.Writer) error {
		w.Write([]byte("partial"))
		return errors.New("writer failed")
	}); err == nil || !strings.Contains(err.Error(), "writer failed") {
		t.Fatalf("Publish with a failing writer: %v", err)
	}
	wantVersions(t, r, 1)
	if entries, err := os.ReadDir(dir); err != nil || len(entries) != 1 {
		t.Fatalf("directory after a failed publish: %v, %v; want only 1.ckpt", entries, err)
	}
}

// TestPublishWritesOneFile: each publish adds exactly one file to the
// directory, <version>.ckpt, holding the checkpoint stream and its
// SHA-256, and leaves no temporary file behind.
func TestPublishWritesOneFile(t *testing.T) {
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(11))
	r := openDir(t, dir)
	var want []string
	for v := 1; v <= 3; v++ {
		ts := params(rng)
		mustPublish(t, r, ts)
		want = append(want, strconv.Itoa(v)+".ckpt")
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		var names []string
		for _, e := range entries {
			names = append(names, e.Name())
		}
		if !slices.Equal(names, want) {
			t.Fatalf("after %d publishes the directory holds %v, want %v", v, names, want)
		}
		raw, err := os.ReadFile(filepath.Join(dir, want[v-1]))
		if err != nil {
			t.Fatal(err)
		}
		ckpt := ckptOf(t, ts)
		sum := sha256.Sum256(ckpt)
		if !bytes.Equal(raw, append(ckpt, sum[:]...)) {
			t.Fatalf("version %d's file is not its checkpoint stream and SHA-256", v)
		}
	}
}

// wantRefused fails unless Open refuses a directory holding name, naming
// it, and leaves the file byte for byte as it was.
func wantRefused(t *testing.T, name string) {
	t.Helper()
	dir := t.TempDir()
	content := []byte{1, 2, 3}
	if err := os.WriteFile(filepath.Join(dir, name), content, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir); err == nil || !strings.Contains(err.Error(), name) {
		t.Fatalf("Open of a directory holding %s: %v, want an error naming the file", name, err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil || len(entries) != 1 {
		t.Fatalf("a refused Open changed the directory: %v, %v", entries, err)
	}
	if raw, err := os.ReadFile(filepath.Join(dir, name)); err != nil || !bytes.Equal(raw, content) {
		t.Fatalf("a refused Open changed %s: %v", name, err)
	}
}

// TestOpenRefusesTwoLogLayout: a directory journaled by the two-log layout
// (pages.log, manifests.log) is refused by name, not opened as an empty
// registry.
func TestOpenRefusesTwoLogLayout(t *testing.T) {
	for _, name := range []string{"pages.log", "manifests.log"} {
		wantRefused(t, name)
	}
}

// TestOpenRefusesJournal: a directory journaled as one log of whole
// versions (versions.log) is refused by name.
func TestOpenRefusesJournal(t *testing.T) {
	wantRefused(t, "versions.log")
}

// FuzzVersionFile feeds arbitrary bytes to the version-file reader. It
// must not panic, and what it accepts must be a stream followed by that
// stream's SHA-256.
func FuzzVersionFile(f *testing.F) {
	dir := f.TempDir()
	r := openDir(f, dir)
	mustPublish(f, r, []*tensor.Tensor{tensor.FromRows([][]float64{{1, 2}, {3, 4}}), tensor.FromRows([][]float64{{5, 6, 7}})})
	clean, err := os.ReadFile(filepath.Join(dir, "1.ckpt"))
	if err != nil {
		f.Fatal(err)
	}
	flipped := slices.Clone(clean)
	flipped[len(flipped)/2] ^= 0x01
	for _, seed := range [][]byte{clean, flipped, clean[:len(clean)-1], nil} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		ckpt, err := verify(raw)
		if err != nil {
			return
		}
		sum := sha256.Sum256(ckpt)
		if len(raw) != len(ckpt)+sha256.Size || !bytes.Equal(raw[:len(ckpt)], ckpt) || !bytes.Equal(raw[len(ckpt):], sum[:]) {
			t.Fatalf("verify accepted %d bytes as a %d-byte stream that they do not end in the hash of", len(raw), len(ckpt))
		}
	})
}
