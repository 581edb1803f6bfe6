package registry

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/tensor"
)

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

func openDir(tb testing.TB, dir string) *Registry {
	tb.Helper()
	r, err := Open(dir)
	if err != nil {
		tb.Fatal(err)
	}
	return r
}

func mustPublish(tb testing.TB, r *Registry, ts []*tensor.Tensor) *PublishResult {
	tb.Helper()
	res, err := r.Publish(ts)
	if err != nil {
		tb.Fatal(err)
	}
	return res
}

// wantLoads fails unless version reassembles to exactly ts.
func wantLoads(tb testing.TB, r *Registry, version int, ts []*tensor.Tensor) {
	tb.Helper()
	got, err := r.Checkpoint(version)
	if err != nil {
		tb.Fatalf("version %d: %v", version, err)
	}
	if !bytes.Equal(got, ckptOf(tb, ts)) {
		tb.Fatalf("version %d does not reassemble to what was published", version)
	}
}

func readLog(tb testing.TB, dir string) []byte {
	tb.Helper()
	raw, err := os.ReadFile(filepath.Join(dir, logName))
	if err != nil {
		tb.Fatal(err)
	}
	return raw
}

// TestJournalTornTailThenPublish: a crash can leave a partial record at the
// end of the log. Open must cut it off before appending, or the next replay
// reads the partial record's bytes into the first new one and loses every
// version published after the crash.
func TestJournalTornTailThenPublish(t *testing.T) {
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(6))
	w := openDir(t, dir)
	mustPublish(t, w, params(rng))
	w.Close()

	f, err := os.OpenFile(filepath.Join(dir, logName), os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(bytes.Repeat([]byte{0xa5}, 10)); err != nil {
		t.Fatal(err)
	}
	f.Close()

	w = openDir(t, dir)
	v2 := params(rng)
	if res := mustPublish(t, w, v2); res.Version != 2 {
		t.Fatalf("publish after a torn tail: %+v", res)
	}
	w.Close()

	rd := openDir(t, dir)
	defer rd.Close()
	if v, ok := rd.Latest(); !ok || v != 2 {
		t.Fatalf("Latest = %d, %v; want 2", v, ok)
	}
	wantLoads(t, rd, 2, v2)
}

// TestFailedPageWriteIsNotDeduped: a publish whose record write failed must
// install none of its pages, or every later publish dedups against them and
// never journals them, and the version is lost on the next Open.
func TestFailedPageWriteIsNotDeduped(t *testing.T) {
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(7))
	r := openDir(t, dir)
	mustPublish(t, r, params(rng))
	before := r.Stats()

	v2 := params(rng)
	r.log.Close()
	if _, err := r.Publish(v2); err == nil {
		t.Fatal("publish with a closed journal succeeded")
	}
	if st := r.Stats(); st != before {
		t.Fatalf("a failed publish changed the store: %+v, before %+v", st, before)
	}
	f, err := os.OpenFile(filepath.Join(dir, logName), os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	r.log = f
	res := mustPublish(t, r, v2)
	if res.Version != 2 || res.NewPages != res.Pages {
		t.Fatalf("retry after a failed write: %+v; want version 2 with every page new", res)
	}
	r.Close()

	rd := openDir(t, dir)
	defer rd.Close()
	wantLoads(t, rd, 2, v2)
}

// TestCorruptPageHidesItsVersions: replay stops at a record whose page does
// not match its hash, so that version and every later one are hidden —
// Latest never names a version Checkpoint cannot load — and Open cuts the
// log there, so the next publish takes the hidden version's number.
func TestCorruptPageHidesItsVersions(t *testing.T) {
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(8))
	w := openDir(t, dir)
	v1 := params(rng)
	mustPublish(t, w, v1)
	v1End := w.end
	mustPublish(t, w, params(rng))
	mustPublish(t, w, params(rng))
	w.Close()

	raw := readLog(t, dir)
	manLen := int64(binary.LittleEndian.Uint32(raw[v1End+8:]))
	raw[v1End+8+4+manLen+32+4] ^= 0xff // first byte of version 2's first page
	if err := os.WriteFile(filepath.Join(dir, logName), raw, 0o644); err != nil {
		t.Fatal(err)
	}

	rd := openDir(t, dir)
	defer rd.Close()
	if vs := rd.Versions(); !slices.Equal(vs, []int{1}) {
		t.Fatalf("Versions = %v, want [1]", vs)
	}
	wantLoads(t, rd, 1, v1)
	if got := int64(len(readLog(t, dir))); got != v1End {
		t.Fatalf("log is %d bytes after Open, want it cut to version 1's %d", got, v1End)
	}
	v2 := params(rng)
	if res := mustPublish(t, rd, v2); res.Version != 2 {
		t.Fatalf("publish after the cut: %+v, want version 2", res)
	}
	wantLoads(t, rd, 2, v2)
}

// TestDuplicateManifestRefused: versions are immutable, so replay refuses a
// record that claims a version already replayed, hides everything after it
// and Open cuts the log there.
func TestDuplicateManifestRefused(t *testing.T) {
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(9))
	r := openDir(t, dir)
	v1 := params(rng)
	mustPublish(t, r, v1)
	before := readLog(t, dir)
	m := *r.manifests[0]
	m.LogicalBytes++
	r.Close()

	dup, err := encodeRecord(&m, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, logName), slices.Concat(before, dup), 0o644); err != nil {
		t.Fatal(err)
	}
	rd := openDir(t, dir)
	defer rd.Close()
	if vs := rd.Versions(); !slices.Equal(vs, []int{1}) {
		t.Fatalf("Versions = %v, want [1]", vs)
	}
	if st := rd.Stats(); st.LogicalBytes != m.LogicalBytes-1 {
		t.Fatalf("the second record for version 1 reached the store: %+v", st)
	}
	if !bytes.Equal(readLog(t, dir), before) {
		t.Fatal("Open did not cut the duplicate record")
	}
	wantLoads(t, rd, 1, v1)
}

// TestPublishAppendsOneRecord: a registry directory holds one file, and
// each publish appends exactly one record to it.
func TestPublishAppendsOneRecord(t *testing.T) {
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(11))
	r := openDir(t, dir)
	defer r.Close()
	base := params(rng)
	for v := 1; v <= 3; v++ {
		mustPublish(t, r, base)
		raw := readLog(t, dir)
		records := 0
		for off := 0; off < len(raw); off += 8 + int(binary.LittleEndian.Uint64(raw[off:])) {
			records++
		}
		if records != v {
			t.Fatalf("after %d publishes the log holds %d records", v, records)
		}
	}
	if entries, err := os.ReadDir(dir); err != nil || len(entries) != 1 || entries[0].Name() != logName {
		t.Fatalf("registry directory holds %v (%v), want only %s", entries, err, logName)
	}
}

// TestOpenRefusesTwoLogLayout: a directory journaled by the earlier
// two-log layout is refused by name, not opened as an empty registry.
func TestOpenRefusesTwoLogLayout(t *testing.T) {
	for _, name := range twoLogNames {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, name), []byte{1, 2, 3}, 0o644); err != nil {
			t.Fatal(err)
		}
		r, err := Open(dir)
		if err == nil {
			r.Close()
			t.Fatalf("Open of a directory holding %s succeeded", name)
		}
		if !strings.Contains(err.Error(), name) {
			t.Fatalf("Open of a directory holding %s: %v, want the file named", name, err)
		}
		if _, err := os.Stat(filepath.Join(dir, logName)); !os.IsNotExist(err) {
			t.Fatalf("a refused Open created %s: %v", logName, err)
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
			res, err := r.Publish(sets[g])
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
	r.Close()

	rd := openDir(t, dir)
	defer rd.Close()
	if vs := rd.Versions(); len(vs) != n {
		t.Fatalf("reopened registry lists %v, want %d versions", vs, n)
	}
	for g, v := range got {
		wantLoads(t, rd, v, sets[g])
	}
}

// TestConcurrentPublishAndCheckpoint gives the race detector publishes,
// checkpoints and stats on one registry at once.
func TestConcurrentPublishAndCheckpoint(t *testing.T) {
	r := openDir(t, t.TempDir())
	defer r.Close()
	base := params(rand.New(rand.NewSource(10)))
	mustPublish(t, r, base)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + g)))
			for range 3 {
				if _, err := r.Publish(params(rng)); err != nil {
					t.Error(err)
					return
				}
				if _, err := r.Checkpoint(1); err != nil {
					t.Error(err)
				}
				r.Stats()
			}
		}(g)
	}
	wg.Wait()
	if st := r.Stats(); st.Versions != 13 {
		t.Fatalf("stats after concurrent publishes: %+v", st)
	}
	wantLoads(t, r, 1, base)
}

// seedJournals returns journal files for the fuzzer to start from: a clean
// two-version log, a torn tail followed by version 2's record (replay keeps
// only version 1), and the clean log with a byte of version 2's one new
// page flipped.
func seedJournals(tb testing.TB) [][]byte {
	dir := tb.TempDir()
	r := openDir(tb, dir)
	v1 := []*tensor.Tensor{tensor.FromRows([][]float64{{1, 2}, {3, 4}}), tensor.FromRows([][]float64{{5, 6, 7}})}
	mustPublish(tb, r, v1)
	v1End := r.end
	mustPublish(tb, r, []*tensor.Tensor{tensor.FromRows([][]float64{{8, 9}, {10, 11}}), v1[1]})
	r.Close()
	clean := readLog(tb, dir)
	torn := slices.Concat(clean[:v1End], bytes.Repeat([]byte{0xa5}, 10), clean[v1End:])
	flipped := slices.Clone(clean)
	flipped[len(flipped)-1] ^= 0x01
	return [][]byte{clean, torn, flipped}
}

// FuzzJournalReplay feeds arbitrary bytes as the journal to the replay Open
// runs on the file's contents (without the file, so that each run and the
// fuzzer's minimisation stay cheap). Replay must not panic, every version
// it lists must load, and replaying the prefix it kept — the log as Open
// cuts it — must keep all of it and list the same versions.
func FuzzJournalReplay(f *testing.F) {
	for _, seed := range seedJournals(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		r, n, err := replay(raw)
		if err != nil {
			return
		}
		for _, v := range r.Versions() {
			if _, err := r.Checkpoint(v); err != nil {
				t.Fatalf("version %d is listed but does not load: %v", v, err)
			}
		}
		cut, n2, err := replay(raw[:n])
		if err != nil || n2 != n {
			t.Fatalf("replaying the kept prefix (%d bytes) kept %d, err %v", n, n2, err)
		}
		if !slices.Equal(cut.Versions(), r.Versions()) {
			t.Fatalf("after the cut: versions %v, before %v", cut.Versions(), r.Versions())
		}
	})
}
