package registry

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
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

func mustPublish(tb testing.TB, r *Registry, name string, ts []*tensor.Tensor) *PublishResult {
	tb.Helper()
	res, err := r.Publish(name, ts)
	if err != nil {
		tb.Fatal(err)
	}
	return res
}

// wantLoads fails unless name@version reassembles to exactly ts.
func wantLoads(tb testing.TB, r *Registry, name string, version int, ts []*tensor.Tensor) {
	tb.Helper()
	got, err := r.Checkpoint(name, version)
	if err != nil {
		tb.Fatalf("%s@%d: %v", name, version, err)
	}
	if !bytes.Equal(got, ckptOf(tb, ts)) {
		tb.Fatalf("%s@%d does not reassemble to what was published", name, version)
	}
}

// TestJournalTornTailThenPublish: a crash can leave a partial record at the
// end of a log. Open must cut it off before appending, or the next replay
// reads the partial record's bytes into the first new one and loses every
// version published after the crash.
func TestJournalTornTailThenPublish(t *testing.T) {
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(6))
	w := openDir(t, dir)
	mustPublish(t, w, "taste", params(rng))
	w.Close()

	f, err := os.OpenFile(filepath.Join(dir, pagesLogName), os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(bytes.Repeat([]byte{0xa5}, 10)); err != nil {
		t.Fatal(err)
	}
	f.Close()

	w = openDir(t, dir)
	v2 := params(rng)
	if res := mustPublish(t, w, "taste", v2); res.Version != 2 {
		t.Fatalf("publish after a torn tail: %+v", res)
	}
	w.Close()

	rd := openDir(t, dir)
	defer rd.Close()
	if v, ok := rd.Latest("taste"); !ok || v != 2 {
		t.Fatalf("Latest = %d, %v; want 2", v, ok)
	}
	wantLoads(t, rd, "taste", 2, v2)
}

// TestFailedPageWriteIsNotDeduped: a page whose journal write failed must
// not stay in the store, or every later publish dedups against it and never
// journals it, and the version is lost on the next Open.
func TestFailedPageWriteIsNotDeduped(t *testing.T) {
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(7))
	r := openDir(t, dir)
	mustPublish(t, r, "taste", params(rng))

	v2 := params(rng)
	r.jnl.pages.f.Close()
	if _, err := r.Publish("taste", v2); err == nil {
		t.Fatal("publish with a closed pages log succeeded")
	}
	f, err := os.OpenFile(filepath.Join(dir, pagesLogName), os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	r.jnl.pages.f = f
	res := mustPublish(t, r, "taste", v2)
	if res.Version != 2 || res.NewPages != res.Pages {
		t.Fatalf("retry after a failed page write: %+v; want version 2 with every page new", res)
	}
	r.Close()

	rd := openDir(t, dir)
	defer rd.Close()
	wantLoads(t, rd, "taste", 2, v2)
}

// TestCorruptPageHidesItsVersions: replay stops at a corrupt page record, so
// a manifest naming a page after it must not be listed — Latest never names
// a version Checkpoint cannot load.
func TestCorruptPageHidesItsVersions(t *testing.T) {
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(8))
	w := openDir(t, dir)
	v1 := params(rng)
	mustPublish(t, w, "taste", v1)
	path := filepath.Join(dir, pagesLogName)
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	mustPublish(t, w, "taste", params(rng))
	w.Close()

	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[st.Size()+sha256.Size+4] ^= 0xff // first data byte of v2's first page
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	rd := openDir(t, dir)
	defer rd.Close()
	if vs := rd.Versions("taste"); !slices.Equal(vs, []int{1}) {
		t.Fatalf("Versions = %v, want [1]", vs)
	}
	wantLoads(t, rd, "taste", 1, v1)
}

// TestDuplicateManifestRefused: versions are immutable, so a second
// manifest for an existing name@version is refused and changes nothing.
func TestDuplicateManifestRefused(t *testing.T) {
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(9))
	r := openDir(t, dir)
	defer r.Close()
	v1 := params(rng)
	mustPublish(t, r, "taste", v1)
	before, err := os.ReadFile(filepath.Join(dir, manifestsLogName))
	if err != nil {
		t.Fatal(err)
	}

	m, err := r.GetManifest("taste", 1)
	if err != nil {
		t.Fatal(err)
	}
	m.LogicalBytes++
	raw, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.putManifest(m, raw); err == nil || !strings.Contains(err.Error(), "already exists") {
		t.Fatalf("second manifest for taste@1: err = %v, want already exists", err)
	}
	after, err := os.ReadFile(filepath.Join(dir, manifestsLogName))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Fatal("a refused manifest reached the journal")
	}
	if vs := r.Versions("taste"); !slices.Equal(vs, []int{1}) {
		t.Fatalf("Versions = %v, want [1]", vs)
	}
	wantLoads(t, r, "taste", 1, v1)
}

// TestConcurrentPublishAndCheckpoint gives the race detector publishes,
// checkpoints and stats on one registry at once.
func TestConcurrentPublishAndCheckpoint(t *testing.T) {
	r := openDir(t, t.TempDir())
	defer r.Close()
	base := params(rand.New(rand.NewSource(10)))
	mustPublish(t, r, "base", base)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			name := fmt.Sprintf("m%d", g)
			rng := rand.New(rand.NewSource(int64(100 + g)))
			for v := 1; v <= 3; v++ {
				ts := params(rng)
				if res, err := r.Publish(name, ts); err != nil || res.Version != v {
					t.Errorf("%s publish %d: %+v, %v", name, v, res, err)
					return
				}
				if _, err := r.Checkpoint("base", 1); err != nil {
					t.Error(err)
				}
				r.Stats()
			}
		}(g)
	}
	wg.Wait()
	if st := r.Stats(); st.Models != 5 || st.Versions != 13 {
		t.Fatalf("stats after concurrent publishes: %+v", st)
	}
	wantLoads(t, r, "base", 1, base)
}

// regressionJournals returns (pages.log, manifests.log) pairs: a clean
// two-version journal, and the shapes two old bugs left on disk — v2's page
// records appended after a torn tail, and v2's manifest journaled without
// its one new page.
func regressionJournals(tb testing.TB) [][2][]byte {
	dir := tb.TempDir()
	r := openDir(tb, dir)
	read := func(name string) []byte {
		raw, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			tb.Fatal(err)
		}
		return raw
	}
	v1 := []*tensor.Tensor{tensor.FromRows([][]float64{{1, 2}, {3, 4}}), tensor.FromRows([][]float64{{5, 6, 7}})}
	mustPublish(tb, r, "taste", v1)
	p1 := read(pagesLogName)
	mustPublish(tb, r, "taste", []*tensor.Tensor{tensor.FromRows([][]float64{{8, 9}, {10, 11}}), v1[1]})
	pages, mans := read(pagesLogName), read(manifestsLogName)
	r.Close()
	torn := slices.Concat(p1, bytes.Repeat([]byte{0xa5}, 10), pages[len(p1):])
	unjournaled := pages[:len(p1)]
	return [][2][]byte{{pages, mans}, {torn, mans}, {unjournaled, mans}}
}

// FuzzJournalReplay feeds arbitrary bytes as both logs to the replay Open
// runs on the files' contents (without the files, so that each run and the
// fuzzer's minimisation stay cheap). Replay must not panic, every version
// it lists must load, and replaying the prefixes it kept — the logs as
// Open cuts them — must keep all of them and list the same versions.
func FuzzJournalReplay(f *testing.F) {
	for _, seed := range regressionJournals(f) {
		f.Add(seed[0], seed[1])
	}
	replay := func(pages, mans []byte) (r *Registry, pn, mn int, err error) {
		r, _ = Open("")
		pn, _ = r.replayPages(pages)
		mn, err = r.replayManifests(mans)
		return r, pn, mn, err
	}
	f.Fuzz(func(t *testing.T, pages, mans []byte) {
		r, pn, mn, err := replay(pages, mans)
		if err != nil {
			return
		}
		for _, name := range r.Models() {
			for _, v := range r.Versions(name) {
				if _, err := r.Checkpoint(name, v); err != nil {
					t.Fatalf("%s@%d is listed but does not load: %v", name, v, err)
				}
			}
		}
		cut, pn2, mn2, err := replay(pages[:pn], mans[:mn])
		if err != nil || pn2 != pn || mn2 != mn {
			t.Fatalf("replaying the kept prefixes (%d, %d) kept (%d, %d), err %v", pn, mn, pn2, mn2, err)
		}
		if !slices.Equal(cut.Models(), r.Models()) {
			t.Fatalf("after the cut: models %v, before %v", cut.Models(), r.Models())
		}
		for _, name := range r.Models() {
			if !slices.Equal(cut.Versions(name), r.Versions(name)) {
				t.Fatalf("%s after the cut: %v, before %v", name, cut.Versions(name), r.Versions(name))
			}
		}
	})
}
