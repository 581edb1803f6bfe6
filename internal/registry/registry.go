// Package registry stores one model's published versions: a directory
// holding one immutable file per version, <version>.ckpt, a model file
// (adtd.WriteModel: its header, then its weights) followed by its SHA-256. Publish writes the
// file under a temporary name, syncs it, then claims the next version by
// hard-linking it to that version's name; a name another publish (in any
// process) took first moves it on to the next number. Readers list the
// directory on every call, so every process sees every version any
// process has published, and a listed version's bytes were synced before
// it got its name. Nothing is cached, and no version file is ever
// truncated, rewritten or deleted.
package registry

import (
	"bufio"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"

	"repro/internal/obs"
)

// Runtime metric handles (DESIGN.md §9/§15). The gauges are synced on
// Stats(), which every metrics scrape path goes through.
var (
	publishesTotal         = obs.Default.Counter("taste_registry_publishes_total")
	checkpointsServedTotal = obs.Default.Counter("taste_registry_checkpoints_served_total")
	storedBytesGauge       = obs.Default.Gauge("taste_registry_stored_bytes")
	versionsGauge          = obs.Default.Gauge("taste_registry_versions")
)

// suffix ends every version file's name: "3.ckpt" holds version 3.
const suffix = ".ckpt"

// earlierLayouts are the files of the journal layouts before this one:
// one log of whole versions, and before it a page log and a manifest log.
var earlierLayouts = []string{"versions.log", "pages.log", "manifests.log"}

// Registry is one directory of version files. All methods are safe for
// concurrent use, from any number of processes.
type Registry struct{ dir string }

// PublishResult reports the version a publish claimed.
type PublishResult struct {
	Version int `json:"version"`
}

// Stats is the registry's version count and the bytes of its version files.
type Stats struct {
	Versions    int   `json:"versions"`
	StoredBytes int64 `json:"stored_bytes"`
}

// Open opens the registry in dir, creating the directory if needed. It
// refuses a directory holding an earlier layout, naming the file.
func Open(dir string) (*Registry, error) {
	for _, name := range earlierLayouts {
		if _, err := os.Stat(filepath.Join(dir, name)); err == nil {
			return nil, fmt.Errorf("registry: %s holds %s, a journal this build does not read; publish into a new directory", dir, name)
		}
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("registry: create dir: %w", err)
	}
	return &Registry{dir: dir}, nil
}

func (r *Registry) path(version int) string {
	return filepath.Join(r.dir, strconv.Itoa(version)+suffix)
}

// Publish stores the model file write writes (a WriteModel) as the next
// version.
func (r *Registry) Publish(write func(io.Writer) error) (*PublishResult, error) {
	tmp, err := os.CreateTemp(r.dir, ".publish-*")
	if err != nil {
		return nil, fmt.Errorf("registry: publish: %w", err)
	}
	// Once linked, the version keeps the file; the temporary name goes
	// either way.
	defer os.Remove(tmp.Name())
	h := sha256.New()
	w := bufio.NewWriter(io.MultiWriter(tmp, h))
	if err = write(w); err == nil {
		err = w.Flush() // h now holds the file's hash
	}
	if err == nil {
		_, err = tmp.Write(h.Sum(nil))
	}
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, fmt.Errorf("registry: publish: %w", err)
	}
	version, err := r.Latest()
	if err != nil {
		return nil, err
	}
	for err = fs.ErrExist; errors.Is(err, fs.ErrExist); {
		version++
		err = os.Link(tmp.Name(), r.path(version))
	}
	if err == nil { // make the link durable
		var d *os.File
		if d, err = os.Open(r.dir); err == nil {
			err = d.Sync()
			d.Close()
		}
	}
	if err != nil {
		return nil, fmt.Errorf("registry: publish version %d: %w", version, err)
	}
	publishesTotal.Inc()
	return &PublishResult{Version: version}, nil
}

// Checkpoint returns a version's model file, what Publish's writer wrote,
// once its hash has verified; adtd.ReadModel then reads it. An unpublished
// version's error wraps fs.ErrNotExist.
func (r *Registry) Checkpoint(version int) ([]byte, error) {
	raw, err := os.ReadFile(r.path(version))
	if version < 1 || errors.Is(err, fs.ErrNotExist) {
		return nil, fmt.Errorf("registry: version %d not found: %w", version, fs.ErrNotExist)
	}
	if err == nil {
		raw, err = verify(raw)
	}
	if err != nil {
		return nil, fmt.Errorf("registry: version %d: %w", version, err)
	}
	checkpointsServedTotal.Inc()
	return raw, nil
}

// verify splits a version file into its model file and hash and returns
// the model file when the hash matches it.
func verify(raw []byte) ([]byte, error) {
	n := len(raw) - sha256.Size
	if n < 0 || sha256.Sum256(raw[:n]) != [sha256.Size]byte(raw[n:]) {
		return nil, errors.New("failed verification: the file does not end in its model file's SHA-256")
	}
	return raw[:n], nil
}

// Versions returns the published versions in ascending order, read from
// the directory. Only a canonical decimal name is a version: not
// "01.ckpt", nor the temporary file of a publish in flight.
func (r *Registry) Versions() ([]int, error) {
	entries, err := os.ReadDir(r.dir)
	if err != nil {
		return nil, fmt.Errorf("registry: list versions: %w", err)
	}
	var vs []int
	for _, e := range entries {
		num, ok := strings.CutSuffix(e.Name(), suffix)
		if v, err := strconv.Atoi(num); ok && err == nil && v > 0 && strconv.Itoa(v) == num {
			vs = append(vs, v)
		}
	}
	slices.Sort(vs)
	return vs, nil
}

// Latest returns the newest published version, or 0 when there is none.
func (r *Registry) Latest() (int, error) {
	vs, err := r.Versions()
	if err != nil || len(vs) == 0 {
		return 0, err
	}
	return vs[len(vs)-1], nil
}

// Stats reports the version count and the bytes of the version files.
func (r *Registry) Stats() (Stats, error) {
	vs, err := r.Versions()
	if err != nil {
		return Stats{}, err
	}
	s := Stats{Versions: len(vs)}
	for _, v := range vs {
		fi, err := os.Stat(r.path(v))
		if err != nil {
			return Stats{}, fmt.Errorf("registry: version %d: %w", v, err)
		}
		s.StoredBytes += fi.Size()
	}
	storedBytesGauge.Set(s.StoredBytes)
	versionsGauge.Set(int64(s.Versions))
	return s, nil
}
