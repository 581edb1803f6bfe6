// Package registry implements a versioned, deduplicated model checkpoint
// store: one directory holds one model's version history.
//
// A published checkpoint is decomposed per tensor: each tensor's raw
// little-endian float64 stream is chunked into fixed-size pages, every page
// is addressed by its sha256, and pages are stored at most once. A manifest
// — the tensor shapes and their page hashes — is what a version actually
// owns, so a version pays storage only for the pages no earlier version
// holds, the trade explored by deduplicated model serving over relational
// databases. Variants trained on one corpus (tastetrain -tables 24 -seed 1)
// shared 14.7 % of their pages with earlier versions at -epochs 2, 12.7 %
// at -pretrain 20, 27.4 % with -histogram and 0.2 % at -train-workers 2;
// an identical retrain, or republishing the serving weights, shares all of
// them.
//
// The registry holds its pages and manifests in memory. Cross-process
// durability — training publishes in one process, serving loads in another
// — comes from one append-only log, the one durable copy, replayed on Open
// (journal.go). A version is one record in it, holding its manifest and the
// pages the store did not already hold, and joins the store only once that
// record is written and synced: a version the registry lists is always one
// it can load.
package registry

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"os"
	"sync"

	"repro/internal/tensor"
)

// DefaultPageSize is the page granularity for checkpoint chunking. 64 KiB
// (8192 float64s) balances dedup resolution against per-page overhead.
const DefaultPageSize = 64 * 1024

// Registry is a versioned checkpoint store. All methods are safe for
// concurrent use.
type Registry struct {
	mu        sync.Mutex
	pages     map[[sha256.Size]byte][]byte // content hash → page
	manifests []*Manifest                  // version v at index v-1
	logical   int64                        // sum of pre-dedup checkpoint bytes
	stored    int64                        // sum of page bytes
	log       *os.File                     // the journal, open for writing
	end       int64                        // length of its valid prefix, where the next record goes
}

// Manifest describes one published checkpoint version.
type Manifest struct {
	Version      int           `json:"version"`
	Format       int           `json:"format"` // checkpoint format (tensor.SerializeVersion)
	PageSize     int           `json:"page_size"`
	Tensors      []TensorEntry `json:"tensors"`
	LogicalBytes int64         `json:"logical_bytes"`
}

// TensorEntry is one tensor's shape plus its ordered page hashes.
type TensorEntry struct {
	Rows  int      `json:"rows"`
	Cols  int      `json:"cols"`
	Pages []string `json:"pages"`
}

// PublishResult reports what a publish cost.
type PublishResult struct {
	Version      int     `json:"version"`
	Pages        int     `json:"pages"`           // pages referenced by the manifest
	NewPages     int     `json:"new_pages"`       // pages actually stored
	LogicalBytes int64   `json:"logical_bytes"`   // checkpoint size before dedup
	StoredBytes  int64   `json:"stored_bytes"`    // bytes newly written to the store
	SharedFrac   float64 `json:"shared_fraction"` // fraction of bytes deduped away
}

// page is one chunk of a tensor's float64 stream and its content hash.
type page struct {
	hash [sha256.Size]byte
	data []byte
}

// Publish stores the given parameter tensors as the next version and
// returns what it cost. Pages already present in the store are referenced,
// not rewritten. The pages are cut and hashed before the lock; under it the
// version is picked, its record written and synced, and the version
// installed, so two publishes never claim one version and a publish whose
// write failed installs nothing.
func (r *Registry) Publish(ts []*tensor.Tensor) (*PublishResult, error) {
	man := &Manifest{Format: tensor.SerializeVersion, PageSize: DefaultPageSize}
	var pages []page
	for _, t := range ts {
		entry := TensorEntry{Rows: t.Rows, Cols: t.Cols}
		for off := 0; off < len(t.Data); off += DefaultPageSize / 8 {
			data := encodeFloats(t.Data[off:min(off+DefaultPageSize/8, len(t.Data))])
			p := page{hash: sha256.Sum256(data), data: data}
			pages = append(pages, p)
			entry.Pages = append(entry.Pages, hex.EncodeToString(p.hash[:]))
		}
		man.Tensors = append(man.Tensors, entry)
		man.LogicalBytes += 8 * int64(len(t.Data))
	}

	r.mu.Lock()
	defer r.mu.Unlock()
	man.Version = len(r.manifests) + 1
	res := &PublishResult{Version: man.Version, Pages: len(pages), LogicalBytes: man.LogicalBytes}
	var fresh []page
	seen := make(map[[sha256.Size]byte]bool)
	for _, p := range pages {
		if _, ok := r.pages[p.hash]; !ok && !seen[p.hash] {
			seen[p.hash] = true
			fresh = append(fresh, p)
			res.StoredBytes += int64(len(p.data))
		}
	}
	rec, err := encodeRecord(man, fresh)
	if err != nil {
		return nil, err
	}
	if err := r.appendRecord(rec); err != nil {
		return nil, fmt.Errorf("registry: journal version %d: %w", man.Version, err)
	}
	r.install(man, fresh)

	res.NewPages = len(fresh)
	if man.LogicalBytes > 0 {
		res.SharedFrac = 1 - float64(res.StoredBytes)/float64(man.LogicalBytes)
	}
	publishesTotal.Inc()
	pagesWrittenTotal.Add(int64(res.NewPages))
	pagesDedupedTotal.Add(int64(res.Pages - res.NewPages))
	return res, nil
}

// install adds a version's new pages and its manifest, the next version.
// Callers hold r.mu.
func (r *Registry) install(m *Manifest, fresh []page) {
	for _, p := range fresh {
		if _, ok := r.pages[p.hash]; !ok {
			r.pages[p.hash] = p.data
			r.stored += int64(len(p.data))
		}
	}
	r.manifests = append(r.manifests, m)
	r.logical += m.LogicalBytes
}

// Checkpoint reassembles a version into a serialized checkpoint stream,
// verifying every page against its content hash. The result is exactly what
// Model.Save would have produced, so Model.Load's atomic validation applies
// unchanged on the way back in.
func (r *Registry) Checkpoint(version int) ([]byte, error) {
	r.mu.Lock()
	if version < 1 || version > len(r.manifests) {
		r.mu.Unlock()
		return nil, fmt.Errorf("registry: version %d not found", version)
	}
	man := r.manifests[version-1]
	pages, err := r.resolve(man, nil)
	r.mu.Unlock()
	if err != nil {
		return nil, err
	}
	ts := make([]*tensor.Tensor, len(man.Tensors))
	for i, entry := range man.Tensors {
		t := tensor.New(entry.Rows, entry.Cols)
		off := 0
		for _, page := range pages[i] {
			decodeFloats(page, t.Data[off:])
			off += len(page) / 8
		}
		ts[i] = t
	}
	var out bytes.Buffer
	if err := tensor.WriteTensors(&out, ts); err != nil {
		return nil, err
	}
	checkpointsServedTotal.Inc()
	return out.Bytes(), nil
}

// resolve returns the pages of each of m's tensors, in order, looking each
// up in the store and then in extra. It fails when a page hash is malformed
// or absent, a page does not match its hash, or a tensor's pages do not
// fill its shape exactly — so a manifest that resolves is one Checkpoint
// can load. Callers hold r.mu.
func (r *Registry) resolve(m *Manifest, extra map[[sha256.Size]byte][]byte) ([][][]byte, error) {
	where := func(i int) string { return fmt.Sprintf("registry: version %d tensor %d", m.Version, i) }
	out := make([][][]byte, len(m.Tensors))
	for i, entry := range m.Tensors {
		n := 0
		for _, hs := range entry.Pages {
			hb, err := hex.DecodeString(hs)
			if err != nil || len(hb) != sha256.Size {
				return nil, fmt.Errorf("%s: bad page hash %q", where(i), hs)
			}
			hash := [sha256.Size]byte(hb)
			page, ok := r.pages[hash]
			if !ok {
				page, ok = extra[hash]
			}
			if !ok {
				return nil, fmt.Errorf("%s: page %s not found", where(i), hs)
			}
			if sha256.Sum256(page) != hash {
				return nil, fmt.Errorf("%s: page %s failed verification", where(i), hs)
			}
			if len(page)%8 != 0 {
				return nil, fmt.Errorf("%s: page %s splits a float64", where(i), hs)
			}
			out[i] = append(out[i], page)
			n += len(page) / 8
		}
		// n must be rows×cols, checked by division so no product overflows.
		if entry.Rows <= 0 || entry.Cols <= 0 || n%entry.Cols != 0 || n/entry.Cols != entry.Rows {
			return nil, fmt.Errorf("%s: have %d float64s, shape %dx%d", where(i), n, entry.Rows, entry.Cols)
		}
	}
	return out, nil
}

// Latest returns the newest published version.
func (r *Registry) Latest() (int, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.manifests), len(r.manifests) > 0
}

// Versions returns the published versions in ascending order: 1 through
// Latest.
func (r *Registry) Versions() []int {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]int, len(r.manifests))
	for i := range out {
		out[i] = i + 1
	}
	return out
}

// Stats summarizes the registry: the version count plus the dedup
// economics. DedupRatio is logical/stored — 2.0 means the store holds half
// of what the checkpoints sum to; SavedBytes is the absolute saving.
type Stats struct {
	Versions     int     `json:"versions"`
	Pages        int     `json:"pages"`
	LogicalBytes int64   `json:"logical_bytes"`
	StoredBytes  int64   `json:"stored_bytes"`
	SavedBytes   int64   `json:"saved_bytes"`
	DedupRatio   float64 `json:"dedup_ratio"`
}

// Stats reports the registry's current storage economics.
func (r *Registry) Stats() Stats {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := Stats{
		Versions:     len(r.manifests),
		Pages:        len(r.pages),
		LogicalBytes: r.logical,
		StoredBytes:  r.stored,
		SavedBytes:   r.logical - r.stored,
	}
	if s.StoredBytes > 0 {
		s.DedupRatio = float64(s.LogicalBytes) / float64(s.StoredBytes)
	}
	logicalBytesGauge.Set(s.LogicalBytes)
	storedBytesGauge.Set(s.StoredBytes)
	versionsGauge.Set(int64(s.Versions))
	return s
}

// encodeFloats serializes values as little-endian float64 bytes — the same
// on-the-wire layout WriteTensors uses for tensor data, so a page boundary
// in the registry corresponds byte-for-byte to the checkpoint stream.
func encodeFloats(vals []float64) []byte {
	out := make([]byte, 8*len(vals))
	for i, v := range vals {
		binary.LittleEndian.PutUint64(out[8*i:], math.Float64bits(v))
	}
	return out
}

// decodeFloats fills dst from the little-endian float64s in raw.
func decodeFloats(raw []byte, dst []float64) {
	for i := range len(raw) / 8 {
		dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
	}
}
