// Package registry implements a versioned, deduplicated model checkpoint
// store.
//
// A published checkpoint is decomposed per tensor: each tensor's raw
// little-endian float64 stream is chunked into fixed-size pages, every page
// is addressed by its sha256, and pages are stored at most once. A manifest
// — small JSON naming the tensor shapes and their page hashes — is what a
// version actually owns. Fine-tuned variants that share most weights with
// their base (say, retrained classifier heads over a frozen encoder)
// therefore pay storage only for the pages that changed, exactly the
// trade explored by deduplicated model serving over relational databases.
//
// The registry holds its pages and manifests in memory. Cross-process
// durability — training publishes in one process, serving loads in another
// — comes from an append-only journal directory, the one durable copy,
// replayed on Open. A page joins the store only once its record is written,
// and a manifest only once its record and every page it names are: a
// version the registry lists is always one it can load.
package registry

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"sort"
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
	manifests map[string][]byte            // name@version → manifest JSON
	versions  map[string][]int             // model name → sorted published versions
	logical   int64                        // sum of pre-dedup checkpoint bytes
	stored    int64                        // sum of page bytes
	jnl       *journal                     // nil without a durable directory
}

// Manifest describes one published checkpoint version.
type Manifest struct {
	Name         string        `json:"name"`
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

// Open creates a registry. If dir is non-empty it is used as a durable
// journal: existing journal records are replayed first (so versions
// published by another process become visible), each log is cut back to
// its last record replay accepted, and subsequent publishes are appended.
func Open(dir string) (*Registry, error) {
	r := &Registry{
		pages:     make(map[[sha256.Size]byte][]byte),
		manifests: make(map[string][]byte),
		versions:  make(map[string][]int),
	}
	if dir != "" {
		jnl, err := openJournal(dir, r)
		if err != nil {
			return nil, err
		}
		r.jnl = jnl
	}
	return r, nil
}

// Close releases the journal file handles, if any.
func (r *Registry) Close() error {
	if r.jnl != nil {
		return r.jnl.close()
	}
	return nil
}

func manifestKey(name string, version int) string {
	return fmt.Sprintf("%s@%d", name, version)
}

// addPage stores a page unless one with its hash is present. Callers hold
// r.mu.
func (r *Registry) addPage(hash [sha256.Size]byte, data []byte) {
	if _, ok := r.pages[hash]; !ok {
		r.pages[hash] = data
		r.stored += int64(len(data))
	}
}

// addManifest indexes a manifest. Callers hold r.mu and have checked that
// its key is new and its pages resolve.
func (r *Registry) addManifest(m *Manifest, raw []byte) {
	r.manifests[manifestKey(m.Name, m.Version)] = raw
	r.versions[m.Name] = append(r.versions[m.Name], m.Version)
	sort.Ints(r.versions[m.Name])
	r.logical += m.LogicalBytes
}

// PublishResult reports what a publish cost.
type PublishResult struct {
	Name         string  `json:"name"`
	Version      int     `json:"version"`
	Pages        int     `json:"pages"`           // pages referenced by the manifest
	NewPages     int     `json:"new_pages"`       // pages actually stored
	LogicalBytes int64   `json:"logical_bytes"`   // checkpoint size before dedup
	StoredBytes  int64   `json:"stored_bytes"`    // bytes newly written to the store
	SharedFrac   float64 `json:"shared_fraction"` // fraction of bytes deduped away
}

// Publish stores the given parameter tensors as the next version of name
// and returns what it cost. Pages already present in the store — typically
// the frozen encoder of a fine-tuned variant — are referenced, not
// rewritten.
func (r *Registry) Publish(name string, ts []*tensor.Tensor) (*PublishResult, error) {
	if name == "" {
		return nil, fmt.Errorf("registry: empty model name")
	}
	r.mu.Lock()
	version := 1
	if vs := r.versions[name]; len(vs) > 0 {
		version = vs[len(vs)-1] + 1
	}
	r.mu.Unlock()

	man := &Manifest{
		Name:     name,
		Version:  version,
		Format:   tensor.SerializeVersion,
		PageSize: DefaultPageSize,
	}
	res := &PublishResult{Name: name, Version: version}
	for _, t := range ts {
		entry := TensorEntry{Rows: t.Rows, Cols: t.Cols}
		raw := encodeFloats(t.Data)
		man.LogicalBytes += int64(len(raw))
		for off := 0; off < len(raw); off += DefaultPageSize {
			page := raw[off:min(off+DefaultPageSize, len(raw))]
			hash := sha256.Sum256(page)
			added, err := r.putPage(hash, page)
			if err != nil {
				return nil, fmt.Errorf("registry: journal page: %w", err)
			}
			res.Pages++
			if added {
				res.NewPages++
				res.StoredBytes += int64(len(page))
				pagesWrittenTotal.Inc()
			} else {
				pagesDedupedTotal.Inc()
			}
			entry.Pages = append(entry.Pages, hex.EncodeToString(hash[:]))
		}
		man.Tensors = append(man.Tensors, entry)
	}
	res.LogicalBytes = man.LogicalBytes
	if man.LogicalBytes > 0 {
		res.SharedFrac = 1 - float64(res.StoredBytes)/float64(man.LogicalBytes)
	}

	manJSON, err := json.Marshal(man)
	if err != nil {
		return nil, fmt.Errorf("registry: marshal manifest: %w", err)
	}
	if err := r.putManifest(man, manJSON); err != nil {
		return nil, err
	}
	publishesTotal.Inc()
	return res, nil
}

// putPage stores a copy of data under hash unless the page is present. The
// page's journal record is written first: a page whose write failed is not
// stored, so the next publish writes it again instead of deduping against a
// page the journal never saw.
func (r *Registry) putPage(hash [sha256.Size]byte, data []byte) (bool, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.pages[hash]; ok {
		return false, nil
	}
	if r.jnl != nil {
		if err := r.jnl.appendPage(hash, data); err != nil {
			return false, err
		}
	}
	r.addPage(hash, bytes.Clone(data))
	return true, nil
}

// putManifest journals and indexes a manifest, refusing a second manifest
// for an existing name@version: versions are immutable.
func (r *Registry) putManifest(m *Manifest, raw []byte) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	key := manifestKey(m.Name, m.Version)
	if _, dup := r.manifests[key]; dup {
		return fmt.Errorf("registry: manifest %q already exists", key)
	}
	if r.jnl != nil {
		if err := r.jnl.appendManifest(raw); err != nil {
			return fmt.Errorf("registry: journal manifest: %w", err)
		}
	}
	r.addManifest(m, raw)
	return nil
}

// GetManifest fetches and decodes the manifest for name@version.
func (r *Registry) GetManifest(name string, version int) (*Manifest, error) {
	key := manifestKey(name, version)
	r.mu.Lock()
	raw, ok := r.manifests[key]
	r.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("registry: manifest %q not found", key)
	}
	var m Manifest
	if err := json.Unmarshal(raw, &m); err != nil {
		return nil, fmt.Errorf("registry: decode manifest %s: %w", key, err)
	}
	return &m, nil
}

// Checkpoint reassembles name@version into a serialized checkpoint stream,
// verifying every page against its content hash. The result is exactly what
// Model.Save would have produced, so Model.Load's atomic validation applies
// unchanged on the way back in.
func (r *Registry) Checkpoint(name string, version int) ([]byte, error) {
	man, err := r.GetManifest(name, version)
	if err != nil {
		return nil, err
	}
	r.mu.Lock()
	pages, err := r.resolve(man)
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

// resolve returns the pages of each of m's tensors, in order. It fails when
// a page hash is malformed or absent, a page does not match its hash, or a
// tensor's pages do not fill its shape exactly — so a manifest that
// resolves is one Checkpoint can load. Callers hold r.mu.
func (r *Registry) resolve(m *Manifest) ([][][]byte, error) {
	where := func(i int) string { return fmt.Sprintf("registry: %s@%d tensor %d", m.Name, m.Version, i) }
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

// Latest returns the newest published version of name.
func (r *Registry) Latest(name string) (int, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	vs := r.versions[name]
	if len(vs) == 0 {
		return 0, false
	}
	return vs[len(vs)-1], true
}

// Versions returns the published versions of name in ascending order.
func (r *Registry) Versions(name string) []int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]int(nil), r.versions[name]...)
}

// Models returns all model names with at least one version, sorted.
func (r *Registry) Models() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]string, 0, len(r.versions))
	for name := range r.versions {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Stats summarizes the registry: version counts plus the dedup economics.
// DedupRatio is logical/stored — 2.0 means the store holds half of what the
// checkpoints sum to; SavedBytes is the absolute saving.
type Stats struct {
	Models       int     `json:"models"`
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
		Models:       len(r.versions),
		Pages:        len(r.pages),
		LogicalBytes: r.logical,
		StoredBytes:  r.stored,
	}
	for _, vs := range r.versions {
		s.Versions += len(vs)
	}
	s.SavedBytes = s.LogicalBytes - s.StoredBytes
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
