package registry

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/tensor"
)

// The journal is the registry's durable copy: one append-only file in its
// directory with one record per published version, in version order.
//
//	versions.log: repeat{ uint64 n | record (n bytes) }
//	record:       uint32 m | manifest JSON (m bytes) | repeat{ sha256 [32]byte | uint32 len | page }
//
// A record holds its version's manifest and the pages the store did not
// already hold; Publish writes it with one write and one fsync. Replay
// keeps the longest prefix of whole records whose pages match their hashes
// and whose manifest decodes to the next version and resolves against the
// pages kept so far, and Open cuts the file to that prefix before it
// appends: a record written after a crash never follows a partial one, and
// neither does one written after a failed append (appendRecord). One
// process writes a registry directory at a time.
const logName = "versions.log"

// twoLogNames are the files of the earlier layout, which kept pages and
// manifests in two logs.
var twoLogNames = []string{"pages.log", "manifests.log"}

// Open opens the registry in dir, creating it if needed: it replays the
// journal (so versions published by another process become visible), cuts
// the file to the prefix replay kept, and appends later publishes there. A
// directory that holds the earlier two-log layout is refused.
func Open(dir string) (*Registry, error) {
	for _, name := range twoLogNames {
		if _, err := os.Stat(filepath.Join(dir, name)); err == nil {
			return nil, fmt.Errorf("registry: %s holds %s, a two-log journal this build does not read; publish into a new directory", dir, name)
		}
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("registry: create journal dir: %w", err)
	}
	path := filepath.Join(dir, logName)
	raw, err := os.ReadFile(path)
	if err != nil && !os.IsNotExist(err) {
		return nil, fmt.Errorf("registry: read %s: %w", logName, err)
	}
	r, valid, err := replay(raw)
	if err != nil {
		return nil, err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY, 0o644)
	if err == nil && valid < len(raw) {
		err = f.Truncate(int64(valid))
	}
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("registry: open %s: %w", logName, err)
	}
	r.log, r.end = f, int64(valid)
	return r, nil
}

// Close closes the journal.
func (r *Registry) Close() error { return r.log.Close() }

// replay builds a registry from a journal's bytes and returns the length
// of the prefix it kept. A manifest in a checkpoint format newer than this
// build reads fails it instead: cutting that record would destroy a version
// a newer build can serve.
func replay(raw []byte) (*Registry, int, error) {
	r := &Registry{pages: make(map[[sha256.Size]byte][]byte)}
	off := 0
	for len(raw)-off >= 8 {
		n := binary.LittleEndian.Uint64(raw[off:])
		if n > uint64(len(raw)-off-8) {
			break
		}
		end := off + 8 + int(n)
		m, fresh, ok := decodeRecord(raw[off+8 : end])
		if !ok {
			break
		}
		if m.Format > tensor.SerializeVersion {
			return nil, 0, fmt.Errorf("registry: version %d uses checkpoint format %d, this build reads ≤ %d", m.Version, m.Format, tensor.SerializeVersion)
		}
		if m.Version != len(r.manifests)+1 {
			break
		}
		extra := make(map[[sha256.Size]byte][]byte, len(fresh))
		for _, p := range fresh {
			extra[p.hash] = p.data
		}
		if _, err := r.resolve(m, extra); err != nil {
			break
		}
		r.install(m, fresh)
		off = end
	}
	return r, off, nil
}

// encodeRecord lays out one version's journal record, length prefix
// included.
func encodeRecord(m *Manifest, fresh []page) ([]byte, error) {
	man, err := json.Marshal(m)
	if err != nil {
		return nil, fmt.Errorf("registry: marshal manifest: %w", err)
	}
	size := 4 + len(man)
	for _, p := range fresh {
		size += sha256.Size + 4 + len(p.data)
	}
	rec := make([]byte, 0, 8+size)
	rec = binary.LittleEndian.AppendUint64(rec, uint64(size))
	rec = binary.LittleEndian.AppendUint32(rec, uint32(len(man)))
	rec = append(rec, man...)
	for _, p := range fresh {
		rec = append(rec, p.hash[:]...)
		rec = binary.LittleEndian.AppendUint32(rec, uint32(len(p.data)))
		rec = append(rec, p.data...)
	}
	return rec, nil
}

// decodeRecord splits a record into its manifest and pages. It fails on a
// length that runs past the record, a manifest that does not decode, and a
// page that does not match its hash.
func decodeRecord(rec []byte) (*Manifest, []page, bool) {
	if len(rec) < 4 || int(binary.LittleEndian.Uint32(rec)) > len(rec)-4 {
		return nil, nil, false
	}
	off := 4 + int(binary.LittleEndian.Uint32(rec))
	var m Manifest
	if json.Unmarshal(rec[4:off], &m) != nil {
		return nil, nil, false
	}
	var pages []page
	for off < len(rec) {
		start := off + sha256.Size + 4
		if start > len(rec) {
			return nil, nil, false
		}
		n := int(binary.LittleEndian.Uint32(rec[start-4:]))
		if n > len(rec)-start {
			return nil, nil, false
		}
		p := page{hash: [sha256.Size]byte(rec[off : off+sha256.Size]), data: rec[start : start+n : start+n]}
		if sha256.Sum256(p.data) != p.hash {
			return nil, nil, false
		}
		pages = append(pages, p)
		off = start + n
	}
	return &m, pages, true
}

// appendRecord writes rec at the end of the journal's valid prefix with one
// write and one fsync. Only a record that succeeded extends the prefix: the
// next append overwrites one that failed, so a failed record never sits
// before a later one. Callers hold r.mu.
func (r *Registry) appendRecord(rec []byte) error {
	if _, err := r.log.WriteAt(rec, r.end); err != nil {
		return err
	}
	if err := r.log.Sync(); err != nil {
		return err
	}
	r.end += int64(len(rec))
	return nil
}
