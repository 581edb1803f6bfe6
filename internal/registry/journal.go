package registry

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/tensor"
)

// journal is the registry's durable copy: two append-only files under a
// directory, one for pages and one for manifests.
//
//	pages.log:     repeat{ sha256 [32]byte | uint32 len | data }
//	manifests.log: repeat{ uint32 len | manifest JSON }
//
// Publish appends every new page before the manifest that references it,
// and fsyncs both logs when it appends the manifest. Replay keeps the
// longest prefix of each log it can trust, and Open cuts each file back to
// that prefix before it appends: a record written after a crash never
// follows a partial one, and neither does one written after a failed
// append (logFile.append). Replay stops at a torn record, at a page whose
// bytes do not match its hash, and at a manifest that does not decode,
// repeats a name@version or does not resolve against the pages replay
// kept. One process writes a journal directory at a time.
type journal struct {
	pages, mans logFile
}

const (
	pagesLogName     = "pages.log"
	manifestsLogName = "manifests.log"
)

// openJournal replays the journal in dir into r and opens both logs for
// append.
func openJournal(dir string, r *Registry) (*journal, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("registry: create journal dir: %w", err)
	}
	pages, err := openLog(filepath.Join(dir, pagesLogName), r.replayPages)
	if err != nil {
		return nil, err
	}
	mans, err := openLog(filepath.Join(dir, manifestsLogName), r.replayManifests)
	if err != nil {
		pages.f.Close()
		return nil, err
	}
	return &journal{pages: pages, mans: mans}, nil
}

// logFile is one journal file open for writing, and the length of its
// valid prefix, where the next record goes.
type logFile struct {
	f   *os.File
	end int64
}

// openLog hands the contents of the log at path to replay, which returns
// the length of the prefix it accepted, then opens the file for writing
// and cuts it to that prefix.
func openLog(path string, replay func([]byte) (int, error)) (logFile, error) {
	raw, err := os.ReadFile(path)
	if err != nil && !os.IsNotExist(err) {
		return logFile{}, fmt.Errorf("registry: read %s: %w", filepath.Base(path), err)
	}
	valid, err := replay(raw)
	if err != nil {
		return logFile{}, err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY, 0o644)
	if err == nil && valid < len(raw) {
		err = f.Truncate(int64(valid))
	}
	if err != nil {
		f.Close()
		return logFile{}, fmt.Errorf("registry: open %s: %w", filepath.Base(path), err)
	}
	return logFile{f: f, end: int64(valid)}, nil
}

// replayPages stores each page record of raw, stopping at the first that is
// torn or whose bytes do not match its hash — a corrupt record and
// everything after it are untrustworthy. It returns the length of the
// prefix it stored.
func (r *Registry) replayPages(raw []byte) (int, error) {
	off := 0
	for len(raw)-off >= sha256.Size+4 {
		start := off + sha256.Size + 4
		n := int(binary.LittleEndian.Uint32(raw[start-4:]))
		if n > len(raw)-start {
			break
		}
		data := raw[start : start+n : start+n]
		hash := [sha256.Size]byte(raw[off : off+sha256.Size])
		if sha256.Sum256(data) != hash {
			break
		}
		r.addPage(hash, data)
		off = start + n
	}
	return off, nil
}

// replayManifests indexes each manifest record of raw, stopping at the
// first that is torn, does not decode to a published name@version, repeats
// one, or does not resolve against the replayed pages. It returns the
// length of the prefix it indexed. A manifest in a checkpoint format newer
// than this build reads fails Open instead: cutting it would destroy a
// version a newer build can serve.
func (r *Registry) replayManifests(raw []byte) (int, error) {
	off := 0
	for len(raw)-off >= 4 {
		start := off + 4
		n := int(binary.LittleEndian.Uint32(raw[off:]))
		if n > len(raw)-start {
			break
		}
		rec := raw[start : start+n : start+n]
		var m Manifest
		if json.Unmarshal(rec, &m) != nil || m.Name == "" || m.Version < 1 {
			break
		}
		if m.Format > tensor.SerializeVersion {
			return 0, fmt.Errorf("registry: %s@%d uses checkpoint format %d, this build reads ≤ %d", m.Name, m.Version, m.Format, tensor.SerializeVersion)
		}
		if _, dup := r.manifests[manifestKey(m.Name, m.Version)]; dup {
			break
		}
		if _, err := r.resolve(&m); err != nil {
			break
		}
		r.addManifest(&m, rec)
		off = start + n
	}
	return off, nil
}

func (j *journal) appendPage(hash [sha256.Size]byte, data []byte) error {
	rec := make([]byte, 0, len(hash)+4+len(data))
	rec = append(rec, hash[:]...)
	rec = binary.LittleEndian.AppendUint32(rec, uint32(len(data)))
	return j.pages.append(append(rec, data...), false)
}

func (j *journal) appendManifest(raw []byte) error {
	// A manifest makes a version visible: flush the pages written before it,
	// then the manifest, so another process opening the journal sees a
	// whole version.
	if err := j.pages.f.Sync(); err != nil {
		return err
	}
	rec := binary.LittleEndian.AppendUint32(nil, uint32(len(raw)))
	return j.mans.append(append(rec, raw...), true)
}

// append writes rec at the end of the log's valid prefix, and fsyncs it
// when sync is set. Only a record that succeeded extends the prefix: the
// next append overwrites one that failed, so a failed record never sits
// before a later one.
func (l *logFile) append(rec []byte, sync bool) error {
	_, err := l.f.WriteAt(rec, l.end)
	if err == nil && sync {
		err = l.f.Sync()
	}
	if err != nil {
		return err
	}
	l.end += int64(len(rec))
	return nil
}

func (j *journal) close() error {
	return errors.Join(j.pages.f.Close(), j.mans.f.Close())
}
