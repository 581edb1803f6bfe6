package adtd

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/tokenizer"
)

// roundTrip writes m as a model file and reads it back: a model of its own
// (own parameters, own generation) holding m's description and bits.
func roundTrip(t testing.TB, m *Model) *Model {
	t.Helper()
	var buf bytes.Buffer
	if err := m.WriteModel(&buf); err != nil {
		t.Fatal(err)
	}
	r, err := ReadModel(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// speckModel is the smallest model Validate accepts, over a three-term
// vocabulary and one type: a model file of a few hundred bytes.
func speckModel(t testing.TB) *Model {
	t.Helper()
	cfg := Config{Layers: 1, Heads: 1, MaxSeq: 4, Intermediate: 1, Hidden: 1,
		TableTokens: 1, ColTokens: 2, CellTokens: 1, MetaClassifierHidden: 1, ContentClassifierHidden: 1}
	m, err := New(cfg, tokenizer.New([]string{"a", "b", "##c"}), NewTypeSpace([]string{"t"}), 1)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// fileWith frames header bytes as a model file with no weights.
func fileWith(h []byte) []byte {
	pre := binary.LittleEndian.AppendUint32([]byte(fileMagic), fileVersion)
	return append(binary.LittleEndian.AppendUint32(pre, uint32(len(h))), h...)
}

// TestModelFileRoundTrip: a model read back from its file has the written
// model's configuration, vocabulary in id order, type space in head order
// and every parameter bit, and writes the same file again.
func TestModelFileRoundTrip(t *testing.T) {
	m, _ := tinyModel(t)
	var buf bytes.Buffer
	if err := m.WriteModel(&buf); err != nil {
		t.Fatal(err)
	}
	file := slices.Clone(buf.Bytes())
	r, err := ReadModel(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if r.Cfg != m.Cfg {
		t.Fatalf("config %+v, want %+v", r.Cfg, m.Cfg)
	}
	if r.Tok.VocabSize() != m.Tok.VocabSize() {
		t.Fatalf("vocabulary of %d terms, want %d", r.Tok.VocabSize(), m.Tok.VocabSize())
	}
	for i := 0; i < m.Tok.VocabSize(); i++ {
		if r.Tok.Token(i) != m.Tok.Token(i) {
			t.Fatalf("term %d = %q, want %q", i, r.Tok.Token(i), m.Tok.Token(i))
		}
	}
	if !slices.Equal(r.Types.Names(), m.Types.Names()) {
		t.Fatalf("types %v, want %v", r.Types.Names(), m.Types.Names())
	}
	for i, p := range m.Params() {
		for j, v := range p.Data {
			if math.Float64bits(r.Params()[i].Data[j]) != math.Float64bits(v) {
				t.Fatalf("param %d elem %d changed bits through the file", i, j)
			}
		}
	}
	if r.Generation() == m.Generation() {
		t.Fatal("a model read from a file shares the writer's generation")
	}
	var again bytes.Buffer
	if err := r.WriteModel(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again.Bytes(), file) {
		t.Fatal("the model read back writes another file")
	}
}

// TestReadModelRefuses: every file that is not a whole Taste model file is
// refused, with an error saying what the file holds.
func TestReadModelRefuses(t *testing.T) {
	m := speckModel(t)
	var weights, file, turl bytes.Buffer
	if err := m.Save(&weights); err != nil {
		t.Fatal(err)
	}
	if err := m.WriteModel(&file); err != nil {
		t.Fatal(err)
	}
	if err := WriteHeader(&turl, "TURL", m.Cfg, m.Tok, m.Types); err != nil {
		t.Fatal(err)
	}
	other := speckModel(t)
	other.Cfg.Intermediate = 2
	var mismatched bytes.Buffer
	if err := WriteHeader(&mismatched, kindTaste, other.Cfg, m.Tok, m.Types); err != nil {
		t.Fatal(err)
	}
	if err := m.Save(&mismatched); err != nil {
		t.Fatal(err)
	}
	var terms []byte
	terms = binary.LittleEndian.AppendUint32(appendStrings(terms, kindTaste, "{}"), 1<<31)
	for _, tc := range []struct {
		name string
		data []byte
		want string
	}{
		{"weights only", weights.Bytes(), "holds weights only"},
		{"another kind", append(turl.Bytes(), weights.Bytes()...), `holds a "TURL" model`},
		{"header cut short", file.Bytes()[:30], "header cut short"},
		{"2^31 terms", fileWith(terms), "over the cap"},
		{"no weights", file.Bytes()[:file.Len()-weights.Len()], "weights stream is 0 bytes"},
		{"weights cut short", file.Bytes()[:file.Len()-1], "weights stream is"},
		{"trailing bytes", append(slices.Clone(file.Bytes()), 0), "runs past"},
		{"weights of another shape", mismatched.Bytes(), "weights stream is"},
		{"no bytes", nil, "read magic"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r, err := ReadModel(bytes.NewReader(tc.data))
			if r != nil || err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("ReadModel = %v, %v; want an error containing %q", r, err, tc.want)
			}
		})
	}
}

// TestWriteFileFailureLeavesPath: a writer that fails partway leaves the
// file already at the path byte-identical and no temporary file behind; a
// writer that succeeds replaces it.
func TestWriteFileFailureLeavesPath(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "keep.ckpt")
	old := []byte("an earlier model file")
	if err := os.WriteFile(path, old, 0o644); err != nil {
		t.Fatal(err)
	}
	err := WriteFile(path, func(w io.Writer) error {
		w.Write(bytes.Repeat([]byte{1}, 1<<17)) // past the buffer: bytes reach the temporary file
		return errors.New("training failed")
	})
	if err == nil || !strings.Contains(err.Error(), "training failed") {
		t.Fatalf("WriteFile with a failing writer: %v", err)
	}
	if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, old) {
		t.Fatalf("the file at the path after a failed write: %q, %v", got, err)
	}
	if entries, _ := os.ReadDir(dir); len(entries) != 1 {
		t.Fatalf("directory after a failed write holds %d entries, want 1", len(entries))
	}
	m := speckModel(t)
	if err := WriteFile(path, m.WriteModel); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := ReadModel(f); err != nil {
		t.Fatalf("the file WriteFile wrote: %v", err)
	}
	if entries, _ := os.ReadDir(dir); len(entries) != 1 {
		t.Fatalf("directory after a write holds %d entries, want 1", len(entries))
	}
}

// FuzzReadModel feeds arbitrary bytes to the model-file reader: it returns
// a model or an error, never panics, and a model it returns writes a file
// that reads back and writes the same bytes again.
func FuzzReadModel(f *testing.F) {
	m := speckModel(f)
	var file, weights bytes.Buffer
	if err := m.WriteModel(&file); err != nil {
		f.Fatal(err)
	}
	if err := m.Save(&weights); err != nil {
		f.Fatal(err)
	}
	var terms []byte
	terms = binary.LittleEndian.AppendUint32(appendStrings(terms, kindTaste, "{}"), 1<<31)
	f.Add(file.Bytes())
	f.Add(weights.Bytes())
	f.Add(file.Bytes()[:40])
	f.Add(fileWith(terms))
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := ReadModel(bytes.NewReader(data))
		if (r == nil) == (err == nil) {
			t.Fatalf("ReadModel = %v, %v: want a model or an error", r, err)
		}
		if err != nil {
			return
		}
		var once, twice bytes.Buffer
		if err := r.WriteModel(&once); err != nil {
			t.Fatalf("a model read from a file does not write: %v", err)
		}
		again, err := ReadModel(bytes.NewReader(once.Bytes()))
		if err != nil {
			t.Fatalf("a written model file does not read back: %v", err)
		}
		if err := again.WriteModel(&twice); err != nil || !bytes.Equal(once.Bytes(), twice.Bytes()) {
			t.Fatalf("a model file does not write back the same bytes: %v", err)
		}
	})
}
