package adtd

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"

	"repro/internal/corpus"
	"repro/internal/tensor"
	"repro/internal/tokenizer"
)

// Model files. Every model this repository stores — tastetrain -o, a
// registry version, the experiment suite's checkpoint cache, for Taste and
// for the baselines alike — is one file: a header saying what the model
// is, then the tensor.WriteTensors weights stream.
//
//	magic "TMDL" | uint32 format version | uint32 header size |
//	header{ string kind | string config (JSON) |
//	        uint32 n | n × string term   (tokenizer ids 0 … n-1) |
//	        uint32 m | m × string type   (classifier heads 0 … m-1) } |
//	weights stream
//
// A string is a uint32 byte length and the bytes; integers are
// little-endian. The header carries everything the weights' shapes depend
// on, so a file is read alone: no corpus is regenerated to rebuild its
// vocabulary or type space. The reader checks every length the header
// declares against a cap below before it allocates for it, and reads no
// more of the weights stream than the header's model takes.

const (
	fileMagic   = "TMDL"
	fileVersion = 1

	// maxHeaderBytes caps the declared header size; maxTerms the
	// vocabulary, maxTypes the type space, maxStringBytes one kind, config,
	// term or type name.
	maxHeaderBytes = 64 << 20
	maxTerms       = 1 << 20
	maxTypes       = 1 << 16
	maxStringBytes = 1 << 12

	// maxFileLayers and maxFileDim cap a configuration's layer count and
	// every other dimension (CheckDims).
	maxFileLayers = 64
	maxFileDim    = 1 << 14
)

// kindTaste names an ADTD model in a model file's header.
const kindTaste = "taste"

// WriteHeader writes a model file's header for a model of the given kind,
// configuration (stored as JSON), tokenizer and type space; the model's
// weights stream follows it.
func WriteHeader(w io.Writer, kind string, cfg any, tok *tokenizer.Tokenizer, types *TypeSpace) error {
	conf, err := json.Marshal(cfg)
	if err != nil {
		return fmt.Errorf("model file: encode config: %w", err)
	}
	terms := make([]string, tok.VocabSize())
	for i := range terms {
		terms[i] = tok.Token(i)
	}
	var h []byte
	h = appendStrings(h, kind, string(conf))
	h = appendStrings(binary.LittleEndian.AppendUint32(h, uint32(len(terms))), terms...)
	h = appendStrings(binary.LittleEndian.AppendUint32(h, uint32(types.Len())), types.names...)
	// The writer holds itself to the reader's caps: it writes no file this
	// build would refuse to read.
	if _, err := parseHeader(h); err != nil {
		return err
	}
	pre := binary.LittleEndian.AppendUint32([]byte(fileMagic), fileVersion)
	pre = binary.LittleEndian.AppendUint32(pre, uint32(len(h)))
	if _, err := w.Write(append(pre, h...)); err != nil {
		return fmt.Errorf("model file: write header: %w", err)
	}
	return nil
}

// appendStrings appends each string as its uint32 length and its bytes.
func appendStrings(b []byte, strs ...string) []byte {
	for _, s := range strs {
		b = append(binary.LittleEndian.AppendUint32(b, uint32(len(s))), s...)
	}
	return b
}

// header is a model file's header, parsed.
type header struct {
	kind, config string
	terms, types []string
}

// errWeightsOnly refuses a bare weights stream: what Model.Save writes, and
// what every model file was before it had a header.
var errWeightsOnly = errors.New("model file: the file holds weights only (a bare weights stream with no header naming its model, configuration, vocabulary or types); write it again with tastetrain -o")

// readHeader reads a model file's header from r, leaving r at the weights
// stream.
func readHeader(r io.Reader) (*header, error) {
	var pre [12]byte
	if _, err := io.ReadFull(r, pre[:4]); err != nil {
		return nil, fmt.Errorf("model file: read magic: %w", err)
	}
	switch string(pre[:4]) {
	case fileMagic:
	case tensor.SerializeMagic:
		return nil, errWeightsOnly
	default:
		return nil, fmt.Errorf("model file: bad magic %q", pre[:4])
	}
	if _, err := io.ReadFull(r, pre[4:]); err != nil {
		return nil, fmt.Errorf("model file: read header size: %w", err)
	}
	if v := binary.LittleEndian.Uint32(pre[4:]); v != fileVersion {
		return nil, fmt.Errorf("model file: format version %d, this reader handles %d", v, fileVersion)
	}
	size := binary.LittleEndian.Uint32(pre[8:])
	if size > maxHeaderBytes {
		return nil, fmt.Errorf("model file: header of %d bytes, over the cap %d", size, maxHeaderBytes)
	}
	// ReadAll grows with the bytes that arrive, not with the declared size.
	raw, err := io.ReadAll(io.LimitReader(r, int64(size)))
	if err != nil {
		return nil, fmt.Errorf("model file: read header: %w", err)
	}
	if len(raw) != int(size) {
		return nil, fmt.Errorf("model file: header cut short: %d of %d bytes", len(raw), size)
	}
	return parseHeader(raw)
}

// parseHeader decodes a header's bytes, checking each declared count and
// length against its cap and against the bytes that remain.
func parseHeader(b []byte) (*header, error) {
	p := headerParser{b: b}
	h := &header{kind: p.string("kind"), config: p.string("config")}
	h.terms = p.strings("terms", maxTerms)
	h.types = p.strings("types", maxTypes)
	if p.err == nil && len(p.b) > 0 {
		p.err = fmt.Errorf("%d bytes after the type names", len(p.b))
	}
	if p.err != nil {
		return nil, fmt.Errorf("model file: header: %w", p.err)
	}
	return h, nil
}

// headerParser reads a header's fields off b; the first error sticks.
type headerParser struct {
	b   []byte
	err error
}

func (p *headerParser) uint32(what string) int {
	if p.err == nil && len(p.b) < 4 {
		p.err = fmt.Errorf("cut short in %s", what)
	}
	if p.err != nil {
		return 0
	}
	v := binary.LittleEndian.Uint32(p.b)
	p.b = p.b[4:]
	return int(v)
}

func (p *headerParser) string(what string) string {
	n := p.uint32(what)
	switch {
	case p.err != nil:
		return ""
	case n > maxStringBytes:
		p.err = fmt.Errorf("a %d-byte string in %s, over the cap %d", n, what, maxStringBytes)
		return ""
	case n > len(p.b):
		p.err = fmt.Errorf("cut short in %s", what)
		return ""
	}
	s := string(p.b[:n])
	p.b = p.b[n:]
	return s
}

// strings reads a count, at most max and no more than the remaining bytes
// could hold, then that many strings.
func (p *headerParser) strings(what string, max int) []string {
	n := p.uint32(what)
	switch {
	case p.err != nil:
		return nil
	case n > max:
		p.err = fmt.Errorf("%d %s, over the cap %d", n, what, max)
		return nil
	case n > len(p.b)/4:
		p.err = fmt.Errorf("%d %s declared, but only %d bytes follow", n, what, len(p.b))
		return nil
	}
	out := make([]string, n)
	for i := range out {
		out[i] = p.string(what)
	}
	return out
}

// ReadHeader reads a model file's header from r and returns its kind, the
// tokenizer over its terms and the type space over its type names; it
// decodes the configuration into cfg, which must name every field the
// file's configuration has. A file whose kind is not one of kinds, a bare
// weights stream and a header that breaks a cap are refused, each saying
// what the file holds. r is left at the weights stream (ReadWeights).
func ReadHeader(r io.Reader, cfg any, kinds ...string) (string, *tokenizer.Tokenizer, *TypeSpace, error) {
	h, err := readHeader(r)
	if err != nil {
		return "", nil, nil, err
	}
	if !slices.Contains(kinds, h.kind) {
		return "", nil, nil, fmt.Errorf("model file: the file holds a %q model, not %q", h.kind, kinds)
	}
	dec := json.NewDecoder(bytes.NewReader([]byte(h.config)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(cfg); err != nil {
		return "", nil, nil, fmt.Errorf("model file: %s config: %w", h.kind, err)
	}
	if dec.More() {
		return "", nil, nil, fmt.Errorf("model file: %s config: trailing data", h.kind)
	}
	specials := len(tokenizer.SpecialTokens)
	if len(h.terms) < specials || !slices.Equal(h.terms[:specials], tokenizer.SpecialTokens) {
		return "", nil, nil, errors.New("model file: the vocabulary does not open with the special tokens")
	}
	tok := tokenizer.New(h.terms[specials:])
	if tok.VocabSize() != len(h.terms) {
		return "", nil, nil, errors.New("model file: the vocabulary repeats a term")
	}
	if len(h.types) == 0 || h.types[0] != corpus.NullType {
		return "", nil, nil, fmt.Errorf("model file: the type space does not open with %s", corpus.NullType)
	}
	types := NewTypeSpace(h.types[1:])
	if !slices.Equal(types.names, h.types) {
		return "", nil, nil, errors.New("model file: the type names are not sorted after the background type, or repeat")
	}
	return h.kind, tok, types, nil
}

// CheckDims refuses a configuration read from a model file whose layer
// count or any other dimension is below one or over its cap, before
// anything is shaped by it.
func CheckDims(layers int, dims ...int) error {
	if layers < 1 || layers > maxFileLayers {
		return fmt.Errorf("model file: %d layers, want 1 to %d", layers, maxFileLayers)
	}
	for _, d := range dims {
		if d < 1 || d > maxFileDim {
			return fmt.Errorf("model file: a dimension of %d, want 1 to %d", d, maxFileDim)
		}
	}
	return nil
}

// ReadWeights reads the weights stream that follows a model file's header
// into params, the parameters of the model the header describes; one whose
// Data is nil gets its own. It reads exactly the stream's bytes for those
// shapes, and allocates for the parameters only once they have all
// arrived: a header's shapes never make it allocate for bytes the file
// does not hold. On an error the caller discards params' model.
func ReadWeights(r io.Reader, params []*tensor.Tensor) error {
	want := int64(12) // magic, format version, tensor count
	for _, p := range params {
		want += 8 + 8*int64(p.Rows)*int64(p.Cols)
	}
	raw, err := io.ReadAll(io.LimitReader(r, want+1))
	switch {
	case err != nil:
		return fmt.Errorf("model file: read weights: %w", err)
	case int64(len(raw)) > want:
		return fmt.Errorf("model file: the weights stream runs past the %d bytes the header's model takes", want)
	case int64(len(raw)) < want:
		return fmt.Errorf("model file: the weights stream is %d bytes, the header's model takes %d", len(raw), want)
	}
	for _, p := range params {
		if p.Data == nil {
			p.Data = make([]float64, p.Rows*p.Cols)
		}
	}
	if err := tensor.ReadTensors(bytes.NewReader(raw), params); err != nil {
		return fmt.Errorf("model file: %w", err)
	}
	return nil
}

// WriteModel writes m as a model file: its header, then its weights
// stream (Save).
func (m *Model) WriteModel(w io.Writer) error {
	if err := WriteHeader(w, kindTaste, m.Cfg, m.Tok, m.Types); err != nil {
		return err
	}
	return m.Save(w)
}

// ReadModel reads a model file WriteModel wrote and returns the model it
// describes, in train mode with a weight generation of its own. A bare
// weights stream, a baseline's file, a configuration that fails Validate
// or CheckDims and weights of another shape are refused.
func ReadModel(r io.Reader) (*Model, error) {
	var cfg Config
	_, tok, types, err := ReadHeader(r, &cfg, kindTaste)
	if err != nil {
		return nil, err
	}
	if err := cfg.Validate(); err != nil {
		return nil, fmt.Errorf("model file: %w", err)
	}
	if err := CheckDims(cfg.Layers, cfg.Heads, cfg.MaxSeq, cfg.Intermediate, cfg.Hidden,
		cfg.TableTokens, cfg.ColTokens, cfg.CellTokens, cfg.MetaClassifierHidden, cfg.ContentClassifierHidden); err != nil {
		return nil, err
	}
	m, err := build(cfg, tok, types, nil)
	if err != nil {
		return nil, err
	}
	if err := ReadWeights(r, m.Params()); err != nil {
		return nil, err
	}
	return m, nil
}

// WriteFile writes a model file at path with write (a WriteModel): into a
// temporary file in path's directory through one buffer, then synced and
// closed, and renamed over path only once every step succeeded. A write
// that fails leaves what was at path as it was, and no temporary file; a
// crash leaves the old file or the whole new one.
func WriteFile(path string, write func(io.Writer) error) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), "."+filepath.Base(path)+".tmp-*")
	if err != nil {
		return fmt.Errorf("model file: %w", err)
	}
	defer os.Remove(tmp.Name()) // after the rename there is nothing to remove
	bw := bufio.NewWriterSize(tmp, 1<<16)
	err = write(bw)
	if err == nil {
		err = bw.Flush()
	}
	if err == nil {
		err = tmp.Chmod(0o644)
	}
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), path)
	}
	if err != nil {
		return fmt.Errorf("model file %s: %w", path, err)
	}
	return nil
}
