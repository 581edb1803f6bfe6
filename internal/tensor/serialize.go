package tensor

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
)

// Binary parameter serialization. The format is deliberately simple:
//
//	magic "TSRv" | uint32 version | uint32 count |
//	repeat{ uint32 rows | uint32 cols | float64... }
//
// Tensors are written and read back in order; shapes must match on load,
// which catches configuration drift between a trained checkpoint and the
// model being restored. The explicit version field lets the layout evolve
// without breaking old readers. The stream is a model file's body: every
// model file (adtd.WriteModel; tastetrain -o, each registry version) is a
// header saying what the model is, then this stream. Alone it is a
// weights-only stream, which the model-file readers refuse by name.
//
// ReadTensors is atomic with respect to the destination tensors: the whole
// checkpoint is decoded and validated into scratch buffers first, and the
// live tensors are only written once nothing more can fail. A truncated,
// corrupt, or wrong-architecture file therefore leaves the model exactly as
// it was.

const (
	// SerializeMagic opens the stream, ahead of its format-version field;
	// a model-file reader tells a weights-only stream by it.
	SerializeMagic = "TSRv"
	// SerializeVersion is the checkpoint format version this package
	// writes. Readers accept any version ≤ this and fail with a clear
	// error on newer files.
	SerializeVersion = 2
)

// WriteTensors serializes the given tensors to w in the current format
// version.
func WriteTensors(w io.Writer, ts []*Tensor) error {
	if _, err := io.WriteString(w, SerializeMagic); err != nil {
		return fmt.Errorf("tensor: write magic: %w", err)
	}
	if err := binary.Write(w, binary.LittleEndian, uint32(SerializeVersion)); err != nil {
		return fmt.Errorf("tensor: write version: %w", err)
	}
	if err := binary.Write(w, binary.LittleEndian, uint32(len(ts))); err != nil {
		return fmt.Errorf("tensor: write count: %w", err)
	}
	buf := make([]byte, 8)
	for i, t := range ts {
		if err := binary.Write(w, binary.LittleEndian, uint32(t.Rows)); err != nil {
			return fmt.Errorf("tensor: write rows of #%d: %w", i, err)
		}
		if err := binary.Write(w, binary.LittleEndian, uint32(t.Cols)); err != nil {
			return fmt.Errorf("tensor: write cols of #%d: %w", i, err)
		}
		for _, v := range t.Data {
			binary.LittleEndian.PutUint64(buf, math.Float64bits(v))
			if _, err := w.Write(buf); err != nil {
				return fmt.Errorf("tensor: write data of #%d: %w", i, err)
			}
		}
	}
	return nil
}

// readCheckpointHeader consumes and validates a checkpoint's magic and
// format version.
func readCheckpointHeader(r io.Reader) error {
	magic := make([]byte, len(SerializeMagic))
	if _, err := io.ReadFull(r, magic); err != nil {
		return fmt.Errorf("tensor: read magic: %w", err)
	}
	if string(magic) != SerializeMagic {
		return fmt.Errorf("tensor: bad magic %q", magic)
	}
	var v uint32
	if err := binary.Read(r, binary.LittleEndian, &v); err != nil {
		return fmt.Errorf("tensor: read version: %w", err)
	}
	if v < 2 || v > SerializeVersion {
		return fmt.Errorf("tensor: checkpoint format version %d not supported (this reader handles ≤ %d)", v, SerializeVersion)
	}
	return nil
}

// ReadTensors deserializes values from r into the given tensors, which must
// match in count and shape. The destination tensors are untouched unless
// the entire checkpoint decodes and validates — including an EOF check that
// rejects trailing bytes after the last tensor, so a concatenated or
// wrong-architecture file that happens to prefix-match cannot half-load.
func ReadTensors(r io.Reader, ts []*Tensor) error {
	if err := readCheckpointHeader(r); err != nil {
		return err
	}
	var count uint32
	if err := binary.Read(r, binary.LittleEndian, &count); err != nil {
		return fmt.Errorf("tensor: read count: %w", err)
	}
	if int(count) != len(ts) {
		return fmt.Errorf("tensor: checkpoint has %d tensors, model has %d", count, len(ts))
	}
	// Decode into scratch buffers: nothing below writes to ts until every
	// byte of the checkpoint has been read and validated.
	scratch := make([][]float64, len(ts))
	buf := make([]byte, 8)
	for i, t := range ts {
		var rows, cols uint32
		if err := binary.Read(r, binary.LittleEndian, &rows); err != nil {
			return fmt.Errorf("tensor: read rows of #%d: %w", i, err)
		}
		if err := binary.Read(r, binary.LittleEndian, &cols); err != nil {
			return fmt.Errorf("tensor: read cols of #%d: %w", i, err)
		}
		if int(rows) != t.Rows || int(cols) != t.Cols {
			return fmt.Errorf("tensor: shape mismatch for #%d: checkpoint %dx%d, model %dx%d", i, rows, cols, t.Rows, t.Cols)
		}
		vals := make([]float64, len(t.Data))
		for j := range vals {
			if _, err := io.ReadFull(r, buf); err != nil {
				return fmt.Errorf("tensor: read data of #%d: %w", i, err)
			}
			vals[j] = math.Float64frombits(binary.LittleEndian.Uint64(buf))
		}
		scratch[i] = vals
	}
	// The checkpoint must end exactly here: a non-EOF remainder means the
	// file is not the checkpoint the caller thinks it is.
	var tail [1]byte
	switch _, err := io.ReadFull(r, tail[:]); err {
	case io.EOF:
		// Exactly at end: the expected case.
	case nil:
		return fmt.Errorf("tensor: trailing bytes after last tensor (corrupt or concatenated checkpoint)")
	default:
		return fmt.Errorf("tensor: read trailing check: %w", err)
	}
	// Install: everything validated, so the swap cannot fail partway.
	for i, t := range ts {
		copy(t.Data, scratch[i])
	}
	return nil
}
