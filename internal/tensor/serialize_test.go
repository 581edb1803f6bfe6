package tensor

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"strings"
	"testing"
)

func TestWriteReadRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	orig := []*Tensor{randParam(rng, 3, 4), randParam(rng, 1, 7), randParam(rng, 5, 5)}
	var buf bytes.Buffer
	if err := WriteTensors(&buf, orig); err != nil {
		t.Fatalf("WriteTensors: %v", err)
	}
	restored := []*Tensor{New(3, 4), New(1, 7), New(5, 5)}
	if err := ReadTensors(&buf, restored); err != nil {
		t.Fatalf("ReadTensors: %v", err)
	}
	for i := range orig {
		for j := range orig[i].Data {
			if orig[i].Data[j] != restored[i].Data[j] {
				t.Fatalf("tensor %d elem %d: %v != %v", i, j, orig[i].Data[j], restored[i].Data[j])
			}
		}
	}
}

func TestReadTensorsShapeMismatch(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteTensors(&buf, []*Tensor{New(2, 2)}); err != nil {
		t.Fatal(err)
	}
	err := ReadTensors(&buf, []*Tensor{New(2, 3)})
	if err == nil || !strings.Contains(err.Error(), "shape mismatch") {
		t.Fatalf("want shape mismatch error, got %v", err)
	}
}

func TestReadTensorsCountMismatch(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteTensors(&buf, []*Tensor{New(2, 2)}); err != nil {
		t.Fatal(err)
	}
	err := ReadTensors(&buf, []*Tensor{New(2, 2), New(1, 1)})
	if err == nil {
		t.Fatal("want count mismatch error")
	}
}

func TestReadTensorsBadMagic(t *testing.T) {
	err := ReadTensors(strings.NewReader("XXXXgarbage"), []*Tensor{New(1, 1)})
	if err == nil || !strings.Contains(err.Error(), "magic") {
		t.Fatalf("want magic error, got %v", err)
	}
}

func TestReadTensorsTruncated(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteTensors(&buf, []*Tensor{New(4, 4)}); err != nil {
		t.Fatal(err)
	}
	trunc := buf.Bytes()[:buf.Len()-9]
	err := ReadTensors(bytes.NewReader(trunc), []*Tensor{New(4, 4)})
	if err == nil {
		t.Fatal("want truncation error")
	}
}

// snapshot copies every tensor's data for later bit-identity comparison.
func snapshot(ts []*Tensor) [][]float64 {
	out := make([][]float64, len(ts))
	for i, t := range ts {
		out[i] = append([]float64(nil), t.Data...)
	}
	return out
}

func assertUnchanged(t *testing.T, ts []*Tensor, snap [][]float64) {
	t.Helper()
	for i, tt := range ts {
		for j, v := range tt.Data {
			if v != snap[i][j] {
				t.Fatalf("tensor %d elem %d mutated by failed load: %v != %v", i, j, v, snap[i][j])
			}
		}
	}
}

// TestReadTensorsAtomicOnFailure is the non-atomic-load regression pin: a
// checkpoint that fails mid-decode — truncated in the middle of the second
// tensor, shape-mismatched past the first, or carrying trailing garbage —
// must leave the destination tensors bit-identical to their pre-Load state.
func TestReadTensorsAtomicOnFailure(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var buf bytes.Buffer
	if err := WriteTensors(&buf, []*Tensor{randParam(rng, 4, 4), randParam(rng, 8, 2)}); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()

	dest := func() []*Tensor { return []*Tensor{randParam(rng, 4, 4), randParam(rng, 8, 2)} }

	cases := map[string][]byte{
		// Cut inside the second tensor's data: the first tensor decodes
		// cleanly, so a non-atomic reader would have clobbered it already.
		"truncated": full[:len(full)-17],
		// Trailing garbage after a valid stream.
		"trailing": append(append([]byte(nil), full...), 0xde, 0xad),
	}
	for name, data := range cases {
		ts := dest()
		snap := snapshot(ts)
		if err := ReadTensors(bytes.NewReader(data), ts); err == nil {
			t.Fatalf("%s: want error, got nil", name)
		}
		assertUnchanged(t, ts, snap)
	}

	// Shape mismatch on the second tensor only: tensor #0 matches and fully
	// decodes before the failure is discovered.
	ts := []*Tensor{randParam(rng, 4, 4), randParam(rng, 2, 8)}
	snap := snapshot(ts)
	if err := ReadTensors(bytes.NewReader(full), ts); err == nil || !strings.Contains(err.Error(), "shape mismatch") {
		t.Fatalf("want shape mismatch, got %v", err)
	}
	assertUnchanged(t, ts, snap)
}

func TestReadTensorsRejectsTrailingBytes(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	var buf bytes.Buffer
	if err := WriteTensors(&buf, []*Tensor{randParam(rng, 3, 3)}); err != nil {
		t.Fatal(err)
	}
	// A second concatenated checkpoint is the classic way to get a
	// prefix-matching file that used to load "successfully".
	if err := WriteTensors(&buf, []*Tensor{randParam(rng, 3, 3)}); err != nil {
		t.Fatal(err)
	}
	err := ReadTensors(bytes.NewReader(buf.Bytes()), []*Tensor{New(3, 3)})
	if err == nil || !strings.Contains(err.Error(), "trailing bytes") {
		t.Fatalf("want trailing-bytes error, got %v", err)
	}
}

// FuzzReadTensors feeds arbitrary bytes to the checkpoint decoder, seeded
// with a checkpoint of the destination's shapes and its legacy TSR1 form.
// It never panics; a failed load leaves the destination bit for bit as it
// was; an input that loads re-encodes to the same bytes.
func FuzzReadTensors(f *testing.F) {
	dest := func() []*Tensor {
		rng := rand.New(rand.NewSource(13))
		return []*Tensor{randParam(rng, 2, 3), randParam(rng, 1, 4)}
	}
	encode := func(t testing.TB, ts []*Tensor) []byte {
		var buf bytes.Buffer
		if err := WriteTensors(&buf, ts); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	src := []*Tensor{
		fromSlice(2, 3, []float64{1, math.NaN(), -2, 0, 5e-324, math.Inf(-1)}),
		fromSlice(1, 4, []float64{math.Copysign(0, -1), 3, 0.5, -7}),
	}
	v2 := encode(f, src)
	// The unversioned "TSR1" layout of early checkpoints (v2 without its
	// version field) is refused like any other bad magic.
	f.Add(append([]byte("TSR1"), v2[8:]...))
	f.Add(v2)
	f.Fuzz(func(t *testing.T, data []byte) {
		ts := dest()
		before := encode(t, ts)
		if err := ReadTensors(bytes.NewReader(data), ts); err != nil {
			if !bytes.Equal(encode(t, ts), before) {
				t.Fatalf("failed load (%v) changed the destination", err)
			}
			return
		}
		if got := encode(t, ts); !bytes.Equal(got, data) {
			t.Fatalf("checkpoint of %d bytes re-encodes to %d different bytes", len(data), len(got))
		}
	})
}

func TestReadTensorsRejectsFutureVersion(t *testing.T) {
	var buf bytes.Buffer
	buf.WriteString(SerializeMagic)
	var w [4]byte
	binary.LittleEndian.PutUint32(w[:], uint32(SerializeVersion+1))
	buf.Write(w[:])
	err := ReadTensors(&buf, nil)
	if err == nil || !strings.Contains(err.Error(), "not supported") {
		t.Fatalf("want unsupported-version error, got %v", err)
	}
}
