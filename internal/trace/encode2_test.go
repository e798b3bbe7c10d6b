package trace

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

func TestBinary2RoundTrip(t *testing.T) {
	tr := sampleTrace()
	var buf bytes.Buffer
	if err := tr.EncodeBinary2(&buf); err != nil {
		t.Fatalf("EncodeBinary2: %v", err)
	}
	got, err := DecodeBinary(&buf)
	if err != nil {
		t.Fatalf("DecodeBinary: %v", err)
	}
	if !reflect.DeepEqual(tr, got) {
		t.Errorf("DMMT2 round trip mismatch:\nin:  %+v\nout: %+v", tr.Events[:3], got.Events[:3])
	}
}

// signedTrace exercises the signed-field corners: negative tags and
// phases, and ticks that jump backwards (non-monotonic).
func signedTrace(seed int64) *Trace {
	rng := rand.New(rand.NewSource(seed))
	tr := &Trace{Name: "signed"}
	var tick int64
	var live []int64
	var next int64
	for i := 0; i < 500; i++ {
		tick += rng.Int63n(7) - 3 // backward jumps included
		tag := int32(rng.Intn(9) - 4)
		phase := int32(rng.Intn(5) - 2)
		if len(live) == 0 || rng.Intn(2) == 0 {
			tr.Events = append(tr.Events, Event{
				Kind: KindAlloc, ID: next, Size: rng.Int63n(4096) + 1,
				Tag: tag, Phase: phase, Tick: tick,
			})
			live = append(live, next)
			next++
		} else {
			j := rng.Intn(len(live))
			tr.Events = append(tr.Events, Event{Kind: KindFree, ID: live[j], Phase: phase, Tick: tick})
			live = append(live[:j], live[j+1:]...)
		}
	}
	return tr
}

func TestRoundTripSignedFields(t *testing.T) {
	t.Run("DMMT2", func(t *testing.T) {
		for seed := int64(1); seed <= 8; seed++ {
			tr := signedTrace(seed)
			var buf bytes.Buffer
			if err := tr.EncodeBinary2(&buf); err != nil {
				t.Fatalf("seed %d: encode: %v", seed, err)
			}
			got, err := DecodeBinary(bytes.NewReader(buf.Bytes()))
			if err != nil {
				t.Fatalf("seed %d: decode: %v", seed, err)
			}
			if !reflect.DeepEqual(tr, got) {
				t.Fatalf("seed %d: round trip mismatch", seed)
			}
		}
	})
}

// header writes a trace header for hand-crafted decode inputs.
func header(name string) *bytes.Buffer {
	var buf bytes.Buffer
	buf.WriteString(binaryMagic)
	var tmp [binary.MaxVarintLen64]byte
	buf.Write(tmp[:binary.PutUvarint(tmp[:], uint64(len(name)))])
	buf.WriteString(name)
	return &buf
}

func TestDecodeRejectsOverflow(t *testing.T) {
	put := func(buf *bytes.Buffer, v uint64) {
		var tmp [binary.MaxVarintLen64]byte
		buf.Write(tmp[:binary.PutUvarint(tmp[:], v)])
	}
	putSigned := func(buf *bytes.Buffer, v int64) {
		var tmp [binary.MaxVarintLen64]byte
		buf.Write(tmp[:binary.PutVarint(tmp[:], v)])
	}
	cases := []struct {
		name string
		buf  func() *bytes.Buffer
		want string
	}{
		{"v2 id overflow", func() *bytes.Buffer {
			b := header("x")
			b.WriteByte(byte(KindFree))
			put(b, 1<<63) // wraps to a negative ID if accepted
			return b
		}, "overflows int64"},
		{"v2 size overflow", func() *bytes.Buffer {
			b := header("x")
			b.WriteByte(byte(KindAlloc))
			put(b, 0)
			put(b, 1<<63)
			return b
		}, "overflows int64"},
		{"v2 size zero", func() *bytes.Buffer {
			b := header("x")
			b.WriteByte(byte(KindAlloc))
			put(b, 0)
			put(b, 0)
			return b
		}, "alloc size 0"},
		{"v2 tag overflow", func() *bytes.Buffer {
			b := header("x")
			b.WriteByte(byte(KindAlloc))
			put(b, 0)
			put(b, 8)
			putSigned(b, -1<<40)
			return b
		}, "tag -1099511627776 overflows int32"},
		{"v2 phase overflow", func() *bytes.Buffer {
			b := header("x")
			b.WriteByte(byte(KindFree))
			put(b, 0)
			putSigned(b, 1<<31)
			return b
		}, "phase 2147483648 overflows int32"},
		{"v2 varint overflow", func() *bytes.Buffer {
			b := header("x")
			b.WriteByte(byte(KindFree))
			// An 11-byte varint: ten continuation bytes, then a terminator.
			b.Write(bytes.Repeat([]byte{0xFF}, 10))
			b.WriteByte(0x01)
			return b
		}, errVarintOverflow.Error()},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := DecodeBinary(tc.buf())
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("DecodeBinary = %v, want error containing %q", err, tc.want)
			}
		})
	}
}

func TestBinary2RejectsTruncation(t *testing.T) {
	tr := sampleTrace()
	var buf bytes.Buffer
	if err := tr.EncodeBinary2(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	// Every strict prefix long enough to pass the header must fail: the
	// end marker (or its trailer count) is missing or the count is short.
	for _, cut := range []int{1, 2, 5, len(full) / 2} {
		if _, err := DecodeBinary(bytes.NewReader(full[:len(full)-cut])); err == nil {
			t.Errorf("truncated by %d bytes: decoded without error", cut)
		}
	}
	// A lying trailer count must fail too. The stream ends with the
	// single-byte count followed by the 4-byte checksum; the count check
	// runs first, so the forgery surfaces as a count mismatch even though
	// the checksum no longer matches either.
	forged := append([]byte(nil), full[:len(full)-crcLen-1]...)
	forged = append(forged, 99) // trailer says 99 events
	forged = append(forged, full[len(full)-crcLen:]...)
	if _, err := DecodeBinary(bytes.NewReader(forged)); err == nil ||
		!strings.Contains(err.Error(), "trailer count") {
		t.Errorf("forged trailer count: err = %v, want trailer count mismatch", err)
	}
}

func TestBinary2ChecksumDetectsCorruption(t *testing.T) {
	tr := sampleTrace()
	var buf bytes.Buffer
	if err := tr.EncodeBinary2(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()

	// Flipping any single bit of the stream must fail decoding — either a
	// structural check fires or the checksum does; never a silent success
	// with different events.
	for off := 0; off < len(full); off++ {
		for bit := 0; bit < 8; bit++ {
			corrupt := append([]byte(nil), full...)
			corrupt[off] ^= 1 << bit
			got, err := DecodeBinary(bytes.NewReader(corrupt))
			if err == nil && tracesEqual(tr, got) {
				continue // the flip landed somewhere harmless? it cannot:
			}
			if err == nil {
				t.Fatalf("bit %d of byte %d flipped: decoded different events without error", bit, off)
			}
		}
	}

	// The checksum is mandatory: a stream that ends right after the
	// trailer count is rejected, not read as a checksum-less trace.
	if _, err := DecodeBinary(bytes.NewReader(full[:len(full)-crcLen])); err == nil ||
		!strings.Contains(err.Error(), "reading checksum") {
		t.Errorf("stream without checksum: err = %v, want reading checksum error", err)
	}
}

func tracesEqual(a, b *Trace) bool {
	if a.Name != b.Name || len(a.Events) != len(b.Events) {
		return false
	}
	for i := range a.Events {
		if a.Events[i] != b.Events[i] {
			return false
		}
	}
	return true
}

func TestEncoderMisuse(t *testing.T) {
	var buf bytes.Buffer
	enc := NewEncoder(&buf)
	if err := enc.WriteEvent(Event{Kind: KindAlloc, Size: 1}); err == nil {
		t.Error("WriteEvent before Begin succeeded")
	}
	if err := enc.Begin("x"); err != nil {
		t.Fatal(err)
	}
	if err := enc.Begin("x"); err == nil {
		t.Error("second Begin succeeded")
	}
	if err := enc.WriteEvent(Event{Kind: KindAlloc, ID: -1, Size: 1}); err == nil {
		t.Error("negative ID encoded")
	}
	if err := enc.WriteEvent(Event{Kind: KindAlloc, ID: 0, Size: 0}); err == nil {
		t.Error("zero-size alloc encoded")
	}
	if err := enc.WriteEvent(Event{Kind: 7, ID: 0}); err == nil {
		t.Error("bad kind encoded")
	}
	if err := enc.WriteEvent(Event{Kind: KindAlloc, ID: 0, Size: 8}); err != nil {
		t.Fatalf("valid event rejected: %v", err)
	}
	if err := enc.Close(); err != nil {
		t.Fatal(err)
	}
	if err := enc.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}
	if err := enc.WriteEvent(Event{Kind: KindFree, ID: 0}); err == nil {
		t.Error("WriteEvent after Close succeeded")
	}
	got, err := DecodeBinary(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("decoding encoder output: %v", err)
	}
	if len(got.Events) != 1 || enc.Count() != 1 {
		t.Errorf("decoded %d events, Count() = %d, want 1 and 1", len(got.Events), enc.Count())
	}
}
