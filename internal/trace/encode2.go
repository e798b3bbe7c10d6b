package trace

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
)

// Encoder writes a trace in the DMMT2 binary format, streaming: events
// are encoded as they arrive and nothing is buffered beyond the write
// buffer, so a generator can pipe an arbitrarily long trace to disk in
// O(1) memory. Encoder implements EventSink — hand it (usually wrapped in
// a StatsSink) to NewBuilderTo or the registry's WorkloadOpts.Sink.
//
// DMMT2 layout: the "DMMT2\n" magic and the uvarint-prefixed name, then
// per event a Kind byte, the ID as a uvarint, for allocations the Size as
// a uvarint and the Tag as a zigzag varint, then the Phase and the tick
// delta as zigzag varints, so negative tags and phases and backward tick
// deltas cost their natural varint length. The stream ends with a 0xFF
// marker followed by the event count as a uvarint, which lets the
// decoder detect truncated files, and then a CRC-32C checksum (4 bytes,
// little-endian) over every preceding byte of the stream, which lets it
// detect bit corruption the structural checks cannot (a flipped bit
// inside a varint decodes to a different, equally valid value).
//
// Use it as: NewEncoder, Begin, WriteEvent..., Close. Close writes the
// end marker and flushes; it does not close the underlying writer.
type Encoder struct {
	w      *bufio.Writer
	begun  bool
	closed bool
	count  uint64
	last   int64  // previous event's tick
	crc    uint32 // running CRC-32C over every byte written
	buf    [binary.MaxVarintLen64]byte
}

// NewEncoder returns a DMMT2 encoder writing to w.
func NewEncoder(w io.Writer) *Encoder {
	bw, ok := w.(*bufio.Writer)
	if !ok {
		bw = bufio.NewWriter(w)
	}
	return &Encoder{w: bw}
}

// write sends p to the stream, folding it into the running checksum;
// every stream byte before the checksum itself must pass through here.
func (enc *Encoder) write(p []byte) error {
	enc.crc = crc32.Update(enc.crc, castagnoli, p)
	_, err := enc.w.Write(p)
	return err
}

func (enc *Encoder) writeByte(b byte) error {
	enc.buf[0] = b
	return enc.write(enc.buf[:1])
}

func (enc *Encoder) putUvarint(v uint64) error {
	n := binary.PutUvarint(enc.buf[:], v)
	return enc.write(enc.buf[:n])
}

func (enc *Encoder) putVarint(v int64) error {
	n := binary.PutVarint(enc.buf[:], v)
	return enc.write(enc.buf[:n])
}

// Begin writes the stream header. It must be called exactly once, before
// the first event.
func (enc *Encoder) Begin(name string) error {
	if enc.begun {
		return fmt.Errorf("trace: Encoder.Begin called twice")
	}
	enc.begun = true
	if err := enc.write([]byte(binaryMagic)); err != nil {
		return err
	}
	if err := enc.putUvarint(uint64(len(name))); err != nil {
		return err
	}
	return enc.write([]byte(name))
}

// WriteEvent appends one event to the stream. Events that could not be
// decoded back (negative IDs, non-positive allocation sizes, unknown
// kinds) are rejected so every encoded file is readable.
func (enc *Encoder) WriteEvent(e Event) error {
	if !enc.begun {
		return fmt.Errorf("trace: Encoder.WriteEvent before Begin")
	}
	if enc.closed {
		return fmt.Errorf("trace: Encoder.WriteEvent after Close")
	}
	// Validate before the first byte goes out: a rejected event must not
	// leave a partial record corrupting the stream.
	if e.Kind != KindAlloc && e.Kind != KindFree {
		return fmt.Errorf("trace: encoding event %d: bad kind %d", enc.count, e.Kind)
	}
	if e.ID < 0 {
		return fmt.Errorf("trace: encoding event %d: negative id %d", enc.count, e.ID)
	}
	if e.Kind == KindAlloc && e.Size <= 0 {
		return fmt.Errorf("trace: encoding event %d: alloc size %d", enc.count, e.Size)
	}
	if err := enc.writeByte(byte(e.Kind)); err != nil {
		return err
	}
	if err := enc.putUvarint(uint64(e.ID)); err != nil {
		return err
	}
	if e.Kind == KindAlloc {
		if err := enc.putUvarint(uint64(e.Size)); err != nil {
			return err
		}
		if err := enc.putVarint(int64(e.Tag)); err != nil {
			return err
		}
	}
	if err := enc.putVarint(int64(e.Phase)); err != nil {
		return err
	}
	if err := enc.putVarint(e.Tick - enc.last); err != nil {
		return err
	}
	enc.last = e.Tick
	enc.count++
	return nil
}

// Count returns the number of events written so far.
func (enc *Encoder) Count() int { return int(enc.count) }

// Close terminates the stream (end marker, event count, CRC-32C
// checksum) and flushes the write buffer. It does not close the
// underlying writer. Close is idempotent; WriteEvent fails after it.
func (enc *Encoder) Close() error {
	if enc.closed {
		return nil
	}
	if !enc.begun {
		return fmt.Errorf("trace: Encoder.Close before Begin")
	}
	enc.closed = true
	if err := enc.writeByte(endMarker); err != nil {
		return err
	}
	if err := enc.putUvarint(enc.count); err != nil {
		return err
	}
	// The checksum covers everything before it, count included; it is the
	// one piece of the stream written outside enc.write.
	binary.LittleEndian.PutUint32(enc.buf[:4], enc.crc)
	if _, err := enc.w.Write(enc.buf[:4]); err != nil {
		return err
	}
	return enc.w.Flush()
}

// EncodeBinary2 writes the trace in the DMMT2 binary format (see
// Encoder).
func (t *Trace) EncodeBinary2(w io.Writer) error {
	enc := NewEncoder(w)
	if err := enc.Begin(t.Name); err != nil {
		return err
	}
	for _, e := range t.Events {
		if err := enc.WriteEvent(e); err != nil {
			return err
		}
	}
	return enc.Close()
}
