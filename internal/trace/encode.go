package trace

import (
	"hash/crc32"
	"io"
)

// DMMT2 (see Encoder) is the one trace file format: a header (magic,
// then the uvarint-prefixed name), the events with their signed fields
// (Tag, Phase, tick deltas) zigzag-encoded, and a trailer of a 0xFF
// marker byte, the event count (a truncation check) and a CRC-32C over
// all preceding bytes (a corruption check). DecodeBinary and
// DecodeBinarySource read it back.
const (
	binaryMagic = "DMMT2\n"
	magicLen    = len(binaryMagic)

	// endMarker terminates the event stream. It can never start an
	// event: events start with a Kind byte, and kinds are 0 or 1.
	endMarker = 0xFF

	// maxNameLen bounds the header's name field against crafted input.
	maxNameLen = 1 << 16
	// crcLen is the size of the trailing CRC-32C checksum.
	crcLen = 4
)

// castagnoli is the CRC-32C polynomial table shared by the DMMT2 encoder
// and decoder. Castagnoli rather than IEEE for its better burst-error
// detection (and hardware support on common targets).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// DecodeBinary reads a whole DMMT2 trace into memory.
// For out-of-core replay of large traces use DecodeBinarySource instead.
func DecodeBinary(r io.Reader) (*Trace, error) {
	src, err := DecodeBinarySource(r)
	if err != nil {
		return nil, err
	}
	t := &Trace{Name: src.Name()}
	for {
		e, ok, err := src.Next()
		if err != nil {
			return nil, err
		}
		if !ok {
			return t, nil
		}
		t.Events = append(t.Events, e)
	}
}
