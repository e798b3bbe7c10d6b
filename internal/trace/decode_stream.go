package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
)

// DecodeBinarySource returns a Source that decodes a DMMT2 trace from r
// event by event. The header is read eagerly — a stream that is not a
// DMMT2 trace fails here, not on the first Next — and decoding then
// keeps O(1) memory beyond the read window, so replaying straight off
// the source needs memory proportional to the application's live set,
// not the trace length. The returned source is also a BatchSource.
//
// The source validates events as it decodes them: ID and Size uvarints
// above MaxInt64 (which would wrap to negative fields), zero allocation
// sizes, and out-of-range Tag/Phase values are decode errors, and the
// stream must end with the trailer count and checksum. It cannot check
// cross-event properties (double frees surface as replay errors);
// callers that need a full Trace.Validate must materialize via
// DecodeBinary.
func DecodeBinarySource(r io.Reader) (Source, error) {
	bufr, ok := r.(*bufio.Reader)
	if !ok {
		bufr = bufio.NewReader(r)
	}
	br := &crcReader{br: bufr}
	magic := make([]byte, magicLen)
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("trace: reading magic: %w", err)
	}
	if string(magic) != binaryMagic {
		return nil, fmt.Errorf("trace: bad magic %q", magic)
	}
	nameLen, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("trace: reading name: %w", err)
	}
	if nameLen > maxNameLen {
		return nil, fmt.Errorf("trace: name length %d too large", nameLen)
	}
	name := make([]byte, nameLen)
	if _, err := io.ReadFull(br, name); err != nil {
		return nil, fmt.Errorf("trace: reading name: %w", err)
	}
	// The body is decoded from the buffered reader directly, through the
	// block window; the header's CRC accumulation carries over.
	return &binarySource{
		name: string(name),
		r:    bufr,
		buf:  make([]byte, batchWindow),
		crc:  br.crc,
	}, nil
}

// crcReader reads the stream header: it folds every byte it yields into
// a running CRC-32C, which the body decoder continues. It implements
// io.Reader and io.ByteReader over the buffered stream.
type crcReader struct {
	br  *bufio.Reader
	crc uint32
	one [1]byte
}

func (r *crcReader) ReadByte() (byte, error) {
	b, err := r.br.ReadByte()
	if err != nil {
		return b, err
	}
	r.one[0] = b
	r.crc = crc32.Update(r.crc, castagnoli, r.one[:1])
	return b, nil
}

func (r *crcReader) Read(p []byte) (int, error) {
	n, err := r.br.Read(p)
	r.crc = crc32.Update(r.crc, castagnoli, p[:n])
	return n, err
}

// batchWindow is the size of the DMMT2 decoder's read window. One block
// read refills ~1300 events' worth of encoded bytes, so the per-event
// cost is slice arithmetic, not reader calls.
const batchWindow = 64 << 10

// maxEventLen is the worst-case encoded size of one DMMT2 event: the
// kind byte plus five maximal varints. When at least this many bytes
// are windowed, a full event decodes without a refill, and a varint
// that runs off the window's end is one that runs off the stream's.
const maxEventLen = 1 + 5*binary.MaxVarintLen64

var errVarintOverflow = errors.New("varint overflows 64 bits")

// binarySource streams a DMMT2 body: zigzag varints for the signed
// fields, then a 0xFF end marker followed by the event count, which
// must match what was decoded (truncation check), and the CRC-32C of
// every preceding byte (corruption check).
//
// It decodes from a block-buffered window — each event in one in-line
// pass over the byte slice (decode), and the running CRC-32C folded over
// consumed ranges chunk-at-a-time on refill — instead of paying an
// interface call and a one-byte hash update per byte. The window makes
// it a natural BatchSource; Next decodes one event from the same window
// for consumers that need the one-event form.
type binarySource struct {
	name   string
	r      *bufio.Reader
	buf    []byte // read window
	pos    int    // next undecoded byte in buf
	lim    int    // buf[pos:lim] is read but not yet decoded
	hashed int    // bytes of buf already folded into crc (<= pos)
	crc    uint32 // CRC-32C over every consumed byte, header included
	i      uint64 // events decoded so far
	last   int64  // previous event's tick
	eof    bool
	pend   error // read error surfaced only after buffered events drain
	done   bool
	err    error     // latched: a corrupt stream stays corrupt
	c      io.Closer // closed when the stream ends (see OpenFile)
}

func (s *binarySource) Name() string { return s.name }

// finish latches the terminal state and releases the underlying closer.
func (s *binarySource) finish(err error) (Event, bool, error) {
	s.done = true
	if err != nil {
		s.err = err
	}
	if s.c != nil {
		c := s.c
		s.c = nil
		if cerr := c.Close(); cerr != nil && s.err == nil {
			s.err = cerr
		}
	}
	return Event{}, false, s.err
}

// Close releases the source's file handle, if it has one; abandoning a
// partially consumed source without Close leaks the handle. Idempotent.
func (s *binarySource) Close() error {
	s.done = true
	if s.c != nil {
		c := s.c
		s.c = nil
		return c.Close()
	}
	return nil
}

// fill folds the consumed prefix into the CRC, slides the undecoded
// tail to the front of the window, and reads until at least need bytes
// are available or the stream ends (eof or a pending read error).
func (s *binarySource) fill(need int) {
	if s.lim-s.pos >= need {
		return
	}
	if s.hashed < s.pos {
		s.crc = crc32.Update(s.crc, castagnoli, s.buf[s.hashed:s.pos])
		s.hashed = s.pos
	}
	if s.pos > 0 {
		copy(s.buf, s.buf[s.pos:s.lim])
		s.lim -= s.pos
		s.pos = 0
		s.hashed = 0
	}
	for s.lim-s.pos < need && !s.eof && s.pend == nil {
		n, err := s.r.Read(s.buf[s.lim:])
		s.lim += n
		switch {
		case err == io.EOF:
			s.eof = true
		case err != nil:
			s.pend = err
		case n == 0:
			s.pend = io.ErrNoProgress
		}
	}
}

// byteVarint reads the one-byte uvarint at the head of b, the encoding
// of most fields of most events: n is 1, or 0 when b is empty or the
// value is longer. It makes no call, so it inlines into decode; a longer
// value falls through to binary.Uvarint.
func byteVarint(b []byte) (v uint64, n int) {
	if len(b) > 0 && b[0] < 0x80 {
		return uint64(b[0]), 1
	}
	return 0, 0
}

// unzigzag maps a zigzag-encoded uvarint back to its signed value, as
// binary.Varint does.
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// decode decodes the event at the head of the window into e, refilling
// the window first when it holds less than one worst-case event. ok
// false with a nil error is the clean end of the stream (trailer count
// and checksum verified); ok false with an error is terminal, and the
// caller latches it.
//
// It is the decoder's one per-event pass, shared by Next and NextBatch.
// Every varint is read in line, the one-byte case first and then
// binary.Uvarint (which inlines too), and every field is range-checked
// in line, in field order, so the first bad field names the error; only
// the window refill and the error builders are calls. Since the window
// holds a whole event or the stream's last bytes, a varint that runs off
// its end (n == 0) is truncation, or a pending read error.
func (s *binarySource) decode(e *Event) (ok bool, err error) {
	if s.lim-s.pos < maxEventLen && !s.eof && s.pend == nil {
		s.fill(maxEventLen)
	}
	b := s.buf[s.pos:s.lim]
	if len(b) == 0 {
		return false, s.endErr()
	}
	kind := Kind(b[0])
	if kind > KindFree {
		if b[0] == endMarker {
			s.pos++
			return false, s.trailer()
		}
		return false, s.kindErr(b[0])
	}
	id, n := byteVarint(b[1:])
	if n == 0 {
		id, n = binary.Uvarint(b[1:])
	}
	if n <= 0 {
		return false, s.varintErr("id", n)
	}
	i := 1 + n
	if int64(id) < 0 {
		return false, s.idErr(id)
	}
	var size, u uint64
	var tag int64
	if kind == KindAlloc {
		size, n = byteVarint(b[i:])
		if n == 0 {
			size, n = binary.Uvarint(b[i:])
		}
		if n <= 0 {
			return false, s.varintErr("size", n)
		}
		i += n
		if size-1 >= math.MaxInt64 { // 0, or wraps negative
			return false, s.sizeErr(size)
		}
		u, n = byteVarint(b[i:])
		if n == 0 {
			u, n = binary.Uvarint(b[i:])
		}
		if n <= 0 {
			return false, s.varintErr("tag", n)
		}
		i += n
		if tag = unzigzag(u); tag != int64(int32(tag)) {
			return false, s.int32Err("tag", tag)
		}
	}
	u, n = byteVarint(b[i:])
	if n == 0 {
		u, n = binary.Uvarint(b[i:])
	}
	if n <= 0 {
		return false, s.varintErr("phase", n)
	}
	i += n
	phase := unzigzag(u)
	if phase != int64(int32(phase)) {
		return false, s.int32Err("phase", phase)
	}
	u, n = byteVarint(b[i:])
	if n == 0 {
		u, n = binary.Uvarint(b[i:])
	}
	if n <= 0 {
		return false, s.varintErr("tick", n)
	}
	// dst buffers are reused across batches: every field is stored, so a
	// free never carries a previous event's Size or Tag. Field by field,
	// not as one composite literal, which the compiler builds on the
	// stack and copies out through a partial-store-forwarding stall.
	tick := s.last + unzigzag(u)
	e.Kind, e.ID, e.Size, e.Tag, e.Phase, e.Tick = kind, int64(id), int64(size), int32(tag), int32(phase), tick
	s.last = tick
	s.pos += i + n
	s.i++
	return true, nil
}

// The error builders stay out of line so their formatting never weighs
// on decode.

// endErr is the error for a window that ran dry before the end marker.
//
//go:noinline
func (s *binarySource) endErr() error {
	if s.pend != nil {
		return fmt.Errorf("trace: event %d: %w", s.i, s.pend)
	}
	return fmt.Errorf("trace: event %d: truncated stream (missing end marker): %w", s.i, io.ErrUnexpectedEOF)
}

// varintErr is the error for the varint of field that failed with
// length n. It names the event and the field.
//
//go:noinline
func (s *binarySource) varintErr(field string, n int) error {
	return fmt.Errorf("trace: event %d: %s: %w", s.i, field, s.varintCause(n))
}

// varintCause is why a varint failed with length n: overflow when
// negative, otherwise the window ran out mid-event (truncation, or a
// pending read error).
func (s *binarySource) varintCause(n int) error {
	if n < 0 {
		return errVarintOverflow
	}
	if s.pend != nil {
		return s.pend
	}
	return io.ErrUnexpectedEOF
}

// kindErr is the error for a kind byte that is neither an event kind
// nor the end marker.
//
//go:noinline
func (s *binarySource) kindErr(kb byte) error {
	return fmt.Errorf("trace: event %d: bad kind %d", s.i, kb)
}

// idErr is the error for an ID above MaxInt64, which would wrap to a
// negative Event.ID.
//
//go:noinline
func (s *binarySource) idErr(v uint64) error {
	return fmt.Errorf("trace: event %d: id %d overflows int64", s.i, v)
}

// sizeErr is the error for an allocation size outside [1, MaxInt64]:
// larger sizes would wrap negative, and zero-size allocations are
// invalid in any trace (Validate rejects them), so a streaming replay
// can trust decoded events.
//
//go:noinline
func (s *binarySource) sizeErr(v uint64) error {
	if v == 0 {
		return fmt.Errorf("trace: event %d: alloc size 0", s.i)
	}
	return fmt.Errorf("trace: event %d: size %d overflows int64", s.i, v)
}

// int32Err is the error for a tag or phase outside int32.
//
//go:noinline
func (s *binarySource) int32Err(field string, v int64) error {
	return fmt.Errorf("trace: event %d: %s %d overflows int32", s.i, field, v)
}

// trailer verifies the end of the stream: the event count must match
// what was decoded, and the CRC-32C (which covers every byte before it
// and never hashes itself) must match the running checksum.
func (s *binarySource) trailer() error {
	count, n := binary.Uvarint(s.buf[s.pos:s.lim])
	if n <= 0 {
		return fmt.Errorf("trace: reading trailer count: %w", s.varintCause(n))
	}
	s.pos += n
	if count != s.i {
		return fmt.Errorf("trace: trailer count %d, decoded %d events (truncated or corrupt stream)", count, s.i)
	}
	// Fold everything consumed so far before touching the CRC bytes, so
	// they stay out of their own checksum.
	if s.hashed < s.pos {
		s.crc = crc32.Update(s.crc, castagnoli, s.buf[s.hashed:s.pos])
		s.hashed = s.pos
	}
	s.fill(crcLen)
	if s.lim-s.pos < crcLen {
		err := error(io.ErrUnexpectedEOF)
		if s.pend != nil {
			err = s.pend
		}
		return fmt.Errorf("trace: reading checksum: %w", err)
	}
	got := binary.LittleEndian.Uint32(s.buf[s.pos : s.pos+crcLen])
	s.pos += crcLen
	s.hashed = s.pos
	if got != s.crc {
		return fmt.Errorf("trace: checksum mismatch: trailer %08x, stream %08x (corrupt trace)", got, s.crc)
	}
	return nil
}

func (s *binarySource) Next() (Event, bool, error) {
	if s.done {
		return Event{}, false, s.err
	}
	var e Event
	ok, err := s.decode(&e)
	if !ok {
		return s.finish(err)
	}
	return e, true, nil
}

// NextBatch implements BatchSource: it decodes events straight out of
// the read window into dst, refilling the window whenever less than one
// worst-case event is left in it. Events decoded before a terminal error
// are returned alongside it.
func (s *binarySource) NextBatch(dst []Event) (int, error) {
	if s.done {
		return 0, s.err
	}
	n := 0
	//dmm:hotloop
	for n < len(dst) {
		ok, err := s.decode(&dst[n])
		if !ok {
			_, _, _ = s.finish(err)
			return n, s.err
		}
		n++
	}
	return n, nil
}

// File is an Opener over an on-disk DMMT2 trace: every Open starts an
// independent streaming pass, so exploration can replay the file once
// per candidate — concurrently — without ever materializing the events.
type File struct {
	path string
	name string
	opts FileOpts
}

// FileOpts customizes how OpenFileWith (and the *File it returns) reach
// the underlying file — the seam fault-injection tests and exotic
// storage backends hook into.
type FileOpts struct {
	// Open replaces os.Open for both the header probe and every
	// (*File).Open pass. Nil means os.Open.
	Open func(path string) (io.ReadCloser, error)
}

func (o FileOpts) open(path string) (io.ReadCloser, error) {
	if o.Open != nil {
		return o.Open(path)
	}
	return os.Open(path)
}

// OpenFile probes path's header and returns a File.
func OpenFile(path string) (*File, error) { return OpenFileWith(path, FileOpts{}) }

// OpenFileWith is OpenFile with an explicit seam: opts.Open replaces
// os.Open for every pass, not just the probe.
func OpenFileWith(path string, opts FileOpts) (*File, error) {
	fh, err := opts.open(path)
	if err != nil {
		return nil, err
	}
	defer func() { _ = fh.Close() }() // header probe: read-only pass
	src, err := DecodeBinarySource(fh)
	if err != nil {
		return nil, fmt.Errorf("trace: %s: %w", path, err)
	}
	return &File{path: path, name: src.Name(), opts: opts}, nil
}

// Name returns the trace name recorded in the file header.
func (f *File) Name() string { return f.name }

// Open implements Opener: it opens a fresh handle on the file and
// returns a streaming source over it. The source closes the handle when
// the stream ends (exhaustion or decode error); abandon it early with
// Close. Open is safe for concurrent use, and never leaks a handle on
// an error path.
func (f *File) Open() (Source, error) {
	fh, err := f.opts.open(f.path)
	if err != nil {
		return nil, err
	}
	src, err := DecodeBinarySource(fh)
	if err != nil {
		_ = fh.Close() // the decode error is the one to surface
		return nil, fmt.Errorf("trace: %s: %w", f.path, err)
	}
	src.(*binarySource).c = fh
	return src, nil
}
