package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
)

// DecodeBinarySource returns a Source that decodes a DMMT2 trace from r
// event by event. The header is read eagerly — a stream that is not a
// DMMT2 trace fails here, not on the first Next — and decoding then
// keeps O(1) memory beyond the read window, so replaying straight off
// the source needs memory proportional to the application's live set,
// not the trace length. The returned source is also a BatchSource and a
// Positioner.
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
		off:  br.n,
	}, nil
}

// crcReader reads the stream header: it folds every byte it yields into
// a running CRC-32C, which the body decoder continues, and counts them,
// which gives the body's stream offset. It implements io.Reader and
// io.ByteReader over the buffered stream.
type crcReader struct {
	br  *bufio.Reader
	crc uint32
	n   int64
	one [1]byte
}

func (r *crcReader) ReadByte() (byte, error) {
	b, err := r.br.ReadByte()
	if err != nil {
		return b, err
	}
	r.one[0] = b
	r.crc = crc32.Update(r.crc, castagnoli, r.one[:1])
	r.n++
	return b, nil
}

func (r *crcReader) Read(p []byte) (int, error) {
	n, err := r.br.Read(p)
	r.crc = crc32.Update(r.crc, castagnoli, p[:n])
	r.n += int64(n)
	return n, err
}

// batchWindow is the size of the DMMT2 decoder's read window. One block
// read refills ~1300 events' worth of encoded bytes, so the per-event
// cost is slice arithmetic, not reader calls.
const batchWindow = 64 << 10

// maxEventLen is the worst-case encoded size of one DMMT2 event: the
// kind byte plus five maximal varints. When at least this many bytes
// are windowed, a full event decodes without any length checks beyond
// the varint decoders' own.
const maxEventLen = 1 + 5*binary.MaxVarintLen64

var errVarintOverflow = errors.New("trace: varint overflows 64 bits")

// binarySource streams a DMMT2 body: zigzag varints for the signed
// fields, then a 0xFF end marker followed by the event count, which
// must match what was decoded (truncation check), and the CRC-32C of
// every preceding byte (corruption check).
//
// It decodes from a block-buffered window — varints are read with
// binary.Uvarint over the byte slice, and the running CRC-32C is folded
// over consumed ranges chunk-at-a-time on refill — instead of paying an
// interface call and a one-byte hash update per byte. The window makes
// it a natural BatchSource; Next decodes one event from the same window
// for consumers that need the one-event form.
type binarySource struct {
	name    string
	r       *bufio.Reader
	buf     []byte // read window
	pos     int    // next undecoded byte in buf
	lim     int    // buf[pos:lim] is read but not yet decoded
	hashed  int    // bytes of buf already folded into crc (<= pos)
	crc     uint32 // CRC-32C over every consumed byte, header included
	off     int64  // stream offset of buf[0]
	i       uint64 // events decoded so far
	last    int64  // previous event's tick
	eof     bool
	pend    error // read error surfaced only after buffered events drain
	skipCRC bool  // mid-stream pass: the prefix was never hashed
	done    bool
	err     error     // latched: a corrupt stream stays corrupt
	c       io.Closer // closed when the stream ends (see OpenFile)
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
		s.off += int64(s.pos)
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

// uvarint decodes an unsigned varint at the window position. The caller
// has ensured the window holds a full event or the final bytes of the
// stream, so running out of bytes means truncation (or a pending read
// error).
func (s *binarySource) uvarint() (uint64, error) {
	v, n := binary.Uvarint(s.buf[s.pos:s.lim])
	if n > 0 {
		s.pos += n
		return v, nil
	}
	if n < 0 {
		return 0, errVarintOverflow
	}
	if s.pend != nil {
		return 0, s.pend
	}
	return 0, io.ErrUnexpectedEOF
}

// varint is uvarint for the zigzag-encoded signed fields.
func (s *binarySource) varint() (int64, error) {
	v, n := binary.Varint(s.buf[s.pos:s.lim])
	if n > 0 {
		s.pos += n
		return v, nil
	}
	if n < 0 {
		return 0, errVarintOverflow
	}
	if s.pend != nil {
		return 0, s.pend
	}
	return 0, io.ErrUnexpectedEOF
}

// step decodes one event into e. ok false with a nil error is the clean
// end of the stream (trailer count and checksum verified); ok false
// with an error is terminal. The caller latches the terminal state.
func (s *binarySource) step(e *Event) (ok bool, err error) {
	if s.lim-s.pos < maxEventLen && !s.eof && s.pend == nil {
		s.fill(maxEventLen)
	}
	if s.pos == s.lim {
		if s.pend != nil {
			return false, fmt.Errorf("trace: event %d: %w", s.i, s.pend)
		}
		return false, fmt.Errorf("trace: event %d: truncated stream (missing end marker): %w", s.i, io.ErrUnexpectedEOF)
	}
	kb := s.buf[s.pos]
	if kb == endMarker {
		s.pos++
		return false, s.trailer()
	}
	// dst buffers are reused across batches: rebuild the event from
	// scratch so a free never carries a previous event's Size or Tag.
	*e = Event{Kind: Kind(kb)}
	if e.Kind != KindAlloc && e.Kind != KindFree {
		return false, fmt.Errorf("trace: event %d: bad kind %d", s.i, kb)
	}
	s.pos++
	id, err := s.uvarint()
	if err != nil {
		return false, err
	}
	if e.ID, err = checkID(s.i, id); err != nil {
		return false, err
	}
	if e.Kind == KindAlloc {
		size, err := s.uvarint()
		if err != nil {
			return false, err
		}
		if e.Size, err = checkSize(s.i, size); err != nil {
			return false, err
		}
		tag, err := s.varint()
		if err != nil {
			return false, err
		}
		if e.Tag, err = checkInt32(s.i, "tag", tag); err != nil {
			return false, err
		}
	}
	phase, err := s.varint()
	if err != nil {
		return false, err
	}
	if e.Phase, err = checkInt32(s.i, "phase", phase); err != nil {
		return false, err
	}
	dt, err := s.varint()
	if err != nil {
		return false, err
	}
	e.Tick = s.last + dt
	s.last = e.Tick
	s.i++
	return true, nil
}

// trailer verifies the end of the stream: the event count must match
// what was decoded, and the CRC-32C (which covers every byte before it
// and never hashes itself) must match the running checksum.
func (s *binarySource) trailer() error {
	count, err := s.uvarint()
	if err != nil {
		return fmt.Errorf("trace: reading trailer count: %w", err)
	}
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
	if !s.skipCRC && got != s.crc {
		return fmt.Errorf("trace: checksum mismatch: trailer %08x, stream %08x (corrupt trace)", got, s.crc)
	}
	return nil
}

func (s *binarySource) Next() (Event, bool, error) {
	if s.done {
		return Event{}, false, s.err
	}
	var e Event
	ok, err := s.step(&e)
	if !ok {
		return s.finish(err)
	}
	return e, true, nil
}

// NextBatch implements BatchSource: it decodes events straight out of
// the read window into dst. Events decoded before a terminal error are
// returned alongside it.
func (s *binarySource) NextBatch(dst []Event) (int, error) {
	if s.done {
		return 0, s.err
	}
	n := 0
	//dmm:hotloop
	for n < len(dst) {
		ok, err := s.step(&dst[n])
		if !ok {
			_, _, _ = s.finish(err)
			return n, s.err
		}
		n++
	}
	return n, nil
}

// Pos implements Positioner: it reports the resume point just before
// the next undecoded event.
func (s *binarySource) Pos() Pos {
	return Pos{Off: s.off + int64(s.pos), Index: s.i, Tick: s.last}
}

// checkInt32 range-checks a zigzag-decoded int32 field.
func checkInt32(i uint64, field string, v int64) (int32, error) {
	if v < math.MinInt32 || v > math.MaxInt32 {
		return 0, fmt.Errorf("trace: event %d: %s %d overflows int32", i, field, v)
	}
	return int32(v), nil
}

// File is an Opener over an on-disk DMMT2 trace: every Open starts an
// independent streaming pass, so exploration can replay the file once
// per candidate — concurrently — without ever materializing the events.
type File struct {
	path string
	name string
	opts FileOpts
}

// OpenFile probes path's header and returns a File. Transient open and probe failures (see
// IsTransient) are retried under DefaultRetry — a long exploration
// should not die to one interrupted syscall; use OpenFileWith to tune
// or disable that.
func OpenFile(path string) (*File, error) {
	return OpenFileWith(path, FileOpts{Retry: DefaultRetry})
}

// OpenFileWith is OpenFile with explicit seams: opts.Open replaces
// os.Open (for every pass, not just the probe) and opts.Retry bounds
// how transient failures are retried.
func OpenFileWith(path string, opts FileOpts) (*File, error) {
	f := &File{path: path, opts: opts}
	err := opts.Retry.retry(func() error {
		fh, err := opts.open(path)
		if err != nil {
			return err
		}
		defer func() { _ = fh.Close() }() // header probe: read-only pass
		src, err := DecodeBinarySource(fh)
		if err != nil {
			return fmt.Errorf("trace: %s: %w", path, err)
		}
		f.name = src.Name()
		return nil
	})
	if err != nil {
		return nil, err
	}
	return f, nil
}

// Name returns the trace name recorded in the file header.
func (f *File) Name() string { return f.name }

// Open implements Opener: it opens a fresh handle on the file and
// returns a streaming source over it. The source closes the handle when
// the stream ends (exhaustion or decode error); abandon it early with
// Close. Open is safe for concurrent use. Transient open and header
// failures retry under the File's policy (see OpenFileWith); handles are
// never leaked on an error path.
func (f *File) Open() (Source, error) {
	var src Source
	err := f.opts.Retry.retry(func() error {
		fh, err := f.opts.open(f.path)
		if err != nil {
			return err
		}
		s, err := DecodeBinarySource(fh)
		if err != nil {
			_ = fh.Close() // the decode error is the one to surface
			return fmt.Errorf("trace: %s: %w", f.path, err)
		}
		s.(*binarySource).c = fh
		src = s
		return nil
	})
	if err != nil {
		return nil, err
	}
	return src, nil
}

// OpenAt implements OpenerAt: it opens a fresh handle
// and resumes decoding at p, which must have come from the Pos of a
// source over the same file. The pass yields exactly the events after
// p; the trailer's event count is still verified (Pos carries the
// index), but the checksum is not — the bytes before p were never read,
// so the caller is expected to have verified the file with one full
// pass first. Seekable handles seek; others discard p.Off bytes.
func (f *File) OpenAt(p Pos) (Source, error) {
	var src Source
	err := f.opts.Retry.retry(func() error {
		fh, err := f.opts.open(f.path)
		if err != nil {
			return err
		}
		r := bufio.NewReader(fh)
		if sk, ok := fh.(io.Seeker); ok {
			if _, err := sk.Seek(p.Off, io.SeekStart); err != nil {
				_ = fh.Close()
				return fmt.Errorf("trace: %s: seeking to %d: %w", f.path, p.Off, err)
			}
			r.Reset(fh)
		} else if _, err := io.CopyN(io.Discard, r, p.Off); err != nil {
			_ = fh.Close()
			return fmt.Errorf("trace: %s: skipping to offset %d: %w", f.path, p.Off, err)
		}
		src = &binarySource{
			name:    f.name,
			r:       r,
			buf:     make([]byte, batchWindow),
			off:     p.Off,
			i:       p.Index,
			last:    p.Tick,
			skipCRC: true,
			c:       fh,
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return src, nil
}
