package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// The reference decoder: DMMT2's event body decoded field by field, one
// checked call per varint and per range check. It is the oracle the
// streaming decoder is held to — same events, same accept/reject
// verdict, same error text after the same number of events — by the
// fuzzers and by TestDecodeMatchesReference. It shares the header
// decode and the window refill (fill) with the real decoder and nothing
// per event or in the trailer.

// refUvarint decodes an unsigned varint at the window position. The
// caller has ensured the window holds a full event or the final bytes
// of the stream, so running out of bytes means truncation (or a pending
// read error).
func (s *binarySource) refUvarint() (uint64, error) {
	v, n := binary.Uvarint(s.buf[s.pos:s.lim])
	if n > 0 {
		s.pos += n
		return v, nil
	}
	if n < 0 {
		return 0, errors.New("varint overflows 64 bits")
	}
	if s.pend != nil {
		return 0, s.pend
	}
	return 0, io.ErrUnexpectedEOF
}

// refVarint is refUvarint for the zigzag-encoded signed fields.
func (s *binarySource) refVarint() (int64, error) {
	v, n := binary.Varint(s.buf[s.pos:s.lim])
	if n > 0 {
		s.pos += n
		return v, nil
	}
	if n < 0 {
		return 0, errors.New("varint overflows 64 bits")
	}
	if s.pend != nil {
		return 0, s.pend
	}
	return 0, io.ErrUnexpectedEOF
}

func refCheckID(i uint64, v uint64) (int64, error) {
	if v > 1<<63-1 {
		return 0, fmt.Errorf("trace: event %d: id %d overflows int64", i, v)
	}
	return int64(v), nil
}

func refCheckSize(i uint64, v uint64) (int64, error) {
	if v > 1<<63-1 {
		return 0, fmt.Errorf("trace: event %d: size %d overflows int64", i, v)
	}
	if v == 0 {
		return 0, fmt.Errorf("trace: event %d: alloc size 0", i)
	}
	return int64(v), nil
}

func refCheckInt32(i uint64, field string, v int64) (int32, error) {
	if v < math.MinInt32 || v > math.MaxInt32 {
		return 0, fmt.Errorf("trace: event %d: %s %d overflows int32", i, field, v)
	}
	return int32(v), nil
}

// refFieldErr names the event and the field whose varint failed.
func (s *binarySource) refFieldErr(field string, err error) error {
	return fmt.Errorf("trace: event %d: %s: %w", s.i, field, err)
}

// refStep decodes one event into e: ok false with a nil error is the
// clean end of the stream, ok false with an error is terminal.
func (s *binarySource) refStep(e *Event) (ok bool, err error) {
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
		return false, s.refTrailer()
	}
	*e = Event{Kind: Kind(kb)}
	if e.Kind != KindAlloc && e.Kind != KindFree {
		return false, fmt.Errorf("trace: event %d: bad kind %d", s.i, kb)
	}
	s.pos++
	id, err := s.refUvarint()
	if err != nil {
		return false, s.refFieldErr("id", err)
	}
	if e.ID, err = refCheckID(s.i, id); err != nil {
		return false, err
	}
	if e.Kind == KindAlloc {
		size, err := s.refUvarint()
		if err != nil {
			return false, s.refFieldErr("size", err)
		}
		if e.Size, err = refCheckSize(s.i, size); err != nil {
			return false, err
		}
		tag, err := s.refVarint()
		if err != nil {
			return false, s.refFieldErr("tag", err)
		}
		if e.Tag, err = refCheckInt32(s.i, "tag", tag); err != nil {
			return false, err
		}
	}
	phase, err := s.refVarint()
	if err != nil {
		return false, s.refFieldErr("phase", err)
	}
	if e.Phase, err = refCheckInt32(s.i, "phase", phase); err != nil {
		return false, err
	}
	dt, err := s.refVarint()
	if err != nil {
		return false, s.refFieldErr("tick", err)
	}
	e.Tick = s.last + dt
	s.last = e.Tick
	s.i++
	return true, nil
}

// refTrailer verifies the trailer count and the CRC-32C.
func (s *binarySource) refTrailer() error {
	count, err := s.refUvarint()
	if err != nil {
		return fmt.Errorf("trace: reading trailer count: %w", err)
	}
	if count != s.i {
		return fmt.Errorf("trace: trailer count %d, decoded %d events (truncated or corrupt stream)", count, s.i)
	}
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
	if got != s.crc {
		return fmt.Errorf("trace: checksum mismatch: trailer %08x, stream %08x (corrupt trace)", got, s.crc)
	}
	return nil
}

// refDecode drains r with the reference decoder. err is the header's
// or the body's terminal error; events holds everything decoded before
// it.
func refDecode(r io.Reader) (name string, events []Event, err error) {
	src, err := DecodeBinarySource(r)
	if err != nil {
		return "", nil, err
	}
	s := src.(*binarySource)
	for {
		var e Event
		ok, err := s.refStep(&e)
		if !ok {
			return s.name, events, err
		}
		events = append(events, e)
	}
}

// decodeOutcome is one drain of a decoder: what it accepted and how it
// stopped.
type decodeOutcome struct {
	name   string
	events []Event
	err    error
}

// sameOutcome reports how got differs from the reference want: the
// verdict, the error text, the number of events before the stop and
// the events themselves must all match.
func sameOutcome(got, want decodeOutcome) error {
	if (got.err == nil) != (want.err == nil) {
		return fmt.Errorf("verdict: err %s, reference err %s", errText(got.err), errText(want.err))
	}
	if got.err != nil && got.err.Error() != want.err.Error() {
		return fmt.Errorf("error %q, reference %q", got.err.Error(), want.err.Error())
	}
	if got.name != want.name {
		return fmt.Errorf("name %q, reference %q", got.name, want.name)
	}
	if len(got.events) != len(want.events) {
		return fmt.Errorf("%d events before the stop, reference %d", len(got.events), len(want.events))
	}
	if len(want.events) > 0 && !reflect.DeepEqual(got.events, want.events) {
		for i := range want.events {
			if got.events[i] != want.events[i] {
				return fmt.Errorf("event %d: %+v, reference %+v", i, got.events[i], want.events[i])
			}
		}
	}
	return nil
}

// errText is err's message, or "<nil>".
func errText(err error) string {
	if err == nil {
		return "<nil>"
	}
	return err.Error()
}

// decodeWith drains a fresh decoder over r: through Next when batch is
// 0, through NextBatch with a batch-sized buffer otherwise.
func decodeWith(t *testing.T, r io.Reader, batch int) decodeOutcome {
	t.Helper()
	src, err := DecodeBinarySource(r)
	if err != nil {
		return decodeOutcome{err: err}
	}
	out := decodeOutcome{name: src.Name()}
	if batch == 0 {
		out.events, out.err = drainNext(t, src)
	} else {
		out.events, out.err = drainBatch(t, src.(BatchSource), batch)
	}
	return out
}

// rawEvent is one DMMT2 event as encoded fields, so a test can corrupt
// one field and re-encode the stream around it. fields holds the kind
// byte, then the id, for allocations the size and tag, then the phase
// and the tick delta, each as its varint bytes.
type rawEvent [][]byte

const (
	fKind = iota
	fID
	fSize // alloc events only
	fTag  // alloc events only
)

// phase and tick delta sit after the alloc-only fields.
func (r rawEvent) fPhase() int { return len(r) - 2 }
func (r rawEvent) fDelta() int { return len(r) - 1 }

func (r rawEvent) alloc() bool { return len(r) == 6 }

func (r rawEvent) with(field int, b []byte) rawEvent {
	c := append(rawEvent(nil), r...)
	c[field] = b
	return c
}

func uv(v uint64) []byte { return binary.AppendUvarint(nil, v) }
func sv(v int64) []byte  { return binary.AppendVarint(nil, v) }

func rawEvents(tr *Trace) []rawEvent {
	var out []rawEvent
	var last int64
	for _, e := range tr.Events {
		r := rawEvent{{byte(e.Kind)}, uv(uint64(e.ID))}
		if e.Kind == KindAlloc {
			r = append(r, uv(uint64(e.Size)), sv(int64(e.Tag)))
		}
		r = append(r, sv(int64(e.Phase)), sv(e.Tick-last))
		last = e.Tick
		out = append(out, r)
	}
	return out
}

// rawStream encodes name and evs as a DMMT2 stream with the given
// trailer count and a correct checksum over everything before it.
func rawStream(name string, evs []rawEvent, count uint64) []byte {
	b := append([]byte(binaryMagic), uv(uint64(len(name)))...)
	b = append(b, name...)
	for _, r := range evs {
		for _, f := range r {
			b = append(b, f...)
		}
	}
	b = append(b, endMarker)
	b = append(b, uv(count)...)
	return binary.LittleEndian.AppendUint32(b, crc32.Checksum(b, castagnoli))
}

// longTrace is a valid trace whose encoding spans more than two read
// windows, with multi-byte and negative varints in every field.
func longTrace() *Trace {
	rng := rand.New(rand.NewSource(7))
	tr := &Trace{Name: "long"}
	var tick, next int64
	var live []int64
	for len(tr.Events) < 12000 {
		tick += rng.Int63n(1<<uint(rng.Intn(24))) - 2
		tag := int32(rng.Int63n(1<<uint(rng.Intn(32)))) - 1<<10
		phase := int32(rng.Intn(300)) - 100
		if len(live) == 0 || rng.Intn(2) == 0 {
			size := rng.Int63n(1<<uint(rng.Intn(40))) + 1
			tr.Events = append(tr.Events, Event{Kind: KindAlloc, ID: next, Size: size, Tag: tag, Phase: phase, Tick: tick})
			live = append(live, next)
			next += 1 + rng.Int63n(1<<uint(rng.Intn(20)))
		} else {
			j := rng.Intn(len(live))
			tr.Events = append(tr.Events, Event{Kind: KindFree, ID: live[j], Phase: phase, Tick: tick})
			live[j] = live[len(live)-1]
			live = live[:len(live)-1]
		}
	}
	return tr
}

// errAfter yields its data and then fails with errRead instead of
// io.EOF: a read error arriving at a given stream offset.
type errAfter struct{ r *bytes.Reader }

var errRead = errors.New("injected read error")

func (e errAfter) Read(p []byte) (int, error) {
	n, _ := e.r.Read(p)
	if n == 0 {
		return 0, errRead
	}
	return n, nil
}

// TestDecodeMatchesReference corrupts a stream longer than the read
// window at its first, a middle and its last event, and cuts it at every
// byte of its last two events and the trailer; on every input the
// decoder, through Next and through NextBatch at several buffer sizes,
// must agree with the reference decoder, and the reference must reject
// every corrupted input.
func TestDecodeMatchesReference(t *testing.T) {
	tr := longTrace()
	evs := rawEvents(tr)
	n := uint64(len(evs))
	valid := rawStream(tr.Name, evs, n)
	if len(valid) < 2*batchWindow {
		t.Fatalf("stream is %d bytes, want more than two %d-byte windows", len(valid), batchWindow)
	}
	var enc bytes.Buffer
	if err := tr.EncodeBinary2(&enc); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(enc.Bytes(), valid) {
		t.Fatal("rawStream's encoding differs from the Encoder's")
	}

	type input struct {
		name string
		data []byte
		fail bool // the read fails at the end of data instead of reaching EOF
	}
	var inputs []input
	corrupt := func(name string, at int, field int, b []byte) {
		c := append([]rawEvent(nil), evs...)
		c[at] = c[at].with(field, b)
		inputs = append(inputs, input{name: fmt.Sprintf("%s/event%d", name, at), data: rawStream(tr.Name, c, n)})
	}
	overflows := [][]byte{
		bytes.Repeat([]byte{0xff}, 10),               // tenth byte > 1
		append(bytes.Repeat([]byte{0x80}, 10), 0x01), // runs past ten bytes
		append(bytes.Repeat([]byte{0xff}, 9), 0x02),
	}
	lastAlloc := len(evs) - 1
	for !evs[lastAlloc].alloc() {
		lastAlloc--
	}
	for _, at := range []int{0, len(evs) / 2, len(evs) - 1} {
		ev := evs[at]
		for _, kind := range []byte{2, 3, 0x7f, 0x80, 0xfe} {
			corrupt(fmt.Sprintf("kind%d", kind), at, fKind, []byte{kind})
		}
		for i, o := range overflows {
			corrupt(fmt.Sprintf("overflow%d/id", i), at, fID, o)
			corrupt(fmt.Sprintf("overflow%d/phase", i), at, ev.fPhase(), o)
			corrupt(fmt.Sprintf("overflow%d/delta", i), at, ev.fDelta(), o)
		}
		corrupt("id>maxint64", at, fID, uv(1<<63))
		corrupt("id=maxuint64", at, fID, uv(math.MaxUint64))
		corrupt("phase>maxint32", at, ev.fPhase(), sv(math.MaxInt32+1))
		corrupt("phase<minint32", at, ev.fPhase(), sv(math.MinInt32-1))
		// The alloc-only fields, on the nearest allocation at or before.
		a := at
		for !evs[a].alloc() {
			a--
		}
		for i, o := range overflows {
			corrupt(fmt.Sprintf("overflow%d/size", i), a, fSize, o)
			corrupt(fmt.Sprintf("overflow%d/tag", i), a, fTag, o)
		}
		corrupt("size0", a, fSize, uv(0))
		corrupt("size>maxint64", a, fSize, uv(1<<63))
		corrupt("tag>maxint32", a, fTag, sv(math.MaxInt32+1))
		corrupt("tag<minint32", a, fTag, sv(math.MinInt32-1))
		corrupt("tag=minint64", a, fTag, sv(math.MinInt64))
	}
	for _, c := range []uint64{0, n - 1, n + 1, 1 << 40} {
		inputs = append(inputs, input{name: fmt.Sprintf("count%d", c), data: rawStream(tr.Name, evs, c)})
	}
	for i := 1; i <= crcLen; i++ {
		d := bytes.Clone(valid)
		d[len(d)-i] ^= 0x01
		inputs = append(inputs, input{name: fmt.Sprintf("crcbyte%d", crcLen-i), data: d})
	}
	body := bytes.Clone(valid)
	body[len(body)/2] ^= 0x10
	inputs = append(inputs, input{name: "bodybit", data: body})
	tail := 0
	for _, r := range evs[len(evs)-2:] {
		for _, f := range r {
			tail += len(f)
		}
	}
	trailer := 1 + len(uv(n)) + crcLen
	for cut := len(valid) - trailer - tail; cut < len(valid); cut++ {
		inputs = append(inputs,
			input{name: fmt.Sprintf("cut%d", cut), data: valid[:cut]},
			input{name: fmt.Sprintf("cut%d/readerr", cut), data: valid[:cut], fail: true})
	}

	reader := func(in input) io.Reader {
		if in.fail {
			return errAfter{bytes.NewReader(in.data)}
		}
		return bytes.NewReader(in.data)
	}
	check := func(in input, wantErr bool) {
		var want decodeOutcome
		want.name, want.events, want.err = refDecode(reader(in))
		if wantErr && want.err == nil {
			t.Fatalf("%s: the reference decoder accepted a corrupted stream", in.name)
		}
		if !wantErr && want.err != nil {
			t.Fatalf("%s: the reference decoder rejected a valid stream: %v", in.name, want.err)
		}
		for _, batch := range []int{0, 1, 7, BatchLen} {
			if err := sameOutcome(decodeWith(t, reader(in), batch), want); err != nil {
				t.Errorf("%s, batch %d: %v", in.name, batch, err)
			}
		}
	}

	check(input{name: "valid", data: valid}, false)
	_, got, _ := refDecode(bytes.NewReader(valid))
	if !reflect.DeepEqual(got, tr.Events) {
		t.Fatal("the reference decoder changed the valid stream's events")
	}
	for _, in := range inputs {
		check(in, true)
	}
}
