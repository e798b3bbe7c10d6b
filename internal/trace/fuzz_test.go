package trace

import (
	"bytes"
	"reflect"
	"testing"
)

// FuzzDecodeBinary drives both DMMT2 decoders over arbitrary input. The
// seeded corpus covers valid encodings (including the signed corners),
// truncations, a stripped checksum, a foreign magic and plain garbage; `go test` replays the seeds,
// `go test -fuzz=FuzzDecodeBinary` explores from them.
//
// Properties checked on every input:
//   - the decoders never panic and never return events with out-of-range
//     fields (non-positive alloc sizes, negative IDs);
//   - DecodeBinarySource and DecodeBinary agree with the reference
//     decoder (refdecode_test.go): same accept/reject verdict, same
//     error text after the same events, and on accept the same name and
//     events (differential);
//   - anything that decodes re-encodes back to the same events (round
//     trip).
func FuzzDecodeBinary(f *testing.F) {
	seedTraces := []*Trace{
		{Name: "empty"},
		sampleTrace(),
		signedTrace(1),
		signedTrace(2),
	}
	for _, tr := range seedTraces {
		var v2 bytes.Buffer
		if err := tr.EncodeBinary2(&v2); err != nil {
			f.Fatal(err)
		}
		b := v2.Bytes()
		f.Add(b)
		f.Add(b[:len(b)/2])      // truncated
		f.Add(b[:len(b)-1])      // missing trailer byte
		f.Add(b[:len(b)-crcLen]) // missing checksum
	}
	f.Add([]byte("DMMT1\n")) // bad magic
	f.Add([]byte("DMMT2\n"))
	f.Add([]byte("not a trace at all"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		var want decodeOutcome
		want.name, want.events, want.err = refDecode(bytes.NewReader(data))
		streamed := decodeWith(t, bytes.NewReader(data), 0)
		if err := sameOutcome(streamed, want); err != nil {
			t.Fatalf("DecodeBinarySource against the reference decoder: %v", err)
		}

		whole, wholeErr := DecodeBinary(bytes.NewReader(data))
		if (wholeErr == nil) != (want.err == nil) {
			t.Fatalf("decoder verdicts disagree: DecodeBinary err=%v, reference err=%v", wholeErr, want.err)
		}
		if wholeErr != nil {
			if wholeErr.Error() != want.err.Error() {
				t.Fatalf("DecodeBinary error %q, reference %q", wholeErr, want.err)
			}
			return
		}
		if whole.Name != want.name {
			t.Fatalf("decoders accepted but disagree on the name: %q vs %q", whole.Name, want.name)
		}
		// DecodeBinary materializes an empty (non-nil) slice where the
		// drain loop leaves nil; only the contents matter.
		if len(whole.Events) != len(want.events) ||
			(len(want.events) > 0 && !reflect.DeepEqual(whole.Events, want.events)) {
			t.Fatal("decoders accepted but disagree on the events")
		}
		for i, e := range whole.Events {
			if e.Kind != KindAlloc && e.Kind != KindFree {
				t.Fatalf("event %d: bad kind %d decoded", i, e.Kind)
			}
			if e.ID < 0 {
				t.Fatalf("event %d: negative id %d decoded", i, e.ID)
			}
			if e.Kind == KindAlloc && e.Size <= 0 {
				t.Fatalf("event %d: alloc size %d decoded", i, e.Size)
			}
		}
		var buf bytes.Buffer
		if err := whole.EncodeBinary2(&buf); err != nil {
			t.Fatalf("re-encoding decoded trace: %v", err)
		}
		again, err := DecodeBinary(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("decoding re-encoded trace: %v", err)
		}
		if whole.Name != again.Name || len(whole.Events) != len(again.Events) ||
			(len(whole.Events) > 0 && !reflect.DeepEqual(whole.Events, again.Events)) {
			t.Fatal("round trip changed the trace")
		}
	})
}
