// Package trace defines allocation traces — the interface between the
// dynamic applications and the DM managers — together with the DMMT2
// binary codec, a streaming event-source abstraction and a replay engine.
//
// The paper's methodology starts by profiling an application's dynamic
// memory behaviour; here workloads emit traces, profiles are computed from
// traces (internal/profile), and the same trace replays against every
// manager so comparisons are exact (the paper averages 10 input traces per
// case study; the experiment harness does the same with 10 seeds).
//
// # Streaming
//
// Every consumer of events goes through Source (Next, one event at a
// time) rather than a materialized []Event, so traces far larger than
// memory process out-of-core: replay (RunSource) and profiling keep
// memory proportional to the application's live set, not the trace
// length. Opener hands out independent passes — an in-memory *Trace, or
// a *File streaming a binary trace off disk per pass — which is what
// design-space exploration consumes, one pass per candidate. On the
// write side, EventSink is the dual: a Builder with a sink (NewBuilderTo)
// streams generated events out instead of accumulating them, and the
// DMMT2 Encoder is such a sink, so generation pipes to disk in O(1)
// memory.
//
// # Replay
//
// Replayer is the replay kernel: its Apply is the one loop that turns
// trace events into Manager calls, a batch at a time. RunSource drives it
// over any Source — zero-copy sub-slices of an in-memory trace, a reused
// buffer for everything else — and internal/replay drives it for sharded
// replay, forking it at snapshots. The live-pointer table it keeps has
// two forms, picked by the source: a dense ID-indexed slice for
// in-memory traces, the open-addressing mm.Table otherwise.
//
// # Binary format
//
// Traces on disk are DMMT2, written by Encoder and read back by
// DecodeBinary and DecodeBinarySource. It zigzag-encodes the signed
// fields (Tag, Phase, tick deltas), has no up-front event count — which
// is what makes it streamable — and ends with a marker, a trailing count
// that detects truncation and a CRC-32C that detects corruption. The
// decoders reject fields that would silently wrap or truncate (IDs and
// sizes above MaxInt64, zero allocation sizes, out-of-range tags/phases)
// and a stream without its checksum.
package trace
