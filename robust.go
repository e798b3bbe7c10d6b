package dmmkit

import (
	"context"

	"dmmkit/internal/checkpoint"
	"dmmkit/internal/core"
	workpool "dmmkit/internal/pool"
	"dmmkit/internal/trace"
)

// Fault-tolerance types: panic isolation, checkpoint/resume, an
// injectable trace-file opener. See ARCHITECTURE.md "Failure semantics &
// recovery".
type (
	// ErrorPolicy selects what a panicking candidate evaluation does to
	// an exploration run: FailFast aborts it, SkipAndRecord converts the
	// panic into the candidate's Err and continues.
	ErrorPolicy = core.ErrorPolicy
	// PanicError is a worker panic recovered by the pool or the engine:
	// the worker's index, the recovered value, and the goroutine stack.
	PanicError = workpool.PanicError
	// CheckpointState is the serialized state of an interrupted
	// exploration: configuration, strategy snapshot, evaluated candidates.
	CheckpointState = checkpoint.State
	// CheckpointMeta records the run configuration a checkpoint belongs
	// to; resume refuses mismatches.
	CheckpointMeta = checkpoint.Meta
	// TraceIdentity pins the input a checkpoint belongs to (file content
	// hash, or workload name + seed + quick).
	TraceIdentity = checkpoint.TraceIdentity
	// TraceFileOpts configures OpenTraceFileWith (an injectable opener).
	TraceFileOpts = trace.FileOpts
)

// The two candidate-error policies (see ExploreOpts.OnCandidateError).
const (
	// FailFast (the default) aborts the exploration at the first
	// panicking candidate, returning a *PanicError.
	FailFast = core.FailFast
	// SkipAndRecord records a panicking candidate as a per-candidate
	// failure and continues, deterministically at any parallelism.
	SkipAndRecord = core.SkipAndRecord
)

// ErrNotCheckpoint reports that a file is not a checkpoint at all, as
// opposed to a corrupt or truncated one.
var ErrNotCheckpoint = checkpoint.ErrNotCheckpoint

// ParseErrorPolicy parses the CLI spelling of an error policy: "fail"
// (fail-fast, the default) or "skip" (skip-and-record).
func ParseErrorPolicy(s string) (ErrorPolicy, error) { return core.ParseErrorPolicy(s) }

// SaveCheckpoint writes a checkpoint atomically: the path always holds
// either the previous complete checkpoint or the new one.
func SaveCheckpoint(path string, s *CheckpointState) error { return checkpoint.Save(path, s) }

// LoadCheckpoint reads and verifies a checkpoint file.
func LoadCheckpoint(path string) (*CheckpointState, error) { return checkpoint.Load(path) }

// CheckpointCandidates projects evaluated candidates onto the
// checkpoint's wire form (Params drop — they re-derive on resume).
func CheckpointCandidates(cands []Candidate) []checkpoint.Candidate {
	return checkpoint.FromCandidates(cands)
}

// TraceFileIdentity hashes a trace file into the identity a checkpoint
// stores: a renamed copy still matches, an edited one does not.
func TraceFileIdentity(path string) (TraceIdentity, error) { return checkpoint.FileIdentity(path) }

// WorkloadTraceIdentity is the checkpoint identity of a generated trace.
func WorkloadTraceIdentity(name string, seed int64, quick bool) TraceIdentity {
	return checkpoint.WorkloadIdentity(name, seed, quick)
}

// SourceWithContext wraps a trace source so cancelling ctx fails the
// stream (and closes the underlying source) at the next event.
func SourceWithContext(ctx context.Context, src TraceSource) TraceSource {
	return trace.WithContext(ctx, src)
}

// SinkWithContext wraps an event sink so cancelling ctx fails the next
// write — the hook that lets Ctrl-C abort a streaming trace generation.
func SinkWithContext(ctx context.Context, sink EventSink) EventSink {
	return trace.SinkWithContext(ctx, sink)
}

// OpenTraceFileWith is OpenTraceFile with an injectable opener (used by
// the fault-injection tests).
func OpenTraceFileWith(path string, opts TraceFileOpts) (*TraceFile, error) {
	return trace.OpenFileWith(path, opts)
}
