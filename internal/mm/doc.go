// Package mm defines the interface shared by every dynamic memory manager
// in this repository, together with the statistics and the
// architecture-neutral cost model used to compare managers.
//
// Managers allocate from a simulated heap (internal/heap); the application
// side (trace replay, workloads) addresses blocks by heap.Addr. The package
// corresponds to the contract a DM manager offers an embedded OS in the
// paper's setting: malloc/free plus observability hooks for footprint and
// execution-time estimation.
//
// Every manager over one heap embeds Base: the heap under the manager's
// block layout, the Accounting counters and the live-payload Shadow,
// with the Footprint, MaxFootprint and StateChecksum methods that depend
// on nothing else. A manager adds only its policy state and Alloc, Free
// and Name.
//
// # The work-unit cost model
//
// Work is the paper's Sec. 5 execution-time proxy: managers charge
// architecture-neutral units per free-list probe, link update, header
// write and system call (the Cost* weights), accumulated in Stats. The
// charges are part of simulated behaviour, not simulator behaviour: when
// an implementation shortcut skips work the modeled allocator would do
// (a nonempty-bin bitmap skipping empty bins, say), the skipped probes
// are still charged in bulk, so Work compares policies, not Go code.
package mm
