// Package registry is the extension point of the toolkit: DM managers and
// trace-producing workloads register themselves by name, and every consumer
// (the experiments driver, the CLIs, the examples, user code through the
// dmmkit facade) constructs them through a single lookup instead of a
// hardcoded switch. Adding a scenario becomes a one-line registration.
//
// The built-ins self-register from their packages' init functions:
// managers "kingsley", "lea", "regions", "obstack", "custom" (the
// methodology's manager: the single designed atomic manager when the
// profile has one phase or its phases share memory, which covers all
// three built-in workloads, and the per-phase global manager otherwise)
// and "designed" (a single atomic designed manager); workloads "drr",
// "recon3d" and "render3d".
package registry
