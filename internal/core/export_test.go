package core

// PhasedTrace exposes phasedTrace to the package's external tests.
var PhasedTrace = phasedTrace
