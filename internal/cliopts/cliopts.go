// Package cliopts holds the strategy/objectives option handling shared
// by every front end of the exploration engine — the dmmexplore command
// line and dmmserve's HTTP job requests. Both surfaces accept the same
// option vocabulary (a strategy name, a comma-separated objective list,
// the numeric GA/NSGA parameters), and both must reject bad input with
// identical fast-fail messages, so the validation lives here once
// instead of drifting apart per call site.
package cliopts

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"dmmkit/internal/core"
	"dmmkit/internal/search"
)

// ValidStrategies lists the accepted strategy names, in help order.
var ValidStrategies = []string{"exhaustive", "ga", "nsga"}

// ResolveMode validates a strategy name and an objectives list together
// and returns the parsed objectives plus whether the run is
// multi-objective. It is cheap and performs no workload or trace work,
// so front ends call it before anything slow: a typo fails instantly
// with a usage error (exit 2 on the CLI, 400 over HTTP) instead of
// after seconds of trace generation.
//
// An empty objectives string means "the strategy's natural default":
// footprint alone for exhaustive and ga, footprint+work for nsga. The
// nsga strategy requires Pareto mode — it has no scalar fitness to
// optimize footprint alone.
func ResolveMode(strategy, objectives string) (objs []core.Objective, multi bool, err error) {
	if !slices.Contains(ValidStrategies, strategy) {
		return nil, false, fmt.Errorf("unknown strategy %q (valid: %s)", strategy, strings.Join(ValidStrategies, ", "))
	}
	if objectives == "" && strategy == "nsga" {
		objectives = "footprint,work"
	}
	objs, err = core.ParseObjectives(objectives)
	if err != nil {
		return nil, false, fmt.Errorf("bad objectives: %w (valid: footprint or footprint,work)", err)
	}
	hasWork, hasFootprint := false, false
	for _, o := range objs {
		switch o {
		case core.ObjectiveWork:
			hasWork = true
		case core.ObjectiveFootprint:
			hasFootprint = true
		}
	}
	if hasWork && !hasFootprint {
		return nil, false, fmt.Errorf("bad objectives %q: work alone is not supported (valid: footprint or footprint,work)", objectives)
	}
	if strategy == "nsga" && !hasWork {
		return nil, false, fmt.Errorf("strategy nsga is multi-objective; use objectives footprint,work")
	}
	return objs, hasWork, nil
}

// SearchConfig carries the numeric search parameters shared by the CLI
// flags and the server's job requests. Budget is the evaluation cap:
// the stride-sample size for exhaustive, MaxEvaluations for ga/nsga.
type SearchConfig struct {
	Seed        int64
	Population  int
	Generations int
	Budget      int
}

// NewStrategy builds a fresh instance of the named search strategy,
// parameterized exactly as the dmmexplore flags would parameterize it —
// the server constructs jobs through the same path, which is what keeps
// a server-run exploration byte-identical to the equivalent CLI run.
// Strategies carry state: build a new one per exploration.
func NewStrategy(name string, cfg SearchConfig) (search.Strategy, error) {
	switch name {
	case "exhaustive":
		return search.NewExhaustive(cfg.Budget), nil
	case "ga", "nsga":
		gc := search.GAConfig{
			Population:     cfg.Population,
			Generations:    cfg.Generations,
			MaxEvaluations: cfg.Budget,
		}
		if name == "nsga" {
			return search.NewNSGA(cfg.Seed, gc), nil
		}
		return search.NewGA(cfg.Seed, gc), nil
	}
	return nil, fmt.Errorf("unknown strategy %q (valid: %s)", name, strings.Join(ValidStrategies, ", "))
}

// ObjectivesKey canonicalizes an objective list for checkpoint metadata
// (sorted, so "work,footprint" and "footprint,work" resume each other).
func ObjectivesKey(objs []core.Objective) string {
	if len(objs) == 0 {
		return "footprint"
	}
	names := make([]string, len(objs))
	for i, o := range objs {
		names[i] = o.String()
	}
	sort.Strings(names)
	return strings.Join(names, ",")
}
