package core_test

import (
	"reflect"
	"testing"

	"dmmkit/internal/core"
	"dmmkit/internal/experiments"
	"dmmkit/internal/profile"
)

// TestCustomCollapsesToOneMember pins the traffic the "custom" registry
// entry relies on: every built-in workload composes one member, so Table
// 1's "our DM manager" is the atomic *core.Custom itself, while a profile
// of memory-disjoint phases still gets the per-phase *core.Global.
func TestCustomCollapsesToOneMember(t *testing.T) {
	for _, w := range experiments.Workloads {
		for seed := int64(1); seed <= 3; seed++ {
			tr, err := experiments.BuildWorkloadTrace(w, seed, true)
			if err != nil {
				t.Fatal(err)
			}
			m, err := experiments.NewManager(experiments.MgrCustom, profile.FromTrace(tr))
			if err != nil {
				t.Fatal(err)
			}
			if c, ok := m.(*core.Custom); !ok || c.Name() != "custom" {
				t.Errorf("%s seed %d: custom is %T named %q, want *core.Custom named \"custom\"", w, seed, m, m.Name())
			}
		}
	}
	m, err := experiments.NewManager(experiments.MgrCustom, profile.FromTrace(core.PhasedTrace()))
	if err != nil {
		t.Fatal(err)
	}
	g, ok := m.(*core.Global)
	if !ok {
		t.Fatalf("two-phase profile: custom is %T, want *core.Global", m)
	}
	if got := g.Phases(); !reflect.DeepEqual(got, []int{0, 1}) {
		t.Errorf("two-phase profile: Phases() = %v, want [0 1]", got)
	}
}
