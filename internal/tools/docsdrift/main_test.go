package main

import (
	"reflect"
	"testing"
)

// TestDriftFlagsStaleExperiments checks both directions of the gate: an
// experiment the docs never mention, and an -exp name in the docs, alone
// or in a comma list, that dmmbench does not have.
func TestDriftFlagsStaleExperiments(t *testing.T) {
	s := surface{commands: []string{"dmmbench"}, experiments: []string{"table1", "stream"}}
	for _, tc := range []struct {
		name string
		text string
		want []string
	}{
		{"clean", "dmmbench -exp table1, then -exp stream or -exp all", nil},
		{"stale name", "dmmbench -exp table1 -exp stream\n-exp retired -quick", []string{"README.md:2: -exp retired is not a dmmbench experiment"}},
		{"stale in a comma list", "dmmbench `-exp table1,retired,stream`", []string{"README.md:1: -exp retired is not a dmmbench experiment"}},
		{"undocumented", "dmmbench -exp table1", []string{"experiment -exp stream is undocumented"}},
	} {
		got := drift(s, []doc{{path: "README.md", text: tc.text}})
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: drift = %q, want %q", tc.name, got, tc.want)
		}
	}
}
