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

// TestStaleRunsFlagsUndeclaredNames checks that a -run or -skip pattern
// naming a test no file declares is flagged, alone or as one alternative,
// while anchors, subtests and the '^$' pattern are read correctly.
func TestStaleRunsFlagsUndeclaredNames(t *testing.T) {
	declared := map[string]bool{"TestA": true, "TestB": true, "FuzzC": true}
	for _, tc := range []struct {
		name     string
		workflow string
		want     []string
	}{
		{"clean", "go test -run 'TestA|^TestB$' -v ./x\ngo test -run FuzzC ./y\ngo test -run '^$' -bench Micro ./...\ngo test -skip \"TestA/sub\" ./...", nil},
		{"renamed", "go test -run TestA ./x\ngo test -race -run 'TestB|TestGone$' ./y", []string{".github/workflows/ci.yml:2: TestGone names no declared test"}},
		{"skip", "go test -skip=FuzzGone ./...", []string{".github/workflows/ci.yml:1: FuzzGone names no declared test"}},
	} {
		if got := staleRuns(tc.workflow, declared); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: staleRuns = %q, want %q", tc.name, got, tc.want)
		}
	}
}
