package main

import (
	"strings"
	"testing"
)

// TestCheckExp pins the -exp gate: every name in the usage string runs,
// and any other name is an error that lists the valid ones, so a script
// naming a removed experiment fails instead of printing nothing.
func TestCheckExp(t *testing.T) {
	valid := strings.Split(strings.TrimPrefix(expUsage, "experiment: "), ", ")
	if len(valid) < 2 || valid[len(valid)-1] != "all" {
		t.Fatalf("usage string %q does not end in all", expUsage)
	}
	for _, name := range valid {
		if err := checkExp(name); err != nil {
			t.Errorf("checkExp(%q) = %v", name, err)
		}
	}
	for _, name := range []string{"", "shard", "Table1", "table1,figure5", "all "} {
		err := checkExp(name)
		if err == nil {
			t.Errorf("checkExp(%q) accepted an unknown experiment", name)
			continue
		}
		for _, v := range valid {
			if !strings.Contains(err.Error(), v) {
				t.Errorf("checkExp(%q) = %q does not list %s", name, err, v)
			}
		}
	}
}
