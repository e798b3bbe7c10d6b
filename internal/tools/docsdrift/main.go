// Command docsdrift is the CI documentation-drift gate: it derives the
// repo's command surface from the source of truth — the `cmd/*`
// directory names and the `-exp` experiment names parsed out of
// dmmbench's flag usage string — and fails when any of them is missing
// from the user-facing docs (README.md, ARCHITECTURE.md, docs/*.md), or
// when a doc gives an -exp name dmmbench does not have. A new binary or
// experiment that ships undocumented, or a doc that still advertises a
// removed experiment, breaks the build instead of rotting.
//
// It also fails when a -run or -skip pattern in the CI workflow names a
// Test or Fuzz function that no _test.go file declares: `go test -run X`
// passes with "no tests to run", so a renamed test would otherwise drop
// out of its dedicated CI step unnoticed.
//
// Usage (from the module root):
//
//	go run ./internal/tools/docsdrift
//	go run ./internal/tools/docsdrift -root /path/to/module
//
// Exit status: 0 when the docs cover the command surface, 1 on drift,
// 2 when the tree cannot be read.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
)

// expUsage matches dmmbench's -exp flag usage string, capturing the
// comma-separated experiment list.
var expUsage = regexp.MustCompile(`"experiment: ([a-z0-9, ]+)"`)

// expFlag matches an -exp flag in the docs, capturing its value: one
// experiment name or a comma list of them, as in "-exp table1,figure5".
var expFlag = regexp.MustCompile(`-exp[ =]([a-z0-9]+(?:,[a-z0-9]+)*)`)

// ciWorkflow is the CI workflow whose -run/-skip patterns must name
// declared tests, relative to the module root.
const ciWorkflow = ".github/workflows/ci.yml"

// runFlag matches a go test -run or -skip flag, capturing its pattern
// (quoted or bare).
var runFlag = regexp.MustCompile(`(?:^|\s)-(?:run|skip)[ =]('[^']*'|"[^"]*"|\S+)`)

// testDecl matches a top-level Test or Fuzz function declaration.
var testDecl = regexp.MustCompile(`(?m)^func ((?:Test|Fuzz)\w*)\(`)

// surface is everything the docs must mention, plus the CI workflow
// and the tests its -run/-skip patterns may name.
type surface struct {
	commands    []string        // cmd/* directory names
	experiments []string        // dmmbench -exp names, "all" excluded
	workflow    string          // the text of ciWorkflow
	tests       map[string]bool // declared Test and Fuzz functions
}

// readSurface derives the command surface from the source tree.
func readSurface(root string) (surface, error) {
	var s surface
	entries, err := os.ReadDir(filepath.Join(root, "cmd"))
	if err != nil {
		return s, fmt.Errorf("listing cmd/: %w", err)
	}
	for _, e := range entries {
		if e.IsDir() {
			s.commands = append(s.commands, e.Name())
		}
	}
	sort.Strings(s.commands)

	src, err := os.ReadFile(filepath.Join(root, "cmd", "dmmbench", "main.go"))
	if err != nil {
		return s, fmt.Errorf("reading dmmbench source: %w", err)
	}
	m := expUsage.FindSubmatch(src)
	if m == nil {
		return s, fmt.Errorf("cmd/dmmbench/main.go: -exp usage string not found (docsdrift parses `\"experiment: a, b, ...\"`)")
	}
	for _, name := range strings.Split(string(m[1]), ",") {
		name = strings.TrimSpace(name)
		if name != "" && name != "all" {
			s.experiments = append(s.experiments, name)
		}
	}
	if len(s.experiments) == 0 {
		return s, fmt.Errorf("cmd/dmmbench/main.go: -exp usage string lists no experiments")
	}

	workflow, err := os.ReadFile(filepath.Join(root, ciWorkflow))
	if err != nil {
		return s, err
	}
	s.workflow = string(workflow)
	s.tests, err = declaredTests(root)
	return s, err
}

// doc is one user-facing document.
type doc struct {
	path string
	text string
}

// readDocs reads the user-facing docs: README.md, ARCHITECTURE.md and
// docs/*.md.
func readDocs(root string) ([]doc, error) {
	paths := []string{
		filepath.Join(root, "README.md"),
		filepath.Join(root, "ARCHITECTURE.md"),
	}
	globbed, err := filepath.Glob(filepath.Join(root, "docs", "*.md"))
	if err != nil {
		return nil, err
	}
	sort.Strings(globbed)
	paths = append(paths, globbed...)

	docs := make([]doc, 0, len(paths))
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			return nil, fmt.Errorf("reading %s: %w", p, err)
		}
		docs = append(docs, doc{path: p, text: string(data)})
	}
	return docs, nil
}

// drift returns every way docs and the surface disagree: a command or
// experiment the docs never mention, an -exp name the docs give that
// dmmbench does not have, and a CI -run/-skip name no test has.
func drift(s surface, docs []doc) []string {
	var all strings.Builder
	for _, d := range docs {
		all.WriteString(d.text)
		all.WriteByte('\n')
	}
	text := all.String()

	var problems []string
	for _, c := range s.commands {
		if !strings.Contains(text, c) {
			problems = append(problems, fmt.Sprintf("command cmd/%s is undocumented", c))
		}
	}
	known := map[string]bool{"all": true}
	for _, e := range s.experiments {
		known[e] = true
		// Experiments appear in prose as "-exp name", in comma lists or
		// backticked; a bare substring match covers all of those while
		// still failing when the name is absent entirely.
		if !strings.Contains(text, e) {
			problems = append(problems, fmt.Sprintf("experiment -exp %s is undocumented", e))
		}
	}
	for _, d := range docs {
		for i, line := range strings.Split(d.text, "\n") {
			for _, m := range expFlag.FindAllStringSubmatch(line, -1) {
				for _, name := range strings.Split(m[1], ",") {
					if !known[name] {
						problems = append(problems, fmt.Sprintf("%s:%d: -exp %s is not a dmmbench experiment", d.path, i+1, name))
					}
				}
			}
		}
	}
	return append(problems, staleRuns(s.workflow, s.tests)...)
}

// declaredTests returns the names of every Test and Fuzz function the
// module's _test.go files declare, skipping hidden and third_party
// directories.
func declaredTests(root string) (map[string]bool, error) {
	names := map[string]bool{}
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && (strings.HasPrefix(d.Name(), ".") || d.Name() == "third_party") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range testDecl.FindAllSubmatch(src, -1) {
			names[string(m[1])] = true
		}
		return nil
	})
	return names, err
}

// staleRuns returns every Test or Fuzz name that a -run or -skip pattern
// in the CI workflow's text gives and that declared lacks. A pattern splits on
// "|"; each alternative loses its ^/$ anchors and any /subtest part, and
// alternatives that do not start with Test or Fuzz (such as '^$') are
// not names.
func staleRuns(workflow string, declared map[string]bool) []string {
	var problems []string
	for i, line := range strings.Split(workflow, "\n") {
		for _, m := range runFlag.FindAllStringSubmatch(line, -1) {
			for _, alt := range strings.Split(strings.Trim(m[1], `'"`), "|") {
				name, _, _ := strings.Cut(strings.Trim(alt, "^$"), "/")
				if (strings.HasPrefix(name, "Test") || strings.HasPrefix(name, "Fuzz")) && !declared[name] {
					problems = append(problems, fmt.Sprintf("%s:%d: %s names no declared test", ciWorkflow, i+1, name))
				}
			}
		}
	}
	return problems
}

func main() {
	root := flag.String("root", ".", "module root to check")
	flag.Parse()

	s, err := readSurface(*root)
	if err != nil {
		fmt.Fprintf(os.Stderr, "docsdrift: %v\n", err)
		os.Exit(2)
	}
	docs, err := readDocs(*root)
	if err != nil {
		fmt.Fprintf(os.Stderr, "docsdrift: %v\n", err)
		os.Exit(2)
	}

	if problems := drift(s, docs); len(problems) > 0 {
		read := make([]string, len(docs))
		for i, d := range docs {
			read[i] = d.path
		}
		fmt.Fprintf(os.Stderr, "docsdrift: %d drifted surface(s) (checked %s):\n", len(problems), strings.Join(read, ", "))
		for _, p := range problems {
			fmt.Fprintf(os.Stderr, "  - %s\n", p)
		}
		os.Exit(1)
	}
	fmt.Printf("docsdrift: %d commands and %d experiments all documented; every CI -run/-skip name is declared\n", len(s.commands), len(s.experiments))
}
