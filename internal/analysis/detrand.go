package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/passes/inspect"
	"golang.org/x/tools/go/ast/inspector"
)

// DetPkgs is the default set of deterministic packages: everywhere a
// wall-clock read or a shared global RNG would desync the byte-identical
// replay/explore contract. Additions here should come with a row in
// ARCHITECTURE.md's determinism ladder.
const DetPkgs = "dmmkit/internal/core," +
	"dmmkit/internal/search," +
	"dmmkit/internal/trace," +
	"dmmkit/internal/mm," +
	"dmmkit/internal/heap," +
	"dmmkit/internal/dspace," +
	"dmmkit/internal/checkpoint," +
	"dmmkit/internal/workloads/..."

// Detrand forbids nondeterminism sources in deterministic packages:
// the global math/rand convenience functions (Int, Intn, Float64,
// Shuffle, ...), whose shared state makes output depend on goroutine
// interleaving and process history, and wall-clock reads (time.Now,
// time.Since, time.Until) outside bench-tagged files. The blessed
// pattern is an explicitly seeded generator, rand.New(rand.NewSource(seed)),
// threaded through the call chain.
var Detrand = &analysis.Analyzer{
	Name:     "detrand",
	Doc:      "forbid global math/rand and wall-clock reads in deterministic packages",
	Requires: []*analysis.Analyzer{inspect.Analyzer},
	Run:      runDetrand,
}

var detrandPkgs *string

// randConstructors are the math/rand package-level functions that build
// or seed explicit generators rather than consult the shared global one.
var randConstructors = map[string]bool{
	"New":        true,
	"NewSource":  true,
	"NewZipf":    true,
	"NewPCG":     true, // math/rand/v2
	"NewChaCha8": true, // math/rand/v2
}

func init() {
	detrandPkgs = Detrand.Flags.String("pkgs", DetPkgs,
		"comma-separated deterministic package paths (suffix /... matches subtrees)")
}

func runDetrand(pass *analysis.Pass) (interface{}, error) {
	if !matchPkg(pass.Pkg.Path(), *detrandPkgs) {
		return nil, nil
	}
	benchFile := benchTaggedFiles(pass)
	ins := pass.ResultOf[inspect.Analyzer].(*inspector.Inspector)
	ins.Preorder([]ast.Node{(*ast.CallExpr)(nil)}, func(n ast.Node) {
		call := n.(*ast.CallExpr)
		fn := calleeFunc(pass, call)
		if fn == nil || fn.Type().(*types.Signature).Recv() != nil {
			return // not a package-level function
		}
		pkg := fn.Pkg()
		if pkg == nil {
			return
		}
		switch pkg.Path() {
		case "math/rand", "math/rand/v2":
			if randConstructors[fn.Name()] {
				return
			}
			pass.Reportf(call.Pos(),
				"global %s.%s breaks deterministic replay; use a seeded *rand.Rand (rand.New(rand.NewSource(seed)))",
				pkg.Path(), fn.Name())
		case "time":
			switch fn.Name() {
			case "Now", "Since", "Until":
				if benchFile[pass.Fset.File(call.Pos())] {
					return
				}
				pass.Reportf(call.Pos(),
					"time.%s in deterministic package %s; derive time from trace ticks or move this into a bench-tagged file",
					fn.Name(), pass.Pkg.Path())
			}
		}
	})
	return nil, nil
}

// calleeFunc resolves a call's callee to the *types.Func it invokes,
// unwrapping parenthesization and selector forms; nil for calls of
// function-typed values, conversions and builtins.
func calleeFunc(pass *analysis.Pass, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := pass.TypesInfo.Uses[id].(*types.Func)
	return fn
}

// benchTaggedFiles maps each token.File whose //go:build constraint
// mentions the bench tag; wall-clock reads are legitimate there.
func benchTaggedFiles(pass *analysis.Pass) map[*token.File]bool {
	out := map[*token.File]bool{}
	for _, f := range pass.Files {
		tagged := false
		for _, cg := range f.Comments {
			if cg.Pos() > f.Package {
				break
			}
			for _, c := range cg.List {
				if strings.HasPrefix(c.Text, "//go:build") && containsTag(c.Text, "bench") {
					tagged = true
				}
			}
		}
		if tagged {
			out[pass.Fset.File(f.Pos())] = true
		}
	}
	return out
}

// containsTag reports whether the build-constraint line mentions tag as
// a whole word.
func containsTag(line, tag string) bool {
	for _, field := range strings.FieldsFunc(line, func(r rune) bool {
		return r == ' ' || r == '\t' || r == '&' || r == '|' || r == '(' || r == ')' || r == '!'
	}) {
		if field == tag {
			return true
		}
	}
	return false
}
