package analysis

import (
	"go/ast"
	"go/types"
	"strings"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/passes/inspect"
	"golang.org/x/tools/go/ast/inspector"
)

// EnginePkgs is the default scope of ctxflow: the packages whose
// exported stream-consuming entry points must be cancellable. The
// server tree is included because its job streams outlive any single
// request only as long as a client context keeps them cancellable.
const EnginePkgs = "dmmkit/internal/core,dmmkit/internal/trace,dmmkit/internal/server/..."

// CtxFlow enforces the cancellation contract on engine entry points: in
// the engine packages, an exported function or method that consumes a
// caller-supplied stream — it takes a Source-shaped parameter (a Next()
// (T, bool, error) method), an Opener, or a channel of Candidates, and
// its body drains that stream in a loop — must accept a context.Context
// parameter and actually use it (check ctx.Err/ctx.Done directly, or
// forward ctx into a callee / one of the existing WithContext wrappers).
//
// Bounded in-memory walks (encoding a materialized *Trace, folding a
// []Candidate into a front) are deliberately out of scope: they finish
// in memory-bounded time and forcing ctx through them is churn, not
// safety. The analyzer targets the unbounded replay/explore loops —
// exactly the shape every new engine path takes — where an uncancellable
// loop strands a SIGINT. Test files are skipped (Test*/Fuzz* signatures
// are fixed by the testing package).
var CtxFlow = &analysis.Analyzer{
	Name:     "ctxflow",
	Doc:      "exported engine stream loops must take and use a context.Context",
	Requires: []*analysis.Analyzer{inspect.Analyzer},
	Run:      runCtxFlow,
}

var ctxflowPkgs *string

func init() {
	ctxflowPkgs = CtxFlow.Flags.String("pkgs", EnginePkgs,
		"comma-separated engine package paths (suffix /... matches subtrees)")
}

func runCtxFlow(pass *analysis.Pass) (interface{}, error) {
	if !matchPkg(pass.Pkg.Path(), *ctxflowPkgs) {
		return nil, nil
	}
	ins := pass.ResultOf[inspect.Analyzer].(*inspector.Inspector)
	ins.Preorder([]ast.Node{(*ast.FuncDecl)(nil)}, func(n ast.Node) {
		fd := n.(*ast.FuncDecl)
		if fd.Body == nil || !fd.Name.IsExported() {
			return
		}
		if strings.HasSuffix(pass.Fset.File(fd.Pos()).Name(), "_test.go") {
			return
		}
		if !hasStreamParam(pass, fd.Type) {
			return
		}
		loop := streamLoop(pass, fd.Body)
		if loop == nil {
			return
		}
		ctxParam := contextParam(pass, fd.Type)
		if ctxParam == nil {
			pass.Reportf(fd.Name.Pos(),
				"exported %s consumes an event/candidate stream but has no context.Context parameter; engine stream loops must be cancellable", fd.Name.Name)
			return
		}
		if !usesObject(pass, fd.Body, ctxParam) {
			pass.Reportf(fd.Name.Pos(),
				"exported %s takes %s but never checks or forwards it; an ignored context makes the stream loop uncancellable", fd.Name.Name, ctxParam.Name())
		}
	})
	return nil, nil
}

// hasStreamParam reports whether the function signature accepts a
// caller-supplied stream: a parameter whose type carries a Source-shaped
// Next() (T, bool, error) method, an Open method (Opener), or a channel
// of Candidate values.
func hasStreamParam(pass *analysis.Pass, ft *ast.FuncType) bool {
	if ft.Params == nil {
		return false
	}
	for _, field := range ft.Params.List {
		tv, ok := pass.TypesInfo.Types[field.Type]
		if !ok {
			continue
		}
		t := tv.Type
		if candidateChan(t) || hasNextMethod(pass, t) || hasOpenMethod(pass, t) {
			return true
		}
	}
	return false
}

// hasNextMethod reports whether t (or *t) has a method Next with the
// Source shape func() (T, bool, error).
func hasNextMethod(pass *analysis.Pass, t types.Type) bool {
	obj, _, _ := types.LookupFieldOrMethod(t, true, pass.Pkg, "Next")
	fn, ok := obj.(*types.Func)
	if !ok {
		return false
	}
	sig := fn.Type().(*types.Signature)
	res := sig.Results()
	return sig.Params().Len() == 0 && res.Len() == 3 &&
		res.At(1).Type().String() == "bool" &&
		res.At(2).Type().String() == "error"
}

// hasOpenMethod reports whether t (or *t) has an Open method returning
// (Source-ish, error) — the Opener shape for multi-pass streams.
func hasOpenMethod(pass *analysis.Pass, t types.Type) bool {
	obj, _, _ := types.LookupFieldOrMethod(t, true, pass.Pkg, "Open")
	fn, ok := obj.(*types.Func)
	if !ok {
		return false
	}
	sig := fn.Type().(*types.Signature)
	res := sig.Results()
	return res.Len() == 2 && res.At(1).Type().String() == "error"
}

// candidateChan reports whether t is a channel of (pointers to) a type
// named Candidate.
func candidateChan(t types.Type) bool {
	ch, ok := t.Underlying().(*types.Chan)
	if !ok {
		return false
	}
	elem := ch.Elem()
	if p, ok := elem.(*types.Pointer); ok {
		elem = p.Elem()
	}
	named, ok := elem.(*types.Named)
	return ok && named.Obj().Name() == "Candidate"
}

// streamLoop returns the first loop in body that consumes a stream: a
// range over a channel of Candidate values, or any for/range whose
// subtree drains a Source-shaped Next() (func() (T, bool, error)).
func streamLoop(pass *analysis.Pass, body *ast.BlockStmt) ast.Node {
	var found ast.Node
	ast.Inspect(body, func(n ast.Node) bool {
		if found != nil {
			return false
		}
		switch n := n.(type) {
		case *ast.RangeStmt:
			if tv, ok := pass.TypesInfo.Types[n.X]; ok && candidateChan(tv.Type) {
				found = n
				return false
			}
			if callsSourceNext(pass, n) {
				found = n
				return false
			}
		case *ast.ForStmt:
			if callsSourceNext(pass, n) {
				found = n
				return false
			}
		}
		return true
	})
	return found
}

// callsSourceNext reports whether the loop's subtree contains a
// Source-shaped Next() call.
func callsSourceNext(pass *analysis.Pass, loop ast.Node) bool {
	hit := false
	ast.Inspect(loop, func(n ast.Node) bool {
		if hit {
			return false
		}
		if call, ok := n.(*ast.CallExpr); ok && isSourceNext(pass, call) {
			hit = true
			return false
		}
		return true
	})
	return hit
}

// isSourceNext reports whether call invokes a method named Next with the
// Source shape func() (T, bool, error).
func isSourceNext(pass *analysis.Pass, call *ast.CallExpr) bool {
	fn := calleeFunc(pass, call)
	if fn == nil || fn.Name() != "Next" {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil || sig.Params().Len() != 0 {
		return false
	}
	res := sig.Results()
	return res.Len() == 3 &&
		res.At(1).Type().String() == "bool" &&
		res.At(2).Type().String() == "error"
}

// contextParam returns the first parameter of type context.Context.
func contextParam(pass *analysis.Pass, ft *ast.FuncType) types.Object {
	if ft.Params == nil {
		return nil
	}
	for _, field := range ft.Params.List {
		tv, ok := pass.TypesInfo.Types[field.Type]
		if !ok || tv.Type.String() != "context.Context" {
			continue
		}
		for _, name := range field.Names {
			if obj := pass.TypesInfo.Defs[name]; obj != nil {
				return obj
			}
		}
		// Unnamed (or _) context parameter: present but unusable.
		return nil
	}
	return nil
}

// usesObject reports whether obj is referenced anywhere in body.
func usesObject(pass *analysis.Pass, body *ast.BlockStmt, obj types.Object) bool {
	used := false
	ast.Inspect(body, func(n ast.Node) bool {
		if used {
			return false
		}
		if id, ok := n.(*ast.Ident); ok && pass.TypesInfo.Uses[id] == obj {
			used = true
			return false
		}
		return true
	})
	return used
}
