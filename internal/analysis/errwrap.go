package analysis

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"strings"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/passes/inspect"
	"golang.org/x/tools/go/ast/inspector"
)

// ErrWrap enforces error-chain hygiene so callers can rely on
// errors.Is/As across every layer:
//
//   - fmt.Errorf with an error-typed operand must wrap it with %w.
//     Formatting a cause with %v (or %s) flattens it to text — the
//     sentinel comparisons the trace/checkpoint/server layers depend on
//     (errors.Is(err, heap.ErrOutOfMemory), errors.As on a wrapped cause)
//     silently stop seeing it. Deliberately breaking a chain (e.g. to
//     freeze a user-facing message) is suppressed with
//     `//dmmlint:allow errwrap <why>`.
//
//   - err.Error() compared (== or !=) against a string literal or
//     constant is flagged in favor of errors.Is/As: message text is not
//     API and drifts, error identity is. Test files are exempt — tests
//     legitimately pin exact user-facing messages (the CLI/server
//     message-equality suites), and decoded errors (checkpoint round
//     trips) only exist as text.
var ErrWrap = &analysis.Analyzer{
	Name:     "errwrap",
	Doc:      "fmt.Errorf must wrap error operands with %w; compare errors with errors.Is/As, not message text",
	Requires: []*analysis.Analyzer{inspect.Analyzer},
	Run:      runErrWrap,
}

func runErrWrap(pass *analysis.Pass) (interface{}, error) {
	ins := pass.ResultOf[inspect.Analyzer].(*inspector.Inspector)
	ins.Preorder([]ast.Node{(*ast.CallExpr)(nil), (*ast.BinaryExpr)(nil)}, func(n ast.Node) {
		switch n := n.(type) {
		case *ast.CallExpr:
			checkErrorfWrap(pass, n)
		case *ast.BinaryExpr:
			checkErrorStringCompare(pass, n)
		}
	})
	return nil, nil
}

// checkErrorfWrap flags fmt.Errorf calls that format an error operand
// without a %w verb in the (constant) format string.
func checkErrorfWrap(pass *analysis.Pass, call *ast.CallExpr) {
	fn := calleeFunc(pass, call)
	if fn == nil || fn.Name() != "Errorf" || fn.Pkg() == nil || fn.Pkg().Path() != "fmt" {
		return
	}
	if len(call.Args) < 2 {
		return
	}
	format, ok := constantString(pass, call.Args[0])
	if !ok {
		return // dynamic format: nothing to prove
	}
	wraps := countWrapVerbs(format)
	errOperands := 0
	for _, arg := range call.Args[1:] {
		tv, ok := pass.TypesInfo.Types[arg]
		if ok && isErrorType(tv.Type) {
			errOperands++
		}
	}
	if errOperands > wraps && !allowed(pass, call.Pos(), "errwrap") {
		pass.Reportf(call.Pos(),
			"fmt.Errorf formats an error operand without %%w; use %%w so errors.Is/As can see the cause, or suppress with //dmmlint:allow errwrap <why> if flattening is deliberate")
	}
}

// checkErrorStringCompare flags `err.Error() == "literal"` (and !=)
// outside test files.
func checkErrorStringCompare(pass *analysis.Pass, be *ast.BinaryExpr) {
	if be.Op != token.EQL && be.Op != token.NEQ {
		return
	}
	if strings.HasSuffix(pass.Fset.File(be.Pos()).Name(), "_test.go") {
		return
	}
	var other ast.Expr
	switch {
	case isErrorErrorCall(pass, be.X):
		other = be.Y
	case isErrorErrorCall(pass, be.Y):
		other = be.X
	default:
		return
	}
	if _, ok := constantString(pass, other); !ok {
		return // comparing two dynamic strings is out of scope
	}
	if allowed(pass, be.Pos(), "errwrap") {
		return
	}
	pass.Reportf(be.Pos(),
		"comparing err.Error() against a string literal; message text drifts — use errors.Is against a sentinel or errors.As against a typed error")
}

// isErrorErrorCall reports whether e is a call of the Error() string
// method on an error-typed receiver.
func isErrorErrorCall(pass *analysis.Pass, e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	fn := calleeFunc(pass, call)
	if fn == nil || fn.Name() != "Error" {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil || sig.Params().Len() != 0 ||
		sig.Results().Len() != 1 || sig.Results().At(0).Type().String() != "string" {
		return false
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	tv, ok := pass.TypesInfo.Types[sel.X]
	return ok && isErrorType(tv.Type)
}

// isErrorType reports whether t implements error. fmt only consults the
// value's own method set, so a T whose error method has a *T receiver is
// correctly not an error operand here either.
func isErrorType(t types.Type) bool {
	if t == nil {
		return false
	}
	errIface := types.Universe.Lookup("error").Type().Underlying().(*types.Interface)
	return types.Implements(t, errIface)
}

// constantString returns e's constant string value, when it has one.
func constantString(pass *analysis.Pass, e ast.Expr) (string, bool) {
	tv, ok := pass.TypesInfo.Types[e]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
		return "", false
	}
	return constant.StringVal(tv.Value), true
}

// countWrapVerbs counts %w verbs in a format string, ignoring escaped
// percents. Indexed forms (%[1]w) count too.
func countWrapVerbs(format string) int {
	n := 0
	for i := 0; i < len(format); i++ {
		if format[i] != '%' {
			continue
		}
		i++
		if i >= len(format) {
			break
		}
		if format[i] == '%' {
			continue // escaped percent
		}
		// Skip flags, width, precision, and an optional [n] index.
		for i < len(format) && strings.ContainsRune("+-# 0123456789.[]", rune(format[i])) {
			i++
		}
		if i < len(format) && format[i] == 'w' {
			n++
		}
	}
	return n
}
