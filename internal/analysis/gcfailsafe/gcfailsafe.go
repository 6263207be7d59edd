// Package gcfailsafe enforces PR 5's fail-safe rule inside the
// storage-lifecycle subsystem (internal/gc): an error may not be
// silently skipped. A mark, sweep or retention loop that `continue`s
// past an error without recording it can classify a live blob as
// unreferenced and hand its chunks to the purge; a blank-discarded
// error result hides a failed pass entirely.
//
// Two shapes are reported in internal/gc's non-test files:
//
//   - a `continue` inside an if-block whose condition tests an error
//     against nil, when the block never otherwise uses that error
//     (recording it — `firstErr = err` — is using it);
//   - an error result assigned to the blank identifier (`_ = f()` or
//     `x, _ := f()` where the discarded component is the error).
//
// Documented best-effort paths (a tombstoned BLOB's forget, whose
// failure keeps the tombstone for the next pass to retry) carry
// //gcfailsafe:allow <reason>.
package gcfailsafe

import (
	"go/ast"
	"go/types"
	"strings"

	"blobseer/internal/analysis"
)

// Analyzer is the gcfailsafe pass.
var Analyzer = &analysis.Analyzer{
	Name: "gcfailsafe",
	Doc:  "internal/gc may not skip errors via continue or blank assignment; abort or record the pass error",
	Run:  run,
}

// Scope: the storage-lifecycle subsystem only.
const gcPkg = "blobseer/internal/gc"

func isError(t types.Type) bool {
	return t != nil && types.Identical(t, types.Universe.Lookup("error").Type())
}

func run(pass *analysis.Pass) error {
	if pass.PkgPath != gcPkg && !strings.HasPrefix(pass.PkgPath, gcPkg+"/") {
		return nil
	}
	for _, f := range pass.Files {
		if analysis.IsTestFile(pass.Fset, f.Pos()) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				checkBlankError(pass, n)
			case *ast.IfStmt:
				checkErrSkip(pass, n)
			}
			return true
		})
	}
	return nil
}

// checkBlankError flags error results assigned to the blank
// identifier.
func checkBlankError(pass *analysis.Pass, as *ast.AssignStmt) {
	// Result types per LHS slot: either one RHS expression fanned out
	// (call with multiple results) or a 1:1 assignment.
	typeAt := func(i int) types.Type {
		if len(as.Rhs) == 1 && len(as.Lhs) > 1 {
			tuple, ok := pass.TypesInfo.TypeOf(as.Rhs[0]).(*types.Tuple)
			if !ok || i >= tuple.Len() {
				return nil
			}
			return tuple.At(i).Type()
		}
		if i < len(as.Rhs) {
			return pass.TypesInfo.TypeOf(as.Rhs[i])
		}
		return nil
	}
	for i, lhs := range as.Lhs {
		id, ok := lhs.(*ast.Ident)
		if !ok || id.Name != "_" {
			continue
		}
		if isError(typeAt(i)) {
			pass.Reportf(id.Pos(),
				"error discarded with blank identifier in internal/gc: abort the pass or record it in the report")
		}
	}
}

// checkErrSkip flags `if <err test> { ... continue }` blocks that
// never use the tested error.
func checkErrSkip(pass *analysis.Pass, ifs *ast.IfStmt) {
	errObjs := testedErrors(pass, ifs.Cond)
	if len(errObjs) == 0 {
		return
	}
	var cont *ast.BranchStmt
	for _, s := range ifs.Body.List {
		if b, ok := s.(*ast.BranchStmt); ok && b.Tok.String() == "continue" {
			cont = b
		}
	}
	if cont == nil {
		return
	}
	// The error is "used" when any identifier in the block (outside
	// the nil test itself) resolves to it: wrapping, recording,
	// errors.Is filtering all count.
	used := false
	ast.Inspect(ifs.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		if obj := pass.TypesInfo.Uses[id]; obj != nil && errObjs[obj] {
			used = true
		}
		return !used
	})
	if !used {
		pass.Reportf(cont.Pos(),
			"GC loop skips an error via continue without recording it: a skipped blob can hand live chunks to the purge")
	}
}

// testedErrors collects the error-typed objects compared against nil
// in a condition (err != nil, also through || and &&).
func testedErrors(pass *analysis.Pass, cond ast.Expr) map[types.Object]bool {
	out := map[types.Object]bool{}
	var walk func(e ast.Expr)
	walk = func(e ast.Expr) {
		be, ok := ast.Unparen(e).(*ast.BinaryExpr)
		if !ok {
			return
		}
		switch be.Op.String() {
		case "||", "&&":
			walk(be.X)
			walk(be.Y)
			return
		case "!=", "==":
		default:
			return
		}
		for _, side := range []ast.Expr{be.X, be.Y} {
			id, ok := ast.Unparen(side).(*ast.Ident)
			if !ok {
				continue
			}
			obj := pass.TypesInfo.Uses[id]
			if obj != nil && isError(obj.Type()) {
				out[obj] = true
			}
		}
	}
	walk(cond)
	return out
}
