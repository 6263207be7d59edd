// Package ctxfirst enforces the context-first contract the client
// redesign established: a function that takes a context.Context takes
// it as the first parameter, and the data path threads callers'
// contexts down instead of minting fresh roots — context.Background()
// and context.TODO() are banned outside package main, test files and
// benchmarks.
//
// Deliberate roots — control-plane ticks and cleanup that must outlive a
// cancelled request — are annotated //ctxfirst:allow <reason>.
package ctxfirst

import (
	"go/ast"
	"go/types"

	"blobseer/internal/analysis"
)

// Analyzer is the ctxfirst pass.
var Analyzer = &analysis.Analyzer{
	Name: "ctxfirst",
	Doc:  "context.Context parameters come first; no context.Background/TODO outside main and tests",
	Run:  run,
}

func isContext(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Context" && obj.Pkg() != nil && obj.Pkg().Path() == "context"
}

func run(pass *analysis.Pass) error {
	isMain := pass.Pkg.Name() == "main"
	for _, f := range pass.Files {
		isTest := analysis.IsTestFile(pass.Fset, f.Pos())
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				checkParams(pass, n.Type)
			case *ast.FuncLit:
				checkParams(pass, n.Type)
			case *ast.CallExpr:
				if isMain || isTest {
					return true
				}
				sel, ok := ast.Unparen(n.Fun).(*ast.SelectorExpr)
				if !ok {
					return true
				}
				fn, _ := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
				if fn == nil {
					return true
				}
				switch fn.FullName() {
				case "context.Background", "context.TODO":
					pass.Reportf(n.Pos(),
						"%s on the data path: thread the caller's ctx down instead of minting a root", fn.FullName())
				}
			}
			return true
		})
	}
	return nil
}

// checkParams flags a context.Context parameter anywhere but first.
// Variadic trailing contexts and multi-name groups are all covered:
// the check walks the flattened parameter list.
func checkParams(pass *analysis.Pass, ft *ast.FuncType) {
	if ft.Params == nil {
		return
	}
	pos := 0
	for _, field := range ft.Params.List {
		t := pass.TypesInfo.TypeOf(field.Type)
		names := len(field.Names)
		if names == 0 {
			names = 1 // unnamed parameter
		}
		for i := 0; i < names; i++ {
			if isContext(t) && pos > 0 {
				pass.Reportf(field.Pos(),
					"context.Context must be the first parameter (found at position %d)", pos+1)
				return
			}
			pos++
		}
	}
}
