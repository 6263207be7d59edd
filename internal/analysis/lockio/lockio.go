// Package lockio enforces the repository's oldest concurrency
// invariant: no RPC, store or network call — and no call that may
// transitively block on one — between a sync.Mutex/RWMutex Lock() or
// RLock() and the matching unlock. The rpc.Directory once dialed
// providers while holding its mutex, so one blackholed provider
// stalled every lookup for the OS connect timeout; this analyzer keeps
// that defect class extinct.
//
// "May block" is the blockfacts closure: direct net/net.rpc/net.http
// calls, time.Sleep, WaitGroup.Wait, calls through context-first
// interface methods or function values (this repo's I/O surfaces), and
// any module function that transitively reaches one.
//
// The walk is block-structured, not a full CFG: a branch is analyzed
// with a copy of the held-lock state and the fallthrough state is kept
// from before the branch. An early `if ... { mu.Unlock(); return }`
// therefore tracks correctly; the rare branch that unlocks and falls
// through may over-report and can carry a //lockio:allow comment.
//
// Audited exceptions — critical sections that hold a lock across I/O
// by design, like the gc's sweepMu serializing whole passes — are
// annotated //lockio:allow <reason>.
//
// Test files are skipped: test doubles implement the context-first
// store interfaces in-memory, so locked test plumbing is not the
// production defect this analyzer hunts.
package lockio

import (
	"go/ast"
	"go/token"
	"go/types"

	"blobseer/internal/analysis"
	"blobseer/internal/analysis/blockfacts"
)

// Analyzer is the lockio pass.
var Analyzer = &analysis.Analyzer{
	Name: "lockio",
	Doc:  "no RPC/store/network call (or call that may block on one) while holding a mutex",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	facts, _ := pass.Facts[blockfacts.FactsKey].(*blockfacts.Facts)
	for _, f := range pass.Files {
		if analysis.IsTestFile(pass.Fset, f.Pos()) {
			continue
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			w := &walker{pass: pass, facts: facts}
			w.stmts(fd.Body.List, map[string]token.Pos{})
		}
	}
	return nil
}

// lockMethod classifies a call as a sync.Mutex/RWMutex (un)lock and
// returns the lock's receiver expression as the tracking key.
func lockMethod(info *types.Info, call *ast.CallExpr) (key, method string, ok bool) {
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel {
		return "", "", false
	}
	switch sel.Sel.Name {
	case "Lock", "RLock", "Unlock", "RUnlock":
	default:
		return "", "", false
	}
	fn, _ := info.Uses[sel.Sel].(*types.Func)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return "", "", false
	}
	return types.ExprString(sel.X), sel.Sel.Name, true
}

type walker struct {
	pass  *analysis.Pass
	facts *blockfacts.Facts
}

// stmts walks one statement list, threading the held-lock state
// (lock key → position of the acquiring Lock call) through it.
func (w *walker) stmts(list []ast.Stmt, held map[string]token.Pos) {
	for _, s := range list {
		w.stmt(s, held)
	}
}

func clone(held map[string]token.Pos) map[string]token.Pos {
	out := make(map[string]token.Pos, len(held))
	for k, v := range held {
		out[k] = v
	}
	return out
}

func (w *walker) stmt(s ast.Stmt, held map[string]token.Pos) {
	switch s := s.(type) {
	case *ast.ExprStmt:
		if call, ok := s.X.(*ast.CallExpr); ok {
			if key, method, ok := lockMethod(w.pass.TypesInfo, call); ok {
				switch method {
				case "Lock", "RLock":
					held[key] = call.Pos()
				case "Unlock", "RUnlock":
					delete(held, key)
				}
				return
			}
		}
		w.check(s.X, held)
	case *ast.DeferStmt:
		if key, method, ok := lockMethod(w.pass.TypesInfo, s.Call); ok {
			_ = key
			// defer mu.Unlock(): the lock stays held for the rest of
			// the function — leave it in the state. defer mu.Lock()
			// makes no sense and is ignored.
			_ = method
			return
		}
		// Deferred calls run at return time with an unknowable lock
		// state; they are not checked.
	case *ast.GoStmt:
		// The spawned goroutine does not hold the caller's locks, and
		// launching it does not block. Its body is covered by
		// blockfacts when the enclosing function's callers matter.
	case *ast.AssignStmt:
		for _, e := range s.Rhs {
			w.check(e, held)
		}
		for _, e := range s.Lhs {
			w.check(e, held)
		}
	case *ast.ReturnStmt:
		for _, e := range s.Results {
			w.check(e, held)
		}
	case *ast.IfStmt:
		if s.Init != nil {
			w.stmt(s.Init, held)
		}
		w.check(s.Cond, held)
		w.stmts(s.Body.List, clone(held))
		if s.Else != nil {
			w.stmt(s.Else, clone(held))
		}
	case *ast.ForStmt:
		if s.Init != nil {
			w.stmt(s.Init, held)
		}
		if s.Cond != nil {
			w.check(s.Cond, held)
		}
		inner := clone(held)
		w.stmts(s.Body.List, inner)
		if s.Post != nil {
			w.stmt(s.Post, inner)
		}
	case *ast.RangeStmt:
		w.check(s.X, held)
		w.stmts(s.Body.List, clone(held))
	case *ast.SwitchStmt:
		if s.Init != nil {
			w.stmt(s.Init, held)
		}
		if s.Tag != nil {
			w.check(s.Tag, held)
		}
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				w.stmts(cc.Body, clone(held))
			}
		}
	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			w.stmt(s.Init, held)
		}
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				w.stmts(cc.Body, clone(held))
			}
		}
	case *ast.SelectStmt:
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CommClause); ok {
				w.stmts(cc.Body, clone(held))
			}
		}
	case *ast.BlockStmt:
		w.stmts(s.List, held)
	case *ast.LabeledStmt:
		w.stmt(s.Stmt, held)
	case *ast.DeclStmt:
		w.check(s, held)
	case *ast.SendStmt:
		w.check(s.Chan, held)
		w.check(s.Value, held)
	case *ast.IncDecStmt:
		w.check(s.X, held)
	}
}

// check inspects an expression (or declaration) subtree for calls made
// while locks are held. Function literal bodies are skipped: they run
// when invoked, not where written.
func (w *walker) check(n ast.Node, held map[string]token.Pos) {
	if len(held) == 0 || n == nil {
		return
	}
	ast.Inspect(n, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		reason := blockfacts.CallReason(w.pass.TypesInfo, call, w.facts)
		if reason == "" {
			return true
		}
		for key, pos := range held {
			w.pass.Reportf(call.Pos(),
				"blocking I/O while holding %s (locked at %s): %s",
				key, w.pass.Fset.Position(pos), reason)
		}
		return true
	})
}
