// Package poolbuf guards the chunk buffer pool PR 4 introduced: a
// buffer obtained from the pool (getBuf/GetBuf by this repo's naming
// convention) must be released (putBuf/PutBuf) on every return path,
// by defer or provably on all branches — an early-return leak silently
// degrades the pool back to per-chunk allocation.
//
// Ownership transfer is recognized and ends the obligation: a buffer
// that is returned, stored into a field or another variable, or passed
// to any function other than putBuf and the borrowing builtins
// (copy/clear/len/cap, slicing, indexing, comparison) has a new owner,
// and the analyzer goes silent about it. What remains — a buffer only
// ever written through and released locally — must reach a putBuf (or
// a defer of one) before every return — and must reach it once: a second
// putBuf on the same path hands the pool a buffer its next taker already
// owns, so two transfers end up writing through one slice.
//
// The walk is block-structured like lockio's: branch bodies are
// analyzed with a copy of the obligation state and the fallthrough
// keeps the pre-branch state, so a release inside one arm does not
// excuse the other. The rare all-arms-release shape can carry a
// //poolbuf:allow comment.
package poolbuf

import (
	"go/ast"
	"go/types"

	"blobseer/internal/analysis"
)

// Analyzer is the poolbuf pass.
var Analyzer = &analysis.Analyzer{
	Name: "poolbuf",
	Doc:  "pooled chunk buffers (getBuf) must be released (putBuf) on every return path or have their ownership transferred",
	Run:  run,
}

func calleeName(call *ast.CallExpr) string {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return fun.Name
	case *ast.SelectorExpr:
		return fun.Sel.Name
	}
	return ""
}

func isGet(call *ast.CallExpr) bool {
	n := calleeName(call)
	return n == "getBuf" || n == "GetBuf"
}

func isPut(call *ast.CallExpr) bool {
	n := calleeName(call)
	return n == "putBuf" || n == "PutBuf"
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkFunc(pass, fd)
		}
	}
	return nil
}

// tracked is one pool buffer variable under obligation.
type tracked struct {
	obj      types.Object
	getStmts map[ast.Stmt]bool // the statements that acquire into it
}

func checkFunc(pass *analysis.Pass, fd *ast.FuncDecl) {
	var bufs []*tracked
	// Acquisitions: v := getBuf(...) or v = getBuf(...)[...] at
	// statement level anywhere in the body.
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
			return true
		}
		rhs := ast.Unparen(as.Rhs[0])
		if sl, ok := rhs.(*ast.SliceExpr); ok {
			rhs = ast.Unparen(sl.X)
		}
		call, ok := rhs.(*ast.CallExpr)
		if !ok || !isGet(call) {
			return true
		}
		id, ok := as.Lhs[0].(*ast.Ident)
		if !ok || id.Name == "_" {
			return true
		}
		obj := pass.TypesInfo.Defs[id]
		if obj == nil {
			obj = pass.TypesInfo.Uses[id]
		}
		if obj == nil {
			return true
		}
		for _, tr := range bufs {
			if tr.obj == obj {
				tr.getStmts[as] = true
				return true
			}
		}
		bufs = append(bufs, &tracked{obj: obj, getStmts: map[ast.Stmt]bool{as: true}})
		return true
	})
	for _, tr := range bufs {
		if escapes(pass, fd, tr.obj) {
			continue // ownership transferred: the new owner releases
		}
		w := &releaseWalker{pass: pass, tr: tr}
		st := &relState{}
		w.stmts(fd.Body.List, st)
		// Falling off the end of the function body is a return path
		// too, for functions whose last statement is not a return.
		if st.active && !st.released && !st.deferred && !endsTerminal(fd.Body.List) {
			pass.Reportf(fd.Body.Rbrace,
				"pooled buffer %s may leak when %s returns: add putBuf (or defer it) before the end of the function",
				tr.obj.Name(), fd.Name.Name)
		}
	}
}

// endsTerminal reports whether a statement list cannot fall off its
// end (it ends in return, panic, a jump, an endless for, or a block or
// if/else whose every arm does).
func endsTerminal(list []ast.Stmt) bool {
	if len(list) == 0 {
		return false
	}
	switch last := list[len(list)-1].(type) {
	case *ast.ReturnStmt, *ast.BranchStmt:
		return true
	case *ast.BlockStmt:
		return endsTerminal(last.List)
	case *ast.IfStmt:
		return last.Else != nil && endsTerminal(last.Body.List) && endsTerminal([]ast.Stmt{last.Else})
	case *ast.ForStmt:
		return last.Cond == nil
	case *ast.ExprStmt:
		if call, ok := last.X.(*ast.CallExpr); ok {
			if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "panic" {
				return true
			}
		}
	}
	return false
}

// escapes reports whether the buffer's ownership leaves the function's
// hands in any way other than putBuf: returned, reassigned elsewhere,
// stored, or passed to a non-borrowing call.
func escapes(pass *analysis.Pass, fd *ast.FuncDecl, obj types.Object) bool {
	escaped := false
	var stack []ast.Node
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		if id, ok := n.(*ast.Ident); ok {
			if pass.TypesInfo.Uses[id] == obj || pass.TypesInfo.Defs[id] == obj {
				if useEscapes(pass, stack, id, obj) {
					escaped = true
				}
			}
		}
		stack = append(stack, n)
		return true
	})
	return escaped
}

// useEscapes classifies a single appearance of the buffer variable
// given the enclosing-node stack (top of stack = direct parent).
func useEscapes(pass *analysis.Pass, stack []ast.Node, id *ast.Ident, obj types.Object) bool {
	if len(stack) == 0 {
		return false
	}
	switch p := stack[len(stack)-1].(type) {
	case *ast.SliceExpr, *ast.IndexExpr, *ast.BinaryExpr, *ast.RangeStmt:
		return false // reading through it
	case *ast.CallExpr:
		if isPut(p) {
			return false
		}
		switch calleeName(p) {
		case "copy", "clear", "len", "cap", "min", "max":
			return false
		}
		return true // handed to some other function: new owner
	case *ast.AssignStmt:
		// As the assignment target (the acquisition itself, or a
		// re-slice like v = v[:n]) the variable stays owned here.
		for _, l := range p.Lhs {
			if lid, ok := l.(*ast.Ident); ok && lid == id {
				return false
			}
		}
		// On the RHS: v = v[...] self-assignment borrows; anything
		// else (data = buf) is a transfer.
		if len(p.Lhs) == 1 {
			if tgt, ok := p.Lhs[0].(*ast.Ident); ok {
				if pass.TypesInfo.Uses[tgt] == obj || pass.TypesInfo.Defs[tgt] == obj {
					return false
				}
			}
		}
		return true
	default:
		// return v, &v, composite literals, channel sends, field
		// stores, defer/go of a closure mentioning it, …
		return true
	}
}

// relState is the release obligation state along one control path.
type relState struct {
	active   bool // the acquisition has executed on this path
	released bool // putBuf already executed on this path
	deferred bool // a defer putBuf covers every later exit

	// maybeReleased: putBuf executed in a branch that falls through to
	// here. It excuses no leak — the other arm still owes a release — but
	// a further putBuf is a double release on that branch's path.
	maybeReleased bool
}

type releaseWalker struct {
	pass *analysis.Pass
	tr   *tracked
}

func (w *releaseWalker) stmts(list []ast.Stmt, st *relState) {
	for _, s := range list {
		w.stmt(s, st)
	}
}

func (w *releaseWalker) putsTracked(call *ast.CallExpr) bool {
	if !isPut(call) {
		return false
	}
	for _, a := range call.Args {
		if id, ok := ast.Unparen(a).(*ast.Ident); ok {
			if w.pass.TypesInfo.Uses[id] == w.tr.obj {
				return true
			}
		}
	}
	return false
}

func (w *releaseWalker) stmt(s ast.Stmt, st *relState) {
	if w.tr.getStmts[s] {
		st.active = true
		st.released, st.maybeReleased = false, false // a re-acquisition renews the obligation
		return
	}
	switch s := s.(type) {
	case *ast.ExprStmt:
		if call, ok := s.X.(*ast.CallExpr); ok && w.putsTracked(call) {
			w.checkDouble(s, st)
			st.released, st.maybeReleased = true, true
		}
	case *ast.DeferStmt:
		if w.putsTracked(s.Call) {
			w.checkDouble(s, st)
			st.deferred = true
		}
	case *ast.ReturnStmt:
		if st.active && !st.released && !st.deferred {
			w.pass.Reportf(s.Pos(),
				"pooled buffer %s leaks on this return path: release it with putBuf (defer, or on every branch) or transfer ownership",
				w.tr.obj.Name())
		}
	case *ast.IfStmt:
		w.branch(s.Body.List, st)
		if s.Else != nil {
			w.branch([]ast.Stmt{s.Else}, st)
		}
	case *ast.ForStmt:
		w.branch(s.Body.List, st)
	case *ast.RangeStmt:
		w.branch(s.Body.List, st)
	case *ast.SwitchStmt:
		w.clauses(s.Body.List, st)
	case *ast.TypeSwitchStmt:
		w.clauses(s.Body.List, st)
	case *ast.SelectStmt:
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CommClause); ok {
				w.branch(cc.Body, st)
			}
		}
	case *ast.BlockStmt:
		w.stmts(s.List, st)
	case *ast.LabeledStmt:
		w.stmt(s.Stmt, st)
	}
}

// checkDouble reports a release of a buffer this path has already
// released, or has a deferred release pending for.
func (w *releaseWalker) checkDouble(s ast.Stmt, st *relState) {
	if st.active && (st.maybeReleased || st.deferred) {
		w.pass.Reportf(s.Pos(),
			"pooled buffer %s is released twice on this path: the pool would hand it to two owners",
			w.tr.obj.Name())
	}
}

func (w *releaseWalker) clauses(list []ast.Stmt, st *relState) {
	for _, c := range list {
		if cc, ok := c.(*ast.CaseClause); ok {
			w.branch(cc.Body, st)
		}
	}
}

// branch walks one arm with a copy of the obligation state. The
// fallthrough keeps the pre-branch state, except for what outlives the
// arm: a defer (function-scoped) and, when the arm can reach the code
// after it, the fact that it may have released the buffer already.
func (w *releaseWalker) branch(body []ast.Stmt, st *relState) {
	inner := *st
	w.stmts(body, &inner)
	st.deferred = st.deferred || inner.deferred
	if !endsTerminal(body) {
		st.maybeReleased = st.maybeReleased || inner.maybeReleased
	}
}
