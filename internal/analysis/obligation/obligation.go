// Package obligation is the walk shared by the analyzers whose
// invariant is "what a call hands out must be released on every return
// path, unless its ownership transfers" — today poolbuf (pooled chunk
// buffers). Each such analyzer is a Spec: its acquire and release
// matchers and its messages. Adding one means writing those and nothing
// else.
//
// Acquisitions are found at statement level anywhere in a function
// body: v := f(), v = f()[:n], and v, err := f(). Each acquired
// variable is then classified once over the whole body: a variable that
// is returned, stored into a field or another variable, or passed to
// any function other than its release and the borrowing builtins
// (copy/clear/len/cap/min/max) has a new owner, and the analyzer goes
// silent about it. Reading through it — slicing, indexing, comparison,
// ranging, method calls on it, an if condition — is a borrow.
//
// What remains must reach a release (or a defer of one) before every
// return and before falling off the end of the body. The walk is
// block-structured: branch bodies run on a copy of the obligation
// state and the fallthrough keeps the pre-branch state, so a release
// inside one arm does not excuse the other; a function whose last
// statement is an if/else whose every arm releases and returns is not
// reported for falling off its end. The canonical error idiom is
// understood: after v, err := f(), the arm of `if err != nil` holds
// nothing and owes no release. A Spec that sets Double also reports a
// second release on one path.
package obligation

import (
	"go/ast"
	"go/token"
	"go/types"

	"blobseer/internal/analysis"
)

// Spec is one obligation analyzer.
type Spec struct {
	// Acquire reports whether a call hands out a resource to track.
	Acquire func(call *ast.CallExpr) bool
	// Release returns the operand a call releases, or nil when the
	// call is not a release.
	Release func(call *ast.CallExpr) ast.Expr
	// Leak reports a return that leaks; %s is the variable.
	Leak string
	// FallOff reports falling off the end of the body with the
	// obligation open; %s and %s are the variable and the function.
	FallOff string
	// Double, when set, reports a release on a path that has already
	// released or deferred a release; %s is the variable.
	Double string
}

// CalleeName returns the called function's bare name: f for f(…) and
// x.f(…), "" for anything else.
func CalleeName(call *ast.CallExpr) string {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return fun.Name
	case *ast.SelectorExpr:
		return fun.Sel.Name
	}
	return ""
}

// Run checks every function body in the pass.
func (s Spec) Run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				s.checkFunc(pass, fd)
			}
		}
	}
	return nil
}

// tracked is one variable under obligation.
type tracked struct {
	obj      types.Object
	getStmts map[ast.Stmt]bool     // the statements that acquire into it
	errObjs  map[types.Object]bool // the errors those acquisitions bind
}

// object resolves an identifier, defined or used, to its object.
func object(pass *analysis.Pass, id *ast.Ident) types.Object {
	if obj := pass.TypesInfo.Defs[id]; obj != nil {
		return obj
	}
	return pass.TypesInfo.Uses[id]
}

func (s Spec) checkFunc(pass *analysis.Pass, fd *ast.FuncDecl) {
	var vars []*tracked
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Rhs) != 1 || len(as.Lhs) < 1 || len(as.Lhs) > 2 {
			return true
		}
		rhs := ast.Unparen(as.Rhs[0])
		if sl, ok := rhs.(*ast.SliceExpr); ok {
			rhs = ast.Unparen(sl.X)
		}
		call, ok := rhs.(*ast.CallExpr)
		if !ok || !s.Acquire(call) {
			return true
		}
		id, ok := as.Lhs[0].(*ast.Ident)
		if !ok || id.Name == "_" {
			return true
		}
		obj := object(pass, id)
		if obj == nil {
			return true
		}
		var tr *tracked
		for _, t := range vars {
			if t.obj == obj {
				tr = t
			}
		}
		if tr == nil {
			tr = &tracked{obj: obj, getStmts: map[ast.Stmt]bool{}, errObjs: map[types.Object]bool{}}
			vars = append(vars, tr)
		}
		tr.getStmts[as] = true
		if len(as.Lhs) == 2 {
			if eid, ok := as.Lhs[1].(*ast.Ident); ok && eid.Name != "_" {
				if eo := object(pass, eid); eo != nil {
					tr.errObjs[eo] = true
				}
			}
		}
		return true
	})
	for _, tr := range vars {
		if s.escapes(pass, fd, tr.obj) {
			continue // ownership transferred: the new owner releases
		}
		w := &walker{pass: pass, spec: &s, tr: tr}
		st := &state{}
		w.stmts(fd.Body.List, st)
		// Falling off the end of the function body is a return path
		// too, for functions whose last statement is not a return.
		if st.active && !st.released && !st.deferred && !endsTerminal(fd.Body.List) {
			pass.Reportf(fd.Body.Rbrace, s.FallOff, tr.obj.Name(), fd.Name.Name)
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

// escapes reports whether the variable's ownership leaves the
// function's hands in any way other than its release.
func (s Spec) escapes(pass *analysis.Pass, fd *ast.FuncDecl, obj types.Object) bool {
	escaped := false
	var stack []ast.Node
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		if id, ok := n.(*ast.Ident); ok && object(pass, id) == obj && s.useEscapes(pass, stack, id, obj) {
			escaped = true
		}
		stack = append(stack, n)
		return true
	})
	return escaped
}

// useEscapes classifies a single appearance of the variable given the
// enclosing-node stack (top of stack = direct parent).
func (s Spec) useEscapes(pass *analysis.Pass, stack []ast.Node, id *ast.Ident, obj types.Object) bool {
	if len(stack) == 0 {
		return false
	}
	switch p := stack[len(stack)-1].(type) {
	case *ast.SliceExpr, *ast.IndexExpr, *ast.BinaryExpr, *ast.RangeStmt, *ast.SelectorExpr, *ast.IfStmt:
		return false // reading through it, or a method call on it
	case *ast.CallExpr:
		if op := s.Release(p); op != nil && ast.Unparen(op) == id {
			return false
		}
		switch CalleeName(p) {
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
			if tgt, ok := p.Lhs[0].(*ast.Ident); ok && object(pass, tgt) == obj {
				return false
			}
		}
		return true
	default:
		// return v, &v, composite literals, channel sends, field
		// stores, defer/go of a closure mentioning it, …: a new owner,
		// or a shape the walk cannot prove — both end the obligation.
		return true
	}
}

// state is the release obligation along one control path.
type state struct {
	active   bool // the acquisition has executed on this path
	released bool // a release already executed on this path
	deferred bool // a deferred release covers every later exit

	// maybeReleased: a release executed in a branch that falls through
	// to here. It excuses no leak — the other arm still owes a release
	// — but a further release is a double release on that arm's path.
	maybeReleased bool
}

type walker struct {
	pass *analysis.Pass
	spec *Spec
	tr   *tracked
}

func (w *walker) stmts(list []ast.Stmt, st *state) {
	for _, s := range list {
		w.stmt(s, st)
	}
}

// releases reports whether call releases the tracked variable.
func (w *walker) releases(call *ast.CallExpr) bool {
	id, ok := ast.Unparen(w.spec.Release(call)).(*ast.Ident)
	return ok && w.pass.TypesInfo.Uses[id] == w.tr.obj
}

// errNotNil reports whether cond is `err != nil` over an error an
// acquisition of the tracked variable binds: the arm it guards holds
// nothing to release.
func (w *walker) errNotNil(cond ast.Expr) bool {
	be, ok := ast.Unparen(cond).(*ast.BinaryExpr)
	if !ok || be.Op != token.NEQ {
		return false
	}
	x, ok := ast.Unparen(be.X).(*ast.Ident)
	y, ok2 := ast.Unparen(be.Y).(*ast.Ident)
	return ok && ok2 && w.tr.errObjs[w.pass.TypesInfo.Uses[x]] && y.Name == "nil"
}

func (w *walker) stmt(s ast.Stmt, st *state) {
	if w.tr.getStmts[s] {
		st.active = true
		st.released, st.maybeReleased = false, false // a re-acquisition renews the obligation
		return
	}
	switch s := s.(type) {
	case *ast.ExprStmt:
		if call, ok := s.X.(*ast.CallExpr); ok && w.releases(call) {
			w.checkDouble(s, st)
			st.released, st.maybeReleased = true, true
		}
	case *ast.DeferStmt:
		if w.releases(s.Call) {
			w.checkDouble(s, st)
			st.deferred = true
		}
	case *ast.ReturnStmt:
		if st.active && !st.released && !st.deferred {
			w.pass.Reportf(s.Pos(), w.spec.Leak, w.tr.obj.Name())
		}
	case *ast.IfStmt:
		w.branch(s.Body.List, st, w.errNotNil(s.Cond))
		if s.Else != nil {
			w.branch([]ast.Stmt{s.Else}, st, false)
		}
	case *ast.ForStmt:
		w.branch(s.Body.List, st, false)
	case *ast.RangeStmt:
		w.branch(s.Body.List, st, false)
	case *ast.SwitchStmt:
		w.clauses(s.Body.List, st)
	case *ast.TypeSwitchStmt:
		w.clauses(s.Body.List, st)
	case *ast.SelectStmt:
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CommClause); ok {
				w.branch(cc.Body, st, false)
			}
		}
	case *ast.BlockStmt:
		w.stmts(s.List, st)
	case *ast.LabeledStmt:
		w.stmt(s.Stmt, st)
	}
}

// checkDouble reports a release on a path that has already released,
// or has a deferred release pending, when the spec asks for it.
func (w *walker) checkDouble(s ast.Stmt, st *state) {
	if w.spec.Double != "" && st.active && (st.maybeReleased || st.deferred) {
		w.pass.Reportf(s.Pos(), w.spec.Double, w.tr.obj.Name())
	}
}

func (w *walker) clauses(list []ast.Stmt, st *state) {
	for _, c := range list {
		if cc, ok := c.(*ast.CaseClause); ok {
			w.branch(cc.Body, st, false)
		}
	}
}

// branch walks one arm with a copy of the obligation state; an arm the
// acquisition's failure guards (failed) starts with nothing to release.
// The fallthrough keeps the pre-branch state, except for what outlives
// the arm: a defer (function-scoped) and, when the arm can reach the
// code after it, the fact that it may have released already.
func (w *walker) branch(body []ast.Stmt, st *state, failed bool) {
	inner := *st
	inner.released = inner.released || failed
	w.stmts(body, &inner)
	st.deferred = st.deferred || inner.deferred
	if !endsTerminal(body) {
		st.maybeReleased = st.maybeReleased || inner.maybeReleased
	}
}
