// Package blockfacts computes, over every loaded package at once,
// which functions may block on RPC, store or network I/O — the
// transitive closure lockio needs to reject "a call that may block on
// one" inside a critical section, not just direct dials.
//
// A call is directly blocking when it is:
//
//   - any function or method of net or net/http (minus a
//     short list of pure helpers like net.JoinHostPort);
//   - time.Sleep or (*sync.WaitGroup).Wait;
//   - the module's own retry/backoff helpers — faultdom.Sleep and
//     RetryPolicy.Do/DoNotify — whose jittered attempt delays stack up
//     to seconds, so a retry loop under a held mutex is the same
//     hazard as a dial under one;
//   - os.File reads, writes, syncs and opens — disk I/O stalls just
//     like the network under load (a full page cache, a congested
//     device, NFS), so file I/O under a mutex is the same hazard;
//   - a call through an interface method or function value whose first
//     parameter is a context.Context — this repository's own ctxfirst
//     convention makes "takes ctx first" the signature of the I/O
//     surface (client.Conn, client.Directory, the gc provider pool,
//     the rpc plane), so the rule tracks the codebase instead of a
//     hand-maintained list.
//
// Any module function whose body (function literals included) contains
// a blocking call is itself blocking, propagated to a fixpoint across
// the whole load set and keyed by types.Func.FullName so the facts
// survive across per-package type-check universes.
package blockfacts

import (
	"fmt"
	"go/ast"
	"go/types"

	"blobseer/internal/analysis/load"
)

// Facts maps a function's FullName to a human-readable reason why it
// may block.
type Facts struct {
	Blocking map[string]string
}

// blockingPkgs are the packages every call into which is considered
// blocking I/O.
var blockingPkgs = map[string]bool{
	"net":      true,
	"net/http": true,
}

// pureHelpers are the exceptions: functions in blocking packages that
// do no I/O. The deadline setters qualify — they arm a netpoller timer
// without touching the wire, and the rpc plane calls them under the
// conn mutex by design.
var pureHelpers = map[string]bool{
	"(net.Conn).SetDeadline":      true,
	"(net.Conn).SetReadDeadline":  true,
	"(net.Conn).SetWriteDeadline": true,
	"net.JoinHostPort":            true,
	"net.SplitHostPort":           true,
	"net.ParseIP":                 true,
	"net.ParseCIDR":               true,
	"net.ParseMAC":                true,
	"net.CIDRMask":                true,
	"net.IPv4":                    true,
	"net/http.StatusText":         true,
	"net/http.CanonicalHeaderKey": true,
}

// fileIO are the os-package calls that may block on disk I/O. The
// device end of a file operation can stall indefinitely (page-cache
// writeback, a congested or failing disk, a network filesystem), so
// lockio treats them exactly like network calls inside critical
// sections. Close is included: it flushes buffered writes on many
// filesystems.
var fileIO = map[string]bool{
	"(*os.File).Read":        true,
	"(*os.File).ReadAt":      true,
	"(*os.File).ReadFrom":    true,
	"(*os.File).Write":       true,
	"(*os.File).WriteAt":     true,
	"(*os.File).WriteString": true,
	"(*os.File).WriteTo":     true,
	"(*os.File).Sync":        true,
	"(*os.File).Seek":        true,
	"(*os.File).Truncate":    true,
	"(*os.File).Close":       true,
	"os.Open":                true,
	"os.Create":              true,
	"os.OpenFile":            true,
	"os.ReadFile":            true,
	"os.WriteFile":           true,
	"os.ReadDir":             true,
	"os.Remove":              true,
	"os.RemoveAll":           true,
	"os.Rename":              true,
	"os.Truncate":            true,
}

// moduleBlocking are this repository's own functions that block by
// design and must be treated as direct blocking calls even when the
// body alone would not reveal it (faultdom.Sleep parks on a timer via
// select, which is not a call expression). A retry loop spins through
// attempt delays that stack up to seconds — holding a mutex across one
// is the same hazard as holding it across a dial.
var moduleBlocking = map[string]string{
	"blobseer/internal/faultdom.Sleep":                  "sleeps for the backoff delay",
	"(blobseer/internal/faultdom.RetryPolicy).Do":       "sleeps between retry attempts (jittered backoff)",
	"(blobseer/internal/faultdom.RetryPolicy).DoNotify": "sleeps between retry attempts (jittered backoff)",
}

func isContext(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Context" && obj.Pkg() != nil && obj.Pkg().Path() == "context"
}

func ctxFirst(sig *types.Signature) bool {
	return sig != nil && sig.Params().Len() > 0 && isContext(sig.Params().At(0).Type())
}

// callee resolves a call expression to the *types.Func it statically
// invokes, or nil for dynamic calls, conversions and builtins.
func callee(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}

// DirectReason classifies one call: a non-empty reason means the call
// itself may block, independent of module-wide propagation.
func DirectReason(info *types.Info, call *ast.CallExpr) string {
	fn := callee(info, call)
	if fn == nil {
		// Dynamic call: conversions and builtins have no signature
		// type or a non-func one; a func value with a ctx-first
		// signature is an I/O surface by convention.
		if sig, ok := info.TypeOf(call.Fun).(*types.Signature); ok && ctxFirst(sig) {
			return "call through a context-first function value (I/O surface)"
		}
		return ""
	}
	full := fn.FullName()
	if pureHelpers[full] {
		return ""
	}
	if pkg := fn.Pkg(); pkg != nil && blockingPkgs[pkg.Path()] {
		return fmt.Sprintf("calls %s", full)
	}
	switch full {
	case "time.Sleep", "(*sync.WaitGroup).Wait":
		return fmt.Sprintf("calls %s", full)
	}
	if fileIO[full] {
		return fmt.Sprintf("calls %s (file I/O may stall on the device)", full)
	}
	if reason := moduleBlocking[full]; reason != "" {
		return fmt.Sprintf("calls %s (%s)", full, reason)
	}
	sig, _ := fn.Type().(*types.Signature)
	if sig != nil && sig.Recv() != nil {
		if _, iface := sig.Recv().Type().Underlying().(*types.Interface); iface && ctxFirst(sig) {
			return fmt.Sprintf("calls context-first interface method %s (I/O surface)", full)
		}
	}
	return ""
}

// Compute derives the blocking set for every function in the load set.
func Compute(res *load.Result) *Facts {
	facts := &Facts{Blocking: map[string]string{}}
	// edges[callee] = callers that statically invoke it.
	edges := map[string]map[string]bool{}
	for _, pkg := range res.Pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				owner, _ := pkg.Info.Defs[fd.Name].(*types.Func)
				if owner == nil {
					continue
				}
				name := owner.FullName()
				ast.Inspect(fd.Body, func(n ast.Node) bool {
					call, ok := n.(*ast.CallExpr)
					if !ok {
						return true
					}
					if reason := DirectReason(pkg.Info, call); reason != "" {
						if _, done := facts.Blocking[name]; !done {
							facts.Blocking[name] = reason
						}
						return true
					}
					if fn := callee(pkg.Info, call); fn != nil && fn.Pkg() != nil {
						target := fn.FullName()
						if edges[target] == nil {
							edges[target] = map[string]bool{}
						}
						edges[target][name] = true
					}
					return true
				})
			}
		}
	}
	// Propagate to a fixpoint: a caller of a blocking function blocks.
	queue := make([]string, 0, len(facts.Blocking))
	for name := range facts.Blocking {
		queue = append(queue, name)
	}
	for len(queue) > 0 {
		target := queue[0]
		queue = queue[1:]
		for caller := range edges[target] {
			if _, done := facts.Blocking[caller]; done {
				continue
			}
			facts.Blocking[caller] = fmt.Sprintf("calls %s, which may block (%s)", target, facts.Blocking[target])
			queue = append(queue, caller)
		}
	}
	return facts
}

// CallReason reports why a call may block: a direct reason, or the
// computed fact of the module function it invokes. Empty means the
// call is not known to block.
func CallReason(info *types.Info, call *ast.CallExpr, facts *Facts) string {
	if reason := DirectReason(info, call); reason != "" {
		return reason
	}
	if facts == nil {
		return ""
	}
	if fn := callee(info, call); fn != nil {
		if reason, ok := facts.Blocking[fn.FullName()]; ok {
			return fmt.Sprintf("calls %s, which may block (%s)", fn.FullName(), reason)
		}
	}
	return ""
}

// FactsKey is the Pass.Facts namespace the driver stores a *Facts
// under.
const FactsKey = "blockfacts"
