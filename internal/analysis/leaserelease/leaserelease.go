// Package leaserelease guards the writer-lease lifecycle PR 9
// introduced: a lease obtained from OpenLease/OpenWriterLease pins a
// base version and shields the writer's chunks from the GC for as long
// as it lives, so a path that registers one and forgets to Release it
// leaves the protection dangling until the TTL reaps it — storage that
// should have been reclaimable immediately stays pinned for the whole
// lease lifetime.
//
// The contract is poolbuf's, applied to leases, and so is the walk (the
// obligation package's): every acquisition must reach a Release()
// (directly or by defer) on every return path, unless ownership
// demonstrably transfers — the lease is returned, stored into a field
// or another variable, or passed to another function, in which case
// the new owner carries the obligation and the analyzer goes silent.
// Method calls on the lease itself (ID, Renew) are borrows, not
// transfers.
//
// The canonical error idiom is understood: after
//
//	l, err := x.OpenLease(blob, base)
//	if err != nil { return err }
//
// the err-is-non-nil arm holds no lease and owes no release. A second
// Release is not reported: WriterLease.Release is idempotent. Audited
// exceptions carry //leaserelease:allow with a reason.
package leaserelease

import (
	"go/ast"

	"blobseer/internal/analysis"
	"blobseer/internal/analysis/obligation"
)

// Analyzer is the leaserelease pass.
var Analyzer = &analysis.Analyzer{
	Name: "leaserelease",
	Doc:  "writer leases (OpenLease/OpenWriterLease) must be Released on every return path or have their ownership transferred",
	Run: obligation.Spec{
		Acquire: func(call *ast.CallExpr) bool {
			n := obligation.CalleeName(call)
			return n == "OpenLease" || n == "OpenWriterLease"
		},
		Release: func(call *ast.CallExpr) ast.Expr {
			if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok && sel.Sel.Name == "Release" {
				return sel.X
			}
			return nil
		},
		Leak:    "writer lease %s leaks on this return path: Release it (defer, or on every branch) or transfer ownership",
		FallOff: "writer lease %s may leak when %s returns: Release it (or defer the release) before the end of the function",
	}.Run,
}
