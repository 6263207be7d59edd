// Package poolbuf guards the chunk buffer pool: a buffer obtained from
// the pool (getBuf/GetBuf by this repo's naming convention) or from a
// store read (GetAppend, which may return a lent view of the store's
// memory) must be released (putBuf/PutBuf) on every return path, by
// defer or provably on all branches — an early-return leak silently
// degrades the pool back to per-chunk allocation, and a leaked view
// pins its segment's disk space for good.
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
// The walk is the obligation package's: block-structured, so a release
// inside one arm does not excuse the other. Audited exceptions carry a //poolbuf:allow comment.
package poolbuf

import (
	"go/ast"

	"blobseer/internal/analysis"
	"blobseer/internal/analysis/obligation"
)

// Analyzer is the poolbuf pass.
var Analyzer = &analysis.Analyzer{
	Name: "poolbuf",
	Doc:  "pooled chunk buffers (getBuf, GetAppend) must be released (putBuf) on every return path or have their ownership transferred",
	Run: obligation.Spec{
		Acquire: func(call *ast.CallExpr) bool {
			n := obligation.CalleeName(call)
			return n == "getBuf" || n == "GetBuf" || n == "GetAppend"
		},
		Release: func(call *ast.CallExpr) ast.Expr {
			if n := obligation.CalleeName(call); (n == "putBuf" || n == "PutBuf") && len(call.Args) == 1 {
				return call.Args[0]
			}
			return nil
		},
		Leak:    "pooled buffer %s leaks on this return path: release it with putBuf (defer, or on every branch) or transfer ownership",
		FallOff: "pooled buffer %s may leak when %s returns: add putBuf (or defer it) before the end of the function",
		Double:  "pooled buffer %s is released twice on this path: the pool would hand it to two owners",
	}.Run,
}
