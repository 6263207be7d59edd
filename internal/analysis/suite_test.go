package analysis_test

import (
	"testing"

	"blobseer/internal/analysis/checktest"
	"blobseer/internal/analysis/ctxfirst"
	"blobseer/internal/analysis/gcfailsafe"
	"blobseer/internal/analysis/idbytes"
	"blobseer/internal/analysis/lockio"
	"blobseer/internal/analysis/poolbuf"
)

const src = "testdata/src"

func TestLockio(t *testing.T) {
	checktest.Run(t, src, "lockio", lockio.Analyzer)
}

func TestCtxfirst(t *testing.T) {
	checktest.Run(t, src, "ctxfirst", ctxfirst.Analyzer)
}

// TestCtxfirstMain checks the package-main exemption: the fixture mints
// a root in main and carries no want comments.
func TestCtxfirstMain(t *testing.T) {
	checktest.Run(t, src, "ctxfirstmain", ctxfirst.Analyzer)
}

// TestGCFailsafe runs against a fixture whose import path mirrors the
// real storage-lifecycle package, because the analyzer is scoped to it.
func TestGCFailsafe(t *testing.T) {
	checktest.Run(t, src, "blobseer/internal/gc", gcfailsafe.Analyzer)
}

func TestPoolbuf(t *testing.T) {
	checktest.Run(t, src, "poolbuf", poolbuf.Analyzer)
}

func TestIdbytes(t *testing.T) {
	checktest.Run(t, src, "idbytes", idbytes.Analyzer)
}
