// blobseer-vet is the repository's multichecker: it runs the custom
// invariant analyzers of internal/analysis (lockio, ctxfirst,
// gcfailsafe, poolbuf, idbytes) plus the stock `go vet` suite over the
// given package patterns, and exits non-zero on any diagnostic.
//
// Usage:
//
//	go run ./cmd/blobseer-vet ./...
//	go run ./cmd/blobseer-vet -run lockio,poolbuf ./internal/...
//	go run ./cmd/blobseer-vet -stdvet=false ./...
//
// CI runs it as the lint job; see the "Static analysis" section of the
// README for the invariants and the //<analyzer>:allow convention.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"

	"blobseer/internal/analysis"
	"blobseer/internal/analysis/blockfacts"
	"blobseer/internal/analysis/ctxfirst"
	"blobseer/internal/analysis/gcfailsafe"
	"blobseer/internal/analysis/idbytes"
	"blobseer/internal/analysis/load"
	"blobseer/internal/analysis/lockio"
	"blobseer/internal/analysis/poolbuf"
)

var suite = []*analysis.Analyzer{
	lockio.Analyzer,
	ctxfirst.Analyzer,
	gcfailsafe.Analyzer,
	poolbuf.Analyzer,
	idbytes.Analyzer,
}

func main() {
	runList := flag.String("run", "", "comma-separated analyzer names to run (default: all)")
	stdvet := flag.Bool("stdvet", true, "also run the stock `go vet` passes")
	list := flag.Bool("list", false, "list the analyzers and exit")
	flag.Parse()

	if *list {
		for _, a := range suite {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		return
	}

	analyzers := suite
	if *runList != "" {
		byName := map[string]*analysis.Analyzer{}
		for _, a := range suite {
			byName[a.Name] = a
		}
		analyzers = nil
		for _, name := range strings.Split(*runList, ",") {
			a, ok := byName[strings.TrimSpace(name)]
			if !ok {
				fmt.Fprintf(os.Stderr, "blobseer-vet: unknown analyzer %q\n", name)
				os.Exit(2)
			}
			analyzers = append(analyzers, a)
		}
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	res, err := load.Load(".", patterns...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "blobseer-vet: %v\n", err)
		os.Exit(2)
	}
	facts := map[string]any{blockfacts.FactsKey: blockfacts.Compute(res)}

	var diags []analysis.Diagnostic
	for _, pkg := range res.Pkgs {
		ds, err := analysis.Run(analyzers, res.Fset, pkg.Files, pkg.Types, pkg.Info, pkg.PkgPath, facts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "blobseer-vet: %v\n", err)
			os.Exit(2)
		}
		diags = append(diags, ds...)
	}
	analysis.Sort(diags)

	cwd, _ := os.Getwd()
	for _, d := range diags {
		if cwd != "" {
			if rel, err := filepath.Rel(cwd, d.Pos.Filename); err == nil && !strings.HasPrefix(rel, "..") {
				d.Pos.Filename = rel
			}
		}
		fmt.Println(d)
	}

	failed := len(diags) > 0
	if *stdvet {
		cmd := exec.Command("go", append([]string{"vet"}, patterns...)...)
		cmd.Stdout = os.Stdout
		cmd.Stderr = os.Stderr
		if err := cmd.Run(); err != nil {
			failed = true
		}
	}
	if failed {
		if n := len(diags); n > 0 {
			fmt.Fprintf(os.Stderr, "blobseer-vet: %d diagnostic(s)\n", n)
		}
		os.Exit(1)
	}
}
