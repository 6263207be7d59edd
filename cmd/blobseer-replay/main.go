// Command blobseer-replay is the repo's end-to-end benchmark: it assembles
// the deployment cmd/blobseer-gateway ships in one process — on diskstore,
// behind the real TCP rpc plane — drives it with seeded S3 traffic over two
// keep-alive HTTP connections, checks every reply, and reports what a
// storage client sees (-trace 0) or where the time went, layer by layer
// (-trace 1). README.md beside this file is the glossary.
//
// Usage:
//
//	blobseer-replay -workload small-mixed -seed 1 [-seconds 20] [-trace 0|1] [-out run.json]
//	blobseer-replay -seed 1                       # all four workloads in turn
//	blobseer-replay -workload large-write -print-ops 100
//	blobseer-replay -compare [-bound 0.10] a1.json a2.json -- b1.json b2.json
//
// The last line of standard output is the run's result as one JSON object.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"sort"
	"syscall"

	"blobseer/internal/replay"
)

func main() {
	cfg := replay.DefaultConfig()
	var (
		workload = flag.String("workload", "", "workload to run (default: all four in turn)")
		trace    = flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced phase")
		out      = flag.String("out", "", "also write each run's result to this file, one JSON object per line")
		printOps = flag.Int("print-ops", 0, "print the first N ops of each connection's stream and exit")
		compare  = flag.Bool("compare", false, "compare two sets of -out files: A.json… -- B.json…")
		bound    = flag.Float64("bound", 0, "with -compare, use this bound for every metric instead of its own")
	)
	flag.Int64Var(&cfg.Seed, "seed", 1, "workload seed: the same seed gives the same op streams and payloads")
	flag.IntVar(&cfg.Seconds, "seconds", cfg.Seconds, "seconds to measure")
	flag.StringVar(&cfg.DataDir, "data-dir", replay.DefaultDataDir(), "where the run makes (and removes) its directory of segment files")
	flag.StringVar(&cfg.TraceOut, "trace-out", "", "with -trace 1, write the spans here as JSON lines")
	flag.Parse()
	cfg.Trace = *trace != 0

	if err := run(cfg, *workload, *out, *printOps, *compare, *bound); err != nil {
		fmt.Fprintln(os.Stderr, "blobseer-replay:", err)
		os.Exit(1)
	}
}

func run(cfg replay.Config, workload, out string, printOps int, compare bool, bound float64) error {
	if compare {
		return compareSets(flag.Args(), bound)
	}
	workloads := replay.Workloads
	if workload != "" {
		w, ok := replay.WorkloadByName(workload)
		if !ok {
			return fmt.Errorf("unknown workload %q", workload)
		}
		workloads = []replay.Workload{w}
	}
	if printOps > 0 {
		for _, w := range workloads {
			cfg.Workload = w
			replay.PrintOps(os.Stdout, cfg, printOps)
		}
		return nil
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := os.MkdirAll(cfg.DataDir, 0o755); err != nil {
		return err
	}
	var outFile *os.File
	if out != "" {
		f, err := os.Create(out)
		if err != nil {
			return err
		}
		defer f.Close()
		outFile = f
	}
	for _, w := range workloads {
		cfg.Workload = w
		res, err := replay.Run(ctx, cfg)
		if err != nil {
			return fmt.Errorf("%s: %w", w.Name, err)
		}
		if outFile != nil {
			if err := json.NewEncoder(outFile).Encode(res); err != nil {
				return err
			}
		}
		report(res)
		if !res.Correct {
			return fmt.Errorf("%s: %d of %d ops failed or returned wrong data", w.Name, res.Failed, res.Attempted)
		}
	}
	if outFile != nil {
		return outFile.Close()
	}
	return nil
}

// report prints every metric with its unit and sample count, then the
// contract's result line.
func report(res *replay.Result) {
	fmt.Printf("# %s seed=%d seconds=%d trace=%t data-dir=%s\n", res.Workload, res.Seed, res.Seconds, res.Trace, res.DataDir)
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		v := res.Metrics[name]
		line := fmt.Sprintf("%-36s %14.4f %s", name, v.Value, v.Unit)
		if n, ok := res.Samples[name]; ok {
			line += fmt.Sprintf("  (n=%d)", n)
		}
		fmt.Println(line)
	}
	if res.TailPct > 0 {
		fmt.Printf("%-36s %14.4f ms  (highest percentile with ≥10 samples beyond it)\n",
			fmt.Sprintf("lat_p%g_ms", res.TailPct), res.TailMs)
	}
	fmt.Printf("ops attempted %d, failed %d\n", res.Attempted, res.Failed)
	line, _ := json.Marshal(struct {
		Correct   bool                    `json:"correct"`
		Attempted int                     `json:"attempted"`
		Failed    int                     `json:"failed"`
		Metrics   map[string]replay.Value `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, res.Metrics})
	fmt.Println(string(line))
}

func compareSets(args []string, bound float64) error {
	sep := -1
	for i, a := range args {
		if a == "--" {
			sep = i
		}
	}
	if sep <= 0 || sep == len(args)-1 {
		return fmt.Errorf("-compare wants A.json… -- B.json…")
	}
	a, err := replay.ReadResults(args[:sep])
	if err != nil {
		return err
	}
	b, err := replay.ReadResults(args[sep+1:])
	if err != nil {
		return err
	}
	return replay.Compare(os.Stdout, a, b, bound)
}
