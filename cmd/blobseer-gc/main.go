// Command blobseer-gc administers the storage-lifecycle subsystem
// against an in-process cluster. It has three modes:
//
//	blobseer-gc                  # lifecycle demo: versions, retention, pinned delete, sweep
//	blobseer-gc -dry-run         # same demo, but the sweep only classifies
//	blobseer-gc -run 1s          # lifecycle runner: a retention+sweep pass every second
//	                             # beside a light churn workload, until interrupted
//
// The runner prints each pass's report and a metrics panel, and with
// -metrics-listen ADDR serves its registry at GET /metrics.
//
// Nothing here measures: lifecycle timings come from the end-to-end
// benchmark (cmd/blobseer-replay, workloads large-write and
// read-under-gc) and from the in-package benchmarks in internal/gc and
// internal/diskstore.
package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"time"

	"blobseer/internal/core"
	"blobseer/internal/metrics"
	"blobseer/internal/viz"
	"blobseer/internal/vmanager"
)

func main() {
	var (
		dryRun    = flag.Bool("dry-run", false, "demo: classify sweepable chunks without removing them (every unmarked chunk counts as sweepable: only a real purge checks leases)")
		providers = flag.Int("providers", 4, "data providers in the cluster")
		run       = flag.Duration("run", 0, "runner mode: loop retention+sweep passes at this interval until interrupted (0 = off)")
		metricsL  = flag.String("metrics-listen", "", "runner mode: HTTP listen address for GET /metrics (empty = no endpoint)")
	)
	flag.Parse()
	var err error
	if *run > 0 {
		err = runRunner(*providers, *run, *metricsL)
	} else {
		err = runDemo(*providers, *dryRun)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// runRunner is the autonomous lifecycle loop: a cluster with a light
// churn workload (create, write, delete) whose retention+sweep runner
// fires at the given interval, its registry served at GET /metrics and
// rendered to stdout as a viz panel after every few passes.
func runRunner(providers int, interval time.Duration, metricsListen string) error {
	reg := metrics.NewRegistry(metrics.Label{Name: "process", Value: "gc"})
	c, err := core.NewCluster(core.Options{
		Providers: providers, Monitoring: false, Metrics: reg,
	})
	if err != nil {
		return err
	}
	if metricsListen != "" {
		mux := http.NewServeMux()
		mux.Handle("/metrics", reg.Handler())
		go func() {
			fmt.Fprintf(os.Stderr, "gc runner metrics on http://%s/metrics\n", metricsListen)
			fmt.Fprintln(os.Stderr, http.ListenAndServe(metricsListen, mux))
			os.Exit(1)
		}()
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt)
	go func() { <-sig; cancel() }()

	// Churn workload: each round writes a short-lived blob and deletes
	// the previous one, so every pass has marks to walk and sweeps to do.
	go func() {
		cl := c.Client("churn")
		var prev uint64
		data := bytes.Repeat([]byte("churn"), 4<<10/5)
		for i := 0; ; i++ {
			select {
			case <-ctx.Done():
				return
			case <-time.After(interval / 2):
			}
			info, err := cl.Create(ctx, 4<<10)
			if err != nil {
				continue
			}
			copy(data, fmt.Sprintf("churn-%d", i))
			_, _ = cl.Write(ctx, info.ID, 0, data)
			if prev != 0 {
				_ = c.GC.DeleteBlob(prev)
			}
			prev = info.ID
		}
	}()

	runner := c.GCRunner(interval)
	go func() {
		t := time.NewTicker(5 * interval)
		defer t.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-t.C:
				ret, swp, passes := runner.LastReports()
				fmt.Printf("pass %d: retired=%d swept=%d chunks (%d bytes), nodes swept=%d, blobs walked=%d reused=%d\n",
					passes, ret.Retired, swp.Swept, swp.SweptBytes, swp.NodesSwept, swp.BlobsWalked, swp.BlobsReused)
				fmt.Print(viz.MetricsPanel(reg.Snapshot(), 24))
			}
		}
	}()
	fmt.Fprintf(os.Stderr, "lifecycle runner: %d providers, pass every %s (interrupt to stop)\n",
		providers, interval)
	err = runner.Run(ctx)
	if err == context.Canceled {
		return nil
	}
	return err
}

// runDemo exercises the whole lifecycle on a small cluster and prints
// each stage's report.
func runDemo(providers int, dryRun bool) error {
	c, err := core.NewCluster(core.Options{
		Providers: providers, Monitoring: false,
	})
	if err != nil {
		return err
	}
	ctx := context.Background()
	cl := c.Client("admin")
	info, err := cl.Create(ctx, 4<<10)
	if err != nil {
		return err
	}

	// Four versions with overlapping content, under a keep-last-2 policy.
	for i := 0; i < 4; i++ {
		data := bytes.Repeat([]byte{byte('a' + i%2)}, 8<<10)
		if _, err := cl.Write(ctx, info.ID, 0, data); err != nil {
			return err
		}
	}
	if err := c.VM.SetRetention(info.ID, vmanager.Retention{KeepLast: 2}); err != nil {
		return err
	}
	fmt.Printf("cluster: %d providers, blob %d with 4 versions, %d chunks stored\n",
		providers, info.ID, clusterChunks(c))

	ret, err := c.GC.EnforceRetention(ctx, time.Now())
	if err != nil {
		return err
	}
	fmt.Printf("retention: scanned %d blobs, retired %d versions (%d held)\n",
		ret.BlobsScanned, ret.Retired, ret.Held)

	// A pinned reader rides through the delete and a sweep pass; the
	// pass after its Close reclaims what it held.
	b, err := cl.Open(ctx, info.ID)
	if err != nil {
		return err
	}
	rd, err := b.NewReader(ctx, 0, 0, -1)
	if err != nil {
		return err
	}
	if err := c.GC.DeleteBlob(info.ID); err != nil {
		return err
	}
	fmt.Printf("delete: blob %d marked deleted while a reader pins it; %d chunks stored\n",
		info.ID, clusterChunks(c))
	mode := "sweep"
	if dryRun {
		mode = "sweep (dry-run)"
	}
	if err := demoSweep(ctx, c, mode+" while pinned", dryRun); err != nil {
		return err
	}
	n, err := io.Copy(io.Discard, rd)
	if err != nil {
		return err
	}
	if err := rd.Close(); err != nil {
		return err
	}
	fmt.Printf("pinned reader drained %d bytes after the pass, then closed\n", n)
	if err := demoSweep(ctx, c, mode+" after close", dryRun); err != nil {
		return err
	}
	st := c.GC.Stats()
	fmt.Printf("stats: pins=%d swept=%d chunks/%d bytes/%d nodes, retired=%d\n",
		st.Pins, st.SweptChunks, st.SweptBytes, st.SweptNodes, st.RetiredVers)
	fmt.Printf("remaining chunks across providers: %d\n", clusterChunks(c))
	return nil
}

// demoSweep runs one sweep pass and prints its report under label.
func demoSweep(ctx context.Context, c *core.Cluster, label string, dryRun bool) error {
	rep, err := c.GC.Sweep(ctx, dryRun)
	if err != nil {
		return err
	}
	fmt.Printf("%s: %d providers, scanned %d, live %d, swept %d (%d bytes)\n",
		label, rep.Providers, rep.Scanned, rep.Live, rep.Swept, rep.SweptBytes)
	fmt.Printf("%s nodes: scanned %d, live %d, kept %d, swept %d (metadata store holds %d); blobs walked %d, reused %d\n",
		label, rep.NodesScanned, rep.NodesLive, rep.NodesKept, rep.NodesSwept, c.VM.MetaStore().Len(), rep.BlobsWalked, rep.BlobsReused)
	return nil
}

func clusterChunks(c *core.Cluster) int {
	n := 0
	for _, id := range c.Providers() {
		if p, ok := c.Provider(id); ok {
			n += p.Stats().Chunks
		}
	}
	return n
}
