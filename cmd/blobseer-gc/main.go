// Command blobseer-gc administers the storage-lifecycle subsystem: it
// drives on-demand retention and mark-and-sweep passes against an
// in-process cluster, with a dry-run mode that classifies chunks without
// removing anything, and a bench mode that measures sweep throughput on
// a 10k-chunk cluster plus streaming read throughput while the garbage
// collector runs (emitting BENCH_gc.json for the perf trajectory).
//
// Usage:
//
//	blobseer-gc                  # lifecycle demo: versions, retention, pinned delete, sweep
//	blobseer-gc -dry-run         # same demo, but the sweep only classifies
//	blobseer-gc -bench           # measure sweep + streaming-read throughput
//	blobseer-gc -bench -out F    # write the JSON report to F (default BENCH_gc.json)
//
// The bench runs four planes: a 10k-chunk sweep (the long-standing
// trajectory number), a large sweep (-large-chunks, default 1M) with
// foreground DeleteBlob latency sampled while the sweep runs, a
// mark-phase plane (-mark-chunks/-mark-versions: multi-version,
// shared-subtree-heavy BLOBs) comparing the pruned parallel mark
// against a naive single-threaded per-version re-walk and measuring
// metadata-node reclamation, and streaming reads with the lifecycle
// runner sweeping concurrently. When the output file already holds a
// previous report it is read first and a chunks/s delta against it is
// printed (the CI smoke step compares against the committed baseline
// this way).
//
// A fifth, disk plane (diskbench.go; -disk-chunks/-disk-sweep-chunks,
// emitting BENCH_disk.json) measures the log-structured store: put
// throughput, get throughput hot vs cold, the orphan sweep rate with
// disk-backed providers, and cold-start recovery time per GB.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"os/signal"
	"sort"
	"time"

	"blobseer/internal/chunk"
	"blobseer/internal/core"
	"blobseer/internal/metrics"
	"blobseer/internal/viz"
	"blobseer/internal/vmanager"
)

func main() {
	var (
		bench     = flag.Bool("bench", false, "measure sweep and streaming-read throughput, emit JSON")
		out       = flag.String("out", "BENCH_gc.json", "bench: output path for the JSON report")
		dryRun    = flag.Bool("dry-run", false, "demo: classify sweepable chunks without removing them")
		providers = flag.Int("providers", 4, "data providers in the cluster")
		chunks    = flag.Int("chunks", 10000, "bench: target chunk population for the sweep measurement")
		large     = flag.Int("large-chunks", 1_000_000, "bench: chunk population for the large sweep + delete-latency plane (0 = skip)")
		markCh    = flag.Int("mark-chunks", 131072, "bench: live chunks in the mark-phase plane (0 = skip)")
		markVers  = flag.Int("mark-versions", 24, "bench: overwrite versions per BLOB in the mark-phase plane")
		diskOut   = flag.String("disk-out", "BENCH_disk.json", "bench: output path for the disk-plane JSON report")
		diskCh    = flag.Int("disk-chunks", 20000, "bench: chunk population for the disk put/get/recovery planes (0 = skip all disk planes)")
		diskSweep = flag.Int("disk-sweep-chunks", 1_000_000, "bench: orphan population for the disk sweep plane (0 = skip)")
		run       = flag.Duration("run", 0, "runner mode: loop retention+sweep passes at this interval until interrupted (0 = off)")
		metricsL  = flag.String("metrics-listen", "", "runner mode: HTTP listen address for GET /metrics (empty = no endpoint)")
	)
	flag.Parse()
	if *run > 0 {
		if err := runRunner(*providers, *run, *metricsL); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}
	if *bench {
		if err := runBench(*providers, *chunks, *large, *markCh, *markVers, *out); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if *diskCh > 0 {
			if err := runDiskBench(*providers, *diskCh, *diskSweep, *diskOut); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
		}
		return
	}
	if err := runDemo(*providers, *dryRun); err != nil {
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
			info, err := cl.Create(4 << 10)
			if err != nil {
				continue
			}
			copy(data, fmt.Sprintf("churn-%d", i))
			_, _ = cl.Write(info.ID, 0, data)
			if prev != 0 {
				_ = c.GC.DeleteBlob(ctx, prev)
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
		Providers: providers, Monitoring: false, GCGraceEpochs: -1,
	})
	if err != nil {
		return err
	}
	cl := c.Client("admin")
	info, err := cl.Create(4 << 10)
	if err != nil {
		return err
	}

	// Four versions with overlapping content, under a keep-last-2 policy.
	for i := 0; i < 4; i++ {
		data := bytes.Repeat([]byte{byte('a' + i%2)}, 8<<10)
		if _, err := cl.Write(info.ID, 0, data); err != nil {
			return err
		}
	}
	if err := c.VM.SetRetention(info.ID, vmanager.Retention{KeepLast: 2}); err != nil {
		return err
	}
	fmt.Printf("cluster: %d providers, blob %d with 4 versions, %d chunks stored\n",
		providers, info.ID, clusterChunks(c))

	ctx := context.Background()
	ret, err := c.GC.EnforceRetention(ctx, time.Now())
	if err != nil {
		return err
	}
	fmt.Printf("retention: scanned %d blobs, retired %d versions (%d pinned skipped)\n",
		ret.BlobsScanned, ret.Retired, ret.PinnedSkipped)

	// A pinned reader rides through the delete.
	b, err := cl.Open(ctx, info.ID)
	if err != nil {
		return err
	}
	rd, err := b.NewReader(ctx, 0, 0, -1)
	if err != nil {
		return err
	}
	if err := c.GC.DeleteBlob(ctx, info.ID); err != nil {
		return err
	}
	fmt.Printf("delete: blob %d deleted; deferred behind pins: %v\n", info.ID, c.GC.DeferredBlobs())
	n, err := io.Copy(io.Discard, rd)
	if err != nil {
		return err
	}
	if err := rd.Close(); err != nil {
		return err
	}
	fmt.Printf("pinned reader drained %d bytes, close reclaimed the deferral\n", n)

	rep, err := c.GC.Sweep(ctx, dryRun)
	if err != nil {
		return err
	}
	mode := "sweep"
	if dryRun {
		mode = "sweep (dry-run)"
	}
	fmt.Printf("%s: %d providers, scanned %d, live %d, in-grace %d, swept %d (%d bytes)\n",
		mode, rep.Providers, rep.Scanned, rep.Live, rep.InGrace, rep.Swept, rep.SweptBytes)
	fmt.Printf("%s nodes: scanned %d, live %d, kept %d, swept %d (metadata store holds %d); blobs walked %d, reused %d\n",
		mode, rep.NodesScanned, rep.NodesLive, rep.NodesKept, rep.NodesSwept, c.VM.MetaStore().Len(), rep.BlobsWalked, rep.BlobsReused)
	st := c.GC.Stats()
	fmt.Printf("stats: pins=%d deferred=%d swept=%d chunks/%d bytes/%d nodes, fast-path ref releases=%d, retired=%d\n",
		st.Pins, st.DeferredBlobs, st.SweptChunks, st.SweptBytes, st.SweptNodes, st.ReclaimedRefs, st.RetiredVers)
	fmt.Printf("remaining chunks across providers: %d\n", clusterChunks(c))
	return nil
}

// benchReport is the BENCH_gc.json schema.
type benchReport struct {
	Time       string  `json:"time"`
	Providers  int     `json:"providers"`
	Sweep      sweepB  `json:"sweep"`
	SweepLarge *sweepB `json:"sweep_large,omitempty"`
	Deletes    *latB   `json:"delete_during_sweep,omitempty"`
	Mark       *markB  `json:"mark,omitempty"`
	Stream     streamB `json:"stream_read"`
	Obs        *obsB   `json:"observability,omitempty"`
}

// markB measures the mark phase on a multi-version, shared-subtree-heavy
// population: the pruned parallel mark against a naive single-threaded
// per-version full re-walk (the pre-PR mark shape), plus how many
// metadata-tree nodes a retention pass then reclaims.
type markB struct {
	Blobs             int     `json:"blobs"`
	Versions          int     `json:"versions"`
	LiveChunks        int     `json:"live_chunks"`
	NodesVisited      int     `json:"nodes_visited"`
	DurationMS        float64 `json:"duration_ms"`
	ChunksPerSec      float64 `json:"chunks_per_sec"`
	NaiveDurationMS   float64 `json:"naive_duration_ms"`
	NaiveChunksPerSec float64 `json:"naive_chunks_per_sec"`
	SpeedupVsNaive    float64 `json:"speedup_vs_naive"`
	NodesBefore       int     `json:"nodes_before_reclaim"`
	NodesSwept        int     `json:"nodes_swept"`
	NodesAfter        int     `json:"nodes_after_reclaim"`
}

type sweepB struct {
	Chunks       int     `json:"chunks"`
	Swept        int     `json:"swept"`
	DurationMS   float64 `json:"duration_ms"`
	ChunksPerSec float64 `json:"chunks_per_sec"`
	SweptMBps    float64 `json:"swept_mb_per_sec"`
}

// latB samples foreground DeleteBlob latency while the large sweep runs:
// the hot-path number the narrow sweep exclusion exists for.
type latB struct {
	Deletes     int     `json:"deletes"`
	DuringSweep int     `json:"during_sweep"` // deletes issued before the sweep finished
	P50us       float64 `json:"p50_us"`
	P99us       float64 `json:"p99_us"`
	MaxUS       float64 `json:"max_us"`
}

type streamB struct {
	Bytes       int64   `json:"bytes"`
	GCOffMBps   float64 `json:"gc_off_mbps"`
	GCOnMBps    float64 `json:"gc_on_mbps"`
	SweepPasses int     `json:"sweep_passes_during_read"`
}

// obsB is the observability plane: the same streamed read measured on an
// uninstrumented cluster and on one wired to a metrics registry, so the
// cost of the always-on instrumentation stays a committed number.
type obsB struct {
	Bytes       int64   `json:"bytes"`
	PlainMBps   float64 `json:"read_mbps_plain"`
	MetricsMBps float64 `json:"read_mbps_metrics"`
	OverheadPct float64 `json:"overhead_pct"`
}

// runObsBench measures streaming read throughput with and without the
// metrics registry attached — same population, same cluster shape.
func runObsBench(providers, chunks int) (*obsB, error) {
	const chunkSize = 4 << 10
	const readPasses = 4
	live := chunks / 2
	measure := func(reg *metrics.Registry) (float64, error) {
		c, err := core.NewCluster(core.Options{
			Providers: providers, Monitoring: false, GCGraceEpochs: -1, Metrics: reg,
		})
		if err != nil {
			return 0, err
		}
		cl := c.Client("obs")
		ctx := context.Background()
		info, err := cl.Create(chunkSize)
		if err != nil {
			return 0, err
		}
		b, err := cl.Open(ctx, info.ID)
		if err != nil {
			return 0, err
		}
		w, err := b.NewWriter(ctx, 0)
		if err != nil {
			return 0, err
		}
		buf := make([]byte, chunkSize)
		for i := 0; i < live; i++ {
			copy(buf, fmt.Sprintf("obs-chunk-%d", i))
			if _, err := w.Write(buf); err != nil {
				return 0, err
			}
		}
		if err := w.Close(); err != nil {
			return 0, err
		}
		var total int64
		t0 := time.Now()
		for i := 0; i < readPasses; i++ {
			rd, err := b.NewReader(ctx, 0, 0, -1)
			if err != nil {
				return 0, err
			}
			n, err := io.Copy(io.Discard, rd)
			rd.Close()
			if err != nil {
				return 0, err
			}
			total += n
		}
		return float64(total) / (1 << 20) / time.Since(t0).Seconds(), nil
	}
	plain, err := measure(nil)
	if err != nil {
		return nil, err
	}
	instr, err := measure(metrics.NewRegistry(metrics.Label{Name: "process", Value: "bench"}))
	if err != nil {
		return nil, err
	}
	return &obsB{
		Bytes:       int64(live) * chunkSize * readPasses,
		PlainMBps:   plain,
		MetricsMBps: instr,
		OverheadPct: (plain - instr) / plain * 100,
	}, nil
}

// runLargeBench measures the sweep at scale: a population of `chunks`
// unreferenced orphans (small payloads so millions fit in memory) swept
// in one pass, with foreground DeleteBlob latency sampled concurrently —
// the pair of numbers the off-critical-path GC design is judged on.
func runLargeBench(providers, chunks int) (*sweepB, *latB, error) {
	c, err := core.NewCluster(core.Options{
		Providers: providers, Monitoring: false, GCGraceEpochs: -1,
	})
	if err != nil {
		return nil, nil, err
	}
	cl := c.Client("bench")
	ctx := context.Background()

	// Foreground-delete victims: small single-version blobs deleted one
	// by one while the sweep runs.
	const nDel = 2000
	payload := make([]byte, 256)
	delBlobs := make([]uint64, 0, nDel)
	for i := 0; i < nDel; i++ {
		info, err := cl.Create(256)
		if err != nil {
			return nil, nil, err
		}
		copy(payload, fmt.Sprintf("del-%d", i))
		if _, err := cl.Write(info.ID, 0, payload); err != nil {
			return nil, nil, err
		}
		delBlobs = append(delBlobs, info.ID)
	}

	buf := make([]byte, 64)
	ids := c.Providers()
	for i := 0; i < chunks; i++ {
		copy(buf, fmt.Sprintf("large-orphan-%d", i))
		p, _ := c.Provider(ids[i%len(ids)])
		if err := p.Store(ctx, "stray", chunk.Sum(buf), buf); err != nil {
			return nil, nil, err
		}
	}

	start := time.Now()
	done := make(chan error, 1)
	var srep struct {
		scanned, swept int
		bytes          int64
	}
	go func() {
		rep, err := c.GC.Sweep(ctx, false)
		srep.scanned, srep.swept, srep.bytes = rep.Scanned, rep.Swept, rep.SweptBytes
		done <- err
	}()

	lats := make([]time.Duration, 0, nDel)
	during := 0
	for _, b := range delBlobs {
		t0 := time.Now()
		if err := c.GC.DeleteBlob(ctx, b); err != nil {
			return nil, nil, err
		}
		lats = append(lats, time.Since(t0))
		select {
		case err := <-done:
			if err != nil {
				return nil, nil, err
			}
			done = nil
		default:
			during++
		}
	}
	if done != nil {
		if err := <-done; err != nil {
			return nil, nil, err
		}
	}
	dur := time.Since(start)

	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	pct := func(q float64) float64 {
		idx := int(math.Ceil(q*float64(len(lats)))) - 1
		if idx < 0 {
			idx = 0
		}
		return float64(lats[idx].Nanoseconds()) / 1e3
	}
	return &sweepB{
			Chunks:       srep.scanned,
			Swept:        srep.swept,
			DurationMS:   float64(dur.Microseconds()) / 1000,
			ChunksPerSec: float64(srep.scanned) / dur.Seconds(),
			SweptMBps:    float64(srep.bytes) / (1 << 20) / dur.Seconds(),
		}, &latB{
			Deletes:     len(lats),
			DuringSweep: during,
			P50us:       pct(0.50),
			P99us:       pct(0.99),
			MaxUS:       pct(1),
		}, nil
}

// runMarkBench measures the mark phase over a shared-subtree-heavy
// population: `blobs` BLOBs, each with one base version writing its
// share of `liveChunks` slots and `versions` overwrite versions each
// rewriting a 64-slot window — so consecutive versions share almost
// their whole trees. The naive baseline re-walks every version's full
// tree single-threaded (exactly the pre-PR mark); the measured mark is
// gc's pruned, parallel one. Both are run `reps` times, best time kept.
// Afterwards a keep-last-1 retention pass plus a sweep measures
// metadata-node reclamation.
func runMarkBench(providers, liveChunks, versions int) (*markB, error) {
	const (
		blobs     = 8
		chunkSize = 256
		window    = 64
		reps      = 3
	)
	c, err := core.NewCluster(core.Options{
		Providers: providers, Monitoring: false, GCGraceEpochs: -1,
	})
	if err != nil {
		return nil, err
	}
	cl := c.Client("bench")
	ctx := context.Background()

	base := liveChunks / blobs
	if base < window*2 {
		base = window * 2
	}
	buf := make([]byte, chunkSize)
	for b := 0; b < blobs; b++ {
		info, err := cl.Create(chunkSize)
		if err != nil {
			return nil, err
		}
		bh, err := cl.Open(ctx, info.ID)
		if err != nil {
			return nil, err
		}
		w, err := bh.NewWriter(ctx, 0)
		if err != nil {
			return nil, err
		}
		for i := 0; i < base; i++ {
			copy(buf, fmt.Sprintf("mark-%d-%d", b, i))
			if _, err := w.Write(buf); err != nil {
				return nil, err
			}
		}
		if err := w.Close(); err != nil {
			return nil, err
		}
		// Overwrite versions: each rewrites one 64-slot window at a
		// shifting offset, so every version shares all but ~window leaves
		// and one root path with its predecessor.
		over := make([]byte, window*chunkSize)
		for v := 0; v < versions; v++ {
			off := int64((v * 97 % (base - window))) * chunkSize
			for s := 0; s < window; s++ {
				copy(over[s*chunkSize:], fmt.Sprintf("mark-%d-v%d-%d", b, v, s))
			}
			if _, err := cl.Write(info.ID, off, over); err != nil {
				return nil, err
			}
		}
	}

	// Naive baseline: the pre-PR mark — one full leaf walk per version,
	// one goroutine, one global set.
	naive := func() (int, error) {
		marked := make(map[chunk.ID]bool)
		for _, blob := range c.VM.Blobs() {
			vs, err := c.VM.Versions(blob)
			if err != nil {
				return 0, err
			}
			tree, err := c.VM.Tree(blob)
			if err != nil {
				return 0, err
			}
			for _, v := range vs {
				if v.Version == 0 {
					continue
				}
				err := tree.Walk(v.Version, 0, tree.Span(), func(_ int64, d chunk.Desc) error {
					if !d.ID.IsZero() {
						marked[d.ID] = true
					}
					return nil
				})
				if err != nil {
					return 0, err
				}
			}
		}
		return len(marked), nil
	}
	var naiveChunks int
	naiveBest := time.Duration(math.MaxInt64)
	for r := 0; r < reps; r++ {
		t0 := time.Now()
		n, err := naive()
		if err != nil {
			return nil, err
		}
		if d := time.Since(t0); d < naiveBest {
			naiveBest = d
		}
		naiveChunks = n
	}

	var mrep struct {
		blobs, versions, chunks, nodes int
	}
	markBest := time.Duration(math.MaxInt64)
	for r := 0; r < reps; r++ {
		t0 := time.Now()
		rep, err := c.GC.Mark(ctx)
		if err != nil {
			return nil, err
		}
		if d := time.Since(t0); d < markBest {
			markBest = d
		}
		mrep.blobs, mrep.versions, mrep.chunks, mrep.nodes = rep.Blobs, rep.Versions, rep.Chunks, rep.Nodes
	}
	// The pruned mark must reach exactly the naive walk's chunk set — a
	// free equivalence check on every bench run.
	if mrep.chunks != naiveChunks {
		return nil, fmt.Errorf("mark bench: pruned mark found %d chunks, naive walk %d", mrep.chunks, naiveChunks)
	}

	// Metadata-node reclamation: retire everything but the newest
	// version, then sweep.
	nodesBefore := c.VM.MetaStore().Len()
	for _, blob := range c.VM.Blobs() {
		if err := c.VM.SetRetention(blob, vmanager.Retention{KeepLast: 1}); err != nil {
			return nil, err
		}
	}
	if _, err := c.GC.EnforceRetention(ctx, time.Now()); err != nil {
		return nil, err
	}
	srep, err := c.GC.Sweep(ctx, false)
	if err != nil {
		return nil, err
	}

	return &markB{
		Blobs:             mrep.blobs,
		Versions:          mrep.versions,
		LiveChunks:        mrep.chunks,
		NodesVisited:      mrep.nodes,
		DurationMS:        float64(markBest.Microseconds()) / 1000,
		ChunksPerSec:      float64(mrep.chunks) / markBest.Seconds(),
		NaiveDurationMS:   float64(naiveBest.Microseconds()) / 1000,
		NaiveChunksPerSec: float64(naiveChunks) / naiveBest.Seconds(),
		SpeedupVsNaive:    naiveBest.Seconds() / markBest.Seconds(),
		NodesBefore:       nodesBefore,
		NodesSwept:        srep.NodesSwept,
		NodesAfter:        c.VM.MetaStore().Len(),
	}, nil
}

// readBaseline loads a previous report (the committed trajectory file)
// before it is overwritten, for the delta print.
func readBaseline(path string) *benchReport {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil
	}
	var r benchReport
	if json.Unmarshal(data, &r) != nil {
		return nil
	}
	return &r
}

// printDelta compares the fresh report with the committed baseline: the
// direct 10k chunks/s delta, and the large plane against the baseline's
// cost extrapolated as O(n²·log n) — what paging a full-rescan List
// would cost at that population.
func printDelta(base *benchReport, cur *benchReport) {
	if base == nil {
		return
	}
	if base.Sweep.ChunksPerSec > 0 {
		fmt.Fprintf(os.Stderr, "sweep 10k vs baseline: %.0f -> %.0f chunks/s (%.2fx)\n",
			base.Sweep.ChunksPerSec, cur.Sweep.ChunksPerSec,
			cur.Sweep.ChunksPerSec/base.Sweep.ChunksPerSec)
	}
	if m := cur.Mark; m != nil {
		fmt.Fprintf(os.Stderr,
			"mark %dk chunks / %d versions: pruned+parallel %.0f chunks/s vs naive full-rewalk %.0f (%.1fx); metadata nodes %d -> %d (swept %d)\n",
			m.LiveChunks/1000, m.Versions, m.ChunksPerSec, m.NaiveChunksPerSec,
			m.SpeedupVsNaive, m.NodesBefore, m.NodesAfter, m.NodesSwept)
		if base.Mark != nil && base.Mark.ChunksPerSec > 0 {
			fmt.Fprintf(os.Stderr, "mark vs baseline: %.0f -> %.0f chunks/s (%.2fx)\n",
				base.Mark.ChunksPerSec, m.ChunksPerSec, m.ChunksPerSec/base.Mark.ChunksPerSec)
		}
	}
	if cur.Obs != nil {
		fmt.Fprintf(os.Stderr, "observability: streamed read %.0f MB/s plain vs %.0f MB/s instrumented (%.1f%% overhead)\n",
			cur.Obs.PlainMBps, cur.Obs.MetricsMBps, cur.Obs.OverheadPct)
	}
	if cur.SweepLarge == nil {
		return
	}
	if base.SweepLarge != nil && base.SweepLarge.ChunksPerSec > 0 {
		fmt.Fprintf(os.Stderr, "sweep large vs baseline: %.0f -> %.0f chunks/s (%.2fx)\n",
			base.SweepLarge.ChunksPerSec, cur.SweepLarge.ChunksPerSec,
			cur.SweepLarge.ChunksPerSec/base.SweepLarge.ChunksPerSec)
	}
	n0, t0 := float64(base.Sweep.Chunks), base.Sweep.DurationMS/1e3
	n1 := float64(cur.SweepLarge.Chunks)
	if n0 > 1 && t0 > 0 && n1 > n0 {
		ext := t0 * (n1 / n0) * (n1 / n0) * (math.Log(n1) / math.Log(n0))
		fmt.Fprintf(os.Stderr,
			"sweep large: %.0f chunks/s measured; O(n^2 log n) rescan-List extrapolation of the %0.fk baseline: ~%.0f chunks/s (%.0fx)\n",
			cur.SweepLarge.ChunksPerSec, n0/1e3, n1/ext, cur.SweepLarge.ChunksPerSec/(n1/ext))
	}
	if cur.Deletes != nil {
		fmt.Fprintf(os.Stderr, "foreground DeleteBlob during large sweep: p50 %.0fus p99 %.0fus max %.0fus (%d/%d during sweep)\n",
			cur.Deletes.P50us, cur.Deletes.P99us, cur.Deletes.MaxUS,
			cur.Deletes.DuringSweep, cur.Deletes.Deletes)
	}
}

// runBench measures (1) mark-and-sweep throughput over a cluster holding
// about `chunks` chunks, half of them unreferenced orphans, (2) the
// large sweep plane with concurrent foreground-delete latency, (3) the
// mark-phase plane over multi-version shared-subtree BLOBs, and (4)
// streaming read throughput with and without the lifecycle runner
// sweeping concurrently.
func runBench(providers, chunks, large, markChunks, markVersions int, out string) error {
	baseline := readBaseline(out)
	const chunkSize = 4 << 10
	c, err := core.NewCluster(core.Options{
		Providers: providers, Monitoring: false, GCGraceEpochs: -1,
	})
	if err != nil {
		return err
	}
	cl := c.Client("bench")
	ctx := context.Background()

	// Live population: half the target, written through the client.
	live := chunks / 2
	info, err := cl.Create(chunkSize)
	if err != nil {
		return err
	}
	b, err := cl.Open(ctx, info.ID)
	if err != nil {
		return err
	}
	w, err := b.NewWriter(ctx, 0)
	if err != nil {
		return err
	}
	buf := make([]byte, chunkSize)
	for i := 0; i < live; i++ {
		// Distinct content per slot so the population is `live` chunks.
		copy(buf, fmt.Sprintf("live-chunk-%d", i))
		if _, err := w.Write(buf); err != nil {
			return err
		}
	}
	if err := w.Close(); err != nil {
		return err
	}

	// Orphan population: stored directly on providers, referenced by no
	// metadata — the RPC-plane accounting gap at scale.
	ids := c.Providers()
	for i := live; i < chunks; i++ {
		copy(buf, fmt.Sprintf("orphan-chunk-%d", i))
		p, _ := c.Provider(ids[i%len(ids)])
		if err := p.Store(ctx, "stray", chunk.Sum(buf), buf); err != nil {
			return err
		}
	}

	start := time.Now()
	rep, err := c.GC.Sweep(ctx, false)
	if err != nil {
		return err
	}
	dur := time.Since(start)
	sb := sweepB{
		Chunks:       rep.Scanned,
		Swept:        rep.Swept,
		DurationMS:   float64(dur.Microseconds()) / 1000,
		ChunksPerSec: float64(rep.Scanned) / dur.Seconds(),
		SweptMBps:    float64(rep.SweptBytes) / (1 << 20) / dur.Seconds(),
	}

	// Streaming read throughput, averaged over several full-blob passes
	// so the measurement outlasts a few sweep periods.
	const readPasses = 4
	readAll := func() (float64, error) {
		var total int64
		t0 := time.Now()
		for i := 0; i < readPasses; i++ {
			rd, err := b.NewReader(ctx, 0, 0, -1)
			if err != nil {
				return 0, err
			}
			n, err := io.Copy(io.Discard, rd)
			rd.Close()
			if err != nil {
				return 0, err
			}
			total += n
		}
		return float64(total) / (1 << 20) / time.Since(t0).Seconds(), nil
	}
	offMBps, err := readAll()
	if err != nil {
		return err
	}

	// The same read with the lifecycle runner sweeping concurrently at a
	// production-like cadence.
	runner := c.GCRunner(25 * time.Millisecond)
	rctx, cancel := context.WithCancel(ctx)
	done := make(chan struct{})
	go func() { defer close(done); _ = runner.Run(rctx) }()
	onMBps, err := readAll()
	cancel()
	<-done
	if err != nil {
		return err
	}
	_, _, passes := runner.LastReports()

	report := benchReport{
		Time:      time.Now().UTC().Format(time.RFC3339),
		Providers: providers,
		Sweep:     sb,
		Stream: streamB{
			Bytes:       int64(live) * chunkSize * readPasses,
			GCOffMBps:   offMBps,
			GCOnMBps:    onMBps,
			SweepPasses: passes,
		},
	}
	if large > 0 {
		report.SweepLarge, report.Deletes, err = runLargeBench(providers, large)
		if err != nil {
			return err
		}
	}
	if markChunks > 0 {
		report.Mark, err = runMarkBench(providers, markChunks, markVersions)
		if err != nil {
			return err
		}
	}
	report.Obs, err = runObsBench(providers, chunks)
	if err != nil {
		return err
	}
	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if err := os.WriteFile(out, data, 0o644); err != nil {
		return err
	}
	fmt.Printf("%s", data)
	fmt.Fprintf(os.Stderr, "wrote %s\n", out)
	printDelta(baseline, &report)
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
