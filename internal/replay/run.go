package replay

import (
	"context"
	"errors"
	"fmt"
	"os"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"
)

// Config is one run of one workload.
type Config struct {
	Workload Workload
	Seed     int64
	// Seconds is how long the run measures. An untraced run measures one
	// phase that long; a traced run splits it into an untraced reference
	// half and a traced half, so tracing overhead comes out of one run.
	Seconds int
	Trace   bool
	// DataDir is where a fresh directory for the providers' segment files is
	// made, and removed on exit.
	DataDir  string
	TraceOut string // write the traced phase's spans here as JSON lines

	// The benchmark runs the values DefaultConfig gives these; tests shrink
	// them.
	Sizes  Sizes
	Warmup time.Duration
}

// DefaultConfig is the benchmark's fixed run shape.
func DefaultConfig() Config {
	return Config{
		Seconds: 20,
		Sizes:   DefaultSizes,
		Warmup:  3 * time.Second,
	}
}

// procSnap is the process's resource counters, and the lifecycle layer's, at
// one instant.
type procSnap struct {
	at        int64
	user, sys time.Duration
	alloc     uint64
	numGC     uint32
	pauseNs   uint64
	maxRSSKB  int64

	// Chunk replicas the lifecycle layer has freed: by sweeps, and by the
	// refcount decrements the gateway's overwrites and deletes issue through
	// GC.DeleteBlob, which is how nearly all of them go.
	reclaimed int64
	// Bytes the providers have taken in and bytes their stores hold live;
	// what came in and is no longer held was reclaimed.
	storeIn, storeLive int64
}

func snapProc(t *Tracer, rig *Rig) procSnap {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // fails only on a bad pointer
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	p := procSnap{
		at:    t.now(),
		user:  time.Duration(ru.Utime.Nano()),
		sys:   time.Duration(ru.Stime.Nano()),
		alloc: ms.TotalAlloc, numGC: ms.NumGC, pauseNs: ms.PauseTotalNs,
		maxRSSKB: ru.Maxrss,
	}
	gs := rig.Cluster.GC.Stats()
	p.reclaimed = gs.SweptChunks + gs.ReclaimedRefs
	for _, id := range rig.Cluster.Providers() {
		prov, _ := rig.Cluster.Provider(id)
		p.storeIn += prov.Stats().BytesIn
	}
	for _, st := range rig.stores {
		p.storeLive += st.Used()
	}
	return p
}

// pass is one harness-driven lifecycle pass, timed around Runner.Pass.
type pass struct{ start, end int64 }

// background drives what the shipped gateway leaves to timers: the
// control-plane tick and, on workloads that schedule them, lifecycle passes.
type background struct {
	wg     sync.WaitGroup
	mu     sync.Mutex
	passes []pass
	err    error
}

func (b *background) fail(err error) {
	b.mu.Lock()
	b.err = errors.Join(b.err, err)
	b.mu.Unlock()
}

func (b *background) start(ctx context.Context, rig *Rig, t *Tracer, gcEvery time.Duration) {
	b.wg.Add(1)
	go func() {
		defer b.wg.Done()
		tick := time.NewTicker(tickEvery)
		defer tick.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case now := <-tick.C:
				rig.Cluster.Tick(now)
				if n := rig.DiskBytes(); n > maxDiskBytes {
					b.fail(fmt.Errorf("data dir grew to %d MiB: GC is not bounding it", n>>20))
					return
				}
			}
		}
	}()
	if gcEvery == 0 {
		return
	}
	b.wg.Add(1)
	go func() {
		defer b.wg.Done()
		runner := rig.Cluster.GCRunner(gcEvery)
		tick := time.NewTicker(gcEvery)
		defer tick.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-tick.C:
			}
			start := t.now()
			ret, swp := runner.Pass(ctx)
			if ctx.Err() != nil {
				return
			}
			if ret.Err != "" || swp.Err != "" {
				b.fail(fmt.Errorf("gc pass: retention %q sweep %q", ret.Err, swp.Err))
			}
			b.mu.Lock()
			b.passes = append(b.passes, pass{start, t.now()})
			b.mu.Unlock()
		}
	}()
}

// bench is one assembled, preloaded deployment and the load generator's
// side of it.
type bench struct {
	rig   *Rig
	d     *dataset
	conns []*conn
}

func (b *bench) close() error {
	for _, c := range b.conns {
		c.close()
	}
	return b.rig.Close()
}

// setup assembles a rig in a fresh directory and preloads the dataset
// through the gateway, both connections in parallel. It returns the wall time
// of the two together.
func setup(ctx context.Context, cfg Config, t *Tracer) (_ *bench, took time.Duration, err error) {
	b := &bench{d: newDataset(cfg.Seed, cfg.Sizes)}
	dir := fmt.Sprintf("%s/replay-%d", cfg.DataDir, os.Getpid())
	began := time.Now()
	if b.rig, err = Assemble(ctx, dir, t); err != nil {
		return nil, 0, err
	}
	defer func() {
		if err != nil {
			_ = b.close()
		}
	}()
	for i := 0; i < Conns; i++ {
		b.conns = append(b.conns, newConn(i, b.rig.URL, t, len(b.d.base)))
	}
	for _, bk := range b.d.buckets() {
		if err := b.conns[0].makeBucket(ctx, bk.name); err != nil {
			return nil, 0, err
		}
	}
	errs := make([]error, Conns)
	var wg sync.WaitGroup
	for i, c := range b.conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = c.preload(ctx, b.d)
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return nil, 0, fmt.Errorf("preload: %w", err)
	}
	return b, time.Since(began), nil
}

// Run sets up, warms up, measures and verifies one workload.
func Run(ctx context.Context, cfg Config) (res *Result, err error) {
	t := NewTracer()
	w := cfg.Workload

	// Phase 1: set-up.
	b, setupTook, err := setup(ctx, cfg, t)
	if err != nil {
		return nil, err
	}
	defer func() { err = errors.Join(err, b.close()) }()
	rig, d, conns := b.rig, b.d, b.conns

	// Phases 2-4: warm-up, then the measured phase(s), cut out of one
	// continuous stream per connection by completion time.
	runtime.GC()
	measured := time.Duration(cfg.Seconds) * time.Second
	bounds := []time.Duration{cfg.Warmup, cfg.Warmup + measured}
	if cfg.Trace {
		bounds = []time.Duration{cfg.Warmup, cfg.Warmup + measured/2, cfg.Warmup + measured}
	}
	loadCtx, stopLoad := context.WithCancel(ctx)
	defer stopLoad()
	var bg background
	bg.start(loadCtx, rig, t, w.GCEvery)
	streamStart := t.now()
	stop := streamStart + int64(bounds[len(bounds)-1])
	var wg sync.WaitGroup
	for i, g := range w.streams(d, cfg.Seed) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			conns[i].run(loadCtx, g, streamStart, stop)
		}()
	}
	snaps := make([]procSnap, len(bounds))
	for i, at := range bounds {
		select {
		case <-time.After(time.Duration(streamStart + int64(at) - t.now())):
		case <-ctx.Done():
		}
		snaps[i] = snapProc(t, rig)
		// Tracing covers exactly the last phase of a traced run.
		t.on.Store(cfg.Trace && i == len(bounds)-2)
	}
	wg.Wait()
	diskEnd := rig.DiskBytes()
	stopLoad()
	bg.wg.Wait()
	if err := errors.Join(ctx.Err(), bg.err); err != nil {
		return nil, err
	}

	// Phase 5: verify, untimed.
	attempted, failed := 0, 0
	for _, c := range conns {
		attempted += len(c.samples)
		for _, s := range c.samples {
			if !s.ok {
				failed++
			}
		}
	}
	vAttempted, vFailed := verifyAll(ctx, conns, d)
	res = &Result{
		Workload: w.Name, Seed: cfg.Seed, Seconds: cfg.Seconds, Trace: cfg.Trace, DataDir: cfg.DataDir,
		Samples:   map[string]int{},
		Attempted: attempted + vAttempted,
		Failed:    failed + vFailed,
	}
	// A failed op is a wrong status, a wrong body or a timeout; the
	// workloads are chosen so that none occurs.
	res.Correct = res.Failed == 0

	last := summarize(conns, w, snaps[len(snaps)-2], snaps[len(snaps)-1])
	if !cfg.Trace {
		res.Metrics = endToEnd(res, last, setupTook.Seconds())
		return res, nil
	}
	ref := summarize(conns, w, snaps[0], snaps[1])
	spans := t.take()
	if cfg.TraceOut != "" {
		if err := writeTrace(cfg.TraceOut, spans, conns); err != nil {
			return nil, err
		}
	}
	la, err := analyze(spans, conns, w, last)
	if err != nil {
		return nil, fmt.Errorf("trace: %w", err)
	}
	res.Metrics, err = perLayer(res, w, la, last, ref, bg.passes, diskEnd, d.liveBytes())
	return res, err
}

func verifyAll(ctx context.Context, conns []*conn, d *dataset) (attempted, failed int) {
	var mu sync.Mutex
	var wg sync.WaitGroup
	for _, c := range conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			a, f := c.verify(ctx, d)
			mu.Lock()
			attempted, failed = attempted+a, failed+f
			mu.Unlock()
		}()
	}
	wg.Wait()
	return attempted, failed
}

// phaseStats is what the load generator saw in one phase.
type phaseStats struct {
	lo, hi    procSnap
	ops       int // closed-loop ops that completed in the phase and passed
	userBytes int64
	opsPerS   float64
	goodput   float64   // MB/s, MB = 1e6 B
	lat, ttfb []float64 // ms, primary op only, sorted
	late      []float64 // ms, paced ops, sorted
}

// summarize cuts [lo.at, hi.at) out of every connection's samples. Rates are
// over closed-loop ops only and latencies over the primary op only; a failed
// op counts for neither.
func summarize(conns []*conn, w Workload, lo, hi procSnap) phaseStats {
	p := phaseStats{lo: lo, hi: hi}
	var ends []int64
	var ones, mb []float64
	for _, c := range conns {
		for _, s := range c.samples {
			if s.end < lo.at || s.end >= hi.at || !s.ok {
				continue
			}
			if s.paced {
				p.late = append(p.late, float64(s.late)/1e6)
			}
			if s.churn {
				continue
			}
			p.ops++
			p.userBytes += int64(s.bytes)
			ends, ones, mb = append(ends, s.end), append(ones, 1), append(mb, float64(s.bytes)/1e6)
			if s.kind == w.Primary {
				p.lat = append(p.lat, float64(s.end-s.start)/1e6)
				p.ttfb = append(p.ttfb, float64(s.first-s.start)/1e6)
			}
		}
	}
	p.opsPerS = sliceMedian(lo.at, hi.at, ends, ones)
	p.goodput = sliceMedian(lo.at, hi.at, ends, mb)
	sort.Float64s(p.lat)
	sort.Float64s(p.ttfb)
	sort.Float64s(p.late)
	return p
}

func (p phaseStats) perOp(d time.Duration) float64 {
	return float64(d) / 1e6 / float64(max(p.ops, 1))
}

func endToEnd(res *Result, p phaseStats, setupS float64) map[string]Value {
	res.Samples["lat_p50_ms"], res.Samples["ttfb_p50_ms"] = len(p.lat), len(p.ttfb)
	if q, ok := tailPercentile(len(p.lat)); ok {
		res.TailPct, res.TailMs = 100*q, quantile(p.lat, q)
	}
	m := map[string]float64{
		"setup_s":       setupS,
		"ops_per_s":     p.opsPerS,
		"goodput_mbps":  p.goodput,
		"lat_p50_ms":    quantile(p.lat, 0.50),
		"ttfb_p50_ms":   quantile(p.ttfb, 0.50),
		"cpu_ms_per_op": p.perOp(p.hi.user - p.lo.user + p.hi.sys - p.lo.sys),
	}
	return values(EndToEnd, m)
}

func (d *dataset) liveBytes() int64 {
	var n int64
	for _, b := range d.buckets() {
		for _, st := range b.keys {
			if st.live {
				n += int64(b.objSize)
			}
		}
	}
	return n
}
