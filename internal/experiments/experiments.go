package experiments

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"time"

	"blobseer/internal/cloudsim"
	"blobseer/internal/core"
	"blobseer/internal/history"
	"blobseer/internal/metrics"
	"blobseer/internal/policy"
	"blobseer/internal/s3gate"
	"blobseer/internal/selfconfig"
	"blobseer/internal/trust"
)

// Scale controls experiment size: Full reproduces the paper's parameters;
// Quick shrinks sweeps for CI and testing.Benchmark use.
type Scale struct {
	Quick bool
}

const mb = cloudsim.MB

// correct client profile used across the C-experiments: streaming writer,
// GbE NIC, 256 MiB ops striped over 4 providers.
func correctProfile() cloudsim.Profile {
	return cloudsim.Profile{Stripe: 4, OpBytes: 256 << 20, NIC: 125 * mb}
}

func attackerProfile(stripe int, startAt time.Duration) cloudsim.Profile {
	return cloudsim.Profile{
		Malicious: true, Stripe: stripe, OpBytes: 64 << 20, StartAt: startAt,
	}
}

// ExpB reproduces Section IV.B: the impact of the introspection
// architecture on BlobSeer data-access performance. 150 providers,
// clients sweeping 5→80, each writing 1 GB; throughput with the
// monitoring layers off vs on, plus the generated monitoring-parameter
// count (the paper reports ≥10,000 at 80 clients with no measurable
// throughput impact).
func ExpB(s Scale) *Table {
	t := &Table{
		ID:      "EXP-B",
		Title:   "Introspection overhead: 150 providers, N clients × 1 GB writes",
		Columns: []string{"clients", "agg_MBs_off", "agg_MBs_on", "overhead_%", "mon_params"},
	}
	sweep := []int{5, 10, 20, 40, 60, 80}
	if s.Quick {
		sweep = []int{5, 20}
	}
	for _, n := range sweep {
		off, _ := expBRun(n, false)
		on, params := expBRun(n, true)
		overhead := 0.0
		if off > 0 {
			overhead = (off - on) / off * 100
		}
		t.Add(n, off, on, fmt.Sprintf("%.2f", overhead), params)
	}
	t.Note("paper: throughput not influenced by introspection; params reach 10,000 beyond 80 clients")
	return t
}

// expBRun returns (aggregate MB/s, monitoring params).
func expBRun(clients int, monitoring bool) (float64, int) {
	d, err := cloudsim.NewDeployment(cloudsim.Config{
		Providers:  150,
		Monitoring: monitoring,
		Security:   false,
		Seed:       42,
	})
	if err != nil {
		panic(err)
	}
	var cs []*cloudsim.Client
	for i := 0; i < clients; i++ {
		p := correctProfile()
		p.TotalBytes = 1 << 30
		cs = append(cs, d.AddClient(fmt.Sprintf("c%02d", i), p))
	}
	d.Run(10 * time.Minute)
	var last time.Duration
	var bytesDone int64
	for _, c := range cs {
		if c.FinishedAt() > last {
			last = c.FinishedAt()
		}
		bytesDone += c.BytesDone()
	}
	if last == 0 {
		return 0, 0
	}
	return float64(bytesDone) / mb / last.Seconds(), d.MonParams
}

// ExpC1 reproduces the first Section IV.C experiment: the evolution in
// time of the aggregate throughput of correct writers while the system is
// under a DoS attack, with the policy framework detecting and blocking
// the attackers. The paper reports a sudden drop (up to ~70 %) at attack
// start and recovery toward the initial value once attackers are blocked.
func ExpC1(s Scale) *Table {
	t := &Table{
		ID:      "EXP-C1",
		Title:   "Aggregate correct-client throughput over time under DoS (security on)",
		Columns: []string{"t_s", "agg_MBs", "blocked_attackers"},
	}
	horizon := 5 * time.Minute
	if s.Quick {
		horizon = 3 * time.Minute
	}
	attackAt := 60 * time.Second

	d, err := cloudsim.NewDeployment(cloudsim.Config{
		Providers: 48, Security: true, Seed: 7,
		MonDelay: 10 * time.Second, EnginePeriod: 10 * time.Second,
	})
	if err != nil {
		panic(err)
	}
	for i := 0; i < 20; i++ {
		d.AddClient(fmt.Sprintf("good%02d", i), correctProfile())
	}
	for i := 0; i < 10; i++ {
		d.AddClient(fmt.Sprintf("evil%02d", i),
			attackerProfile(64, attackAt+time.Duration(i)*time.Second))
	}
	blockedAt := map[time.Duration]int{}
	d.Sim.Every(5*time.Second, func() bool {
		blockedAt[d.Sim.Elapsed()] = len(d.Enf.BlockedUsers())
		return true
	})
	d.Run(horizon)

	for ts := 5 * time.Second; ts <= horizon; ts += 5 * time.Second {
		agg := d.AggregateThroughputMBs(ts-5*time.Second, ts)
		t.Add(int(ts.Seconds()), agg, blockedAt[ts])
	}
	base := d.AggregateThroughputMBs(10*time.Second, attackAt-5*time.Second)
	dip := base
	for ts := attackAt; ts <= attackAt+40*time.Second; ts += 5 * time.Second {
		if v := d.AggregateThroughputMBs(ts, ts+5*time.Second); v < dip {
			dip = v
		}
	}
	rec := d.AggregateThroughputMBs(horizon-60*time.Second, horizon)
	t.Note("baseline %.0f MB/s; deepest attack bucket %.0f MB/s (dip %.0f%%); after blocking %.0f MB/s (recovery %.0f%% of baseline)",
		base, dip, (base-dip)/base*100, rec, rec/base*100)
	t.Note("paper: initial throughput drops up to 70%% at attack start, then recovers once attackers are blocked")
	return t
}

// ExpC2 reproduces the second Section IV.C experiment: per-client
// throughput vs the number of concurrent writers, for three
// configurations — all correct; 50 % malicious with no security; 50 %
// malicious with the policy framework. The paper reports a flat
// ~110 MB/s baseline, a drop below 50 MB/s past 30 clients when
// unprotected, and recovery once the framework blocks the attackers.
func ExpC2(s Scale) *Table {
	t := &Table{
		ID:      "EXP-C2",
		Title:   "Per-client write throughput vs concurrent clients (50% malicious)",
		Columns: []string{"clients", "all_correct_MBs", "attack_nosec_MBs", "attack_sec_MBs"},
	}
	sweep := []int{10, 20, 30, 40, 50}
	if s.Quick {
		sweep = []int{10, 30}
	}
	for _, n := range sweep {
		base := expC2Run(n, 0, false)
		noSec := expC2Run(n, n/2, false)
		withSec := expC2Run(n, n/2, true)
		t.Add(n, base, noSec, withSec)
	}
	t.Note("paper: ~110 MB/s flat when all-correct; <50 MB/s beyond 30 clients unprotected; recovery with the security framework")
	return t
}

// expC2Run returns the steady-state mean per-correct-client MB/s.
func expC2Run(total, malicious int, security bool) float64 {
	d, err := cloudsim.NewDeployment(cloudsim.Config{
		Providers: 48, Security: security, Seed: int64(total*100 + malicious),
		MonDelay: 10 * time.Second, EnginePeriod: 10 * time.Second,
	})
	if err != nil {
		panic(err)
	}
	correct := total - malicious
	for i := 0; i < correct; i++ {
		d.AddClient(fmt.Sprintf("good%02d", i), correctProfile())
	}
	for i := 0; i < malicious; i++ {
		d.AddClient(fmt.Sprintf("evil%02d", i),
			attackerProfile(32, time.Duration(i)*time.Second))
	}
	horizon := 4 * time.Minute
	d.Run(horizon)
	if security {
		// Steady state after detection/blocking.
		return d.CorrectThroughputMBs(2*time.Minute, horizon)
	}
	return d.CorrectThroughputMBs(30*time.Second, horizon)
}

// ExpC3 reproduces the third Section IV.C experiment: detection delay as
// the malicious fraction of 50 clients sweeps 10 %→70 %, plus the
// correct clients' 1 GB write duration. The paper reports first
// detections around 20 s, last detections around 55 s, and write
// durations rising toward 40 s at 70 % malicious.
func ExpC3(s Scale) *Table {
	t := &Table{
		ID:      "EXP-C3",
		Title:   "Detection delay and write duration vs malicious fraction (50 clients)",
		Columns: []string{"malicious_%", "first_detect_s", "last_detect_s", "detected", "write_dur_s"},
	}
	sweep := []int{10, 20, 30, 40, 50, 60, 70}
	if s.Quick {
		sweep = []int{10, 70}
	}
	for _, pct := range sweep {
		first, last, detected, dur := expC3Run(pct)
		t.Add(pct, first, last, detected, dur)
	}
	t.Note("paper: first malicious client detected in ~20 s, last in ~55 s; correct write duration rises toward ~40 s at 70%% malicious")
	return t
}

func expC3Run(maliciousPct int) (first, last float64, detected int, writeDur float64) {
	const total = 50
	malicious := total * maliciousPct / 100
	d, err := cloudsim.NewDeployment(cloudsim.Config{
		Providers: 48, Security: true, Seed: int64(maliciousPct),
		MonDelay: 10 * time.Second, EnginePeriod: 10 * time.Second,
	})
	if err != nil {
		panic(err)
	}
	var correctClients []*cloudsim.Client
	for i := 0; i < total-malicious; i++ {
		p := correctProfile()
		p.OpBytes = 1 << 30 // the paper measures 1 GB write durations
		correctClients = append(correctClients, d.AddClient(fmt.Sprintf("good%02d", i), p))
	}
	stagger := 20 * time.Second / time.Duration(max(malicious, 1))
	for i := 0; i < malicious; i++ {
		d.AddClient(fmt.Sprintf("evil%02d", i),
			attackerProfile(32, time.Duration(i)*stagger))
	}
	d.Run(6 * time.Minute)
	delays := d.DetectionDelays()
	detected = len(delays)
	lastAbs := 120.0
	if detected > 0 {
		first = delays[0].Seconds()
		last = delays[detected-1].Seconds()
		lastAbs = 0
		for u, det := range d.Eng.DetectedUsers() {
			_ = u
			if s := det.Sub(cloudsim.Epoch).Seconds(); s > lastAbs {
				lastAbs = s
			}
		}
	}
	// The paper measures the duration of the 1 GB writes performed while
	// the attack is in progress: ops started before the last attacker was
	// neutralized.
	var durs []float64
	for _, c := range correctClients {
		for _, r := range c.OpRecords() {
			if r.StartS <= lastAbs {
				durs = append(durs, r.DurS)
			}
		}
	}
	if len(durs) > 0 {
		writeDur = metrics.Percentile(durs, 75)
	}
	return first, last, detected, writeDur
}

// ExpD reproduces the Section V Cumulus/S3 integration result: BlobSeer
// as an S3-compatible storage back end sustaining concurrent transfers.
// It measures real PUT/GET throughput through the HTTP gateway over an
// in-process cluster at increasing client concurrency.
func ExpD(s Scale) *Table {
	t := &Table{
		ID:      "EXP-D",
		Title:   "S3 gateway (Cumulus equivalent): transfer rate vs concurrency",
		Columns: []string{"concurrency", "put_MBs", "get_MBs"},
	}
	objectSize := 4 << 20
	sweep := []int{1, 2, 4, 8, 16, 32}
	if s.Quick {
		sweep = []int{1, 4}
		objectSize = 1 << 20
	}
	cluster, err := core.NewCluster(core.Options{Providers: 8, Monitoring: false})
	if err != nil {
		panic(err)
	}
	srv := httptest.NewServer(s3gate.New(cluster))
	defer srv.Close()
	mustDo(http.MethodPut, srv.URL+"/bench", nil)

	payload := bytes.Repeat([]byte("cumulus-blobseer"), objectSize/16)
	for _, conc := range sweep {
		put := timedOps(conc, func(worker, i int) {
			mustDo(http.MethodPut, fmt.Sprintf("%s/bench/w%d-o%d", srv.URL, worker, i), payload)
		})
		get := timedOps(conc, func(worker, i int) {
			resp := mustDo(http.MethodGet, fmt.Sprintf("%s/bench/w%d-o%d", srv.URL, worker, i), nil)
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		})
		opsPer := 4
		putMBs := float64(conc*opsPer*len(payload)) / mb / put.Seconds()
		getMBs := float64(conc*opsPer*len(payload)) / mb / get.Seconds()
		t.Add(conc, putMBs, getMBs)
	}
	t.Note("paper: preliminary results show a promising transfer rate with efficient concurrent-access support")
	t.Note("measured on the in-process real plane (memory-backed providers), so absolute numbers reflect host speed")
	return t
}

func timedOps(conc int, op func(worker, i int)) time.Duration {
	const opsPer = 4
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < conc; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < opsPer; i++ {
				op(w, i)
			}
		}(w)
	}
	wg.Wait()
	return time.Since(start)
}

func mustDo(method, url string, body []byte) *http.Response {
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		panic(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		panic(err)
	}
	if method != http.MethodGet {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	if resp.StatusCode >= 300 {
		panic(fmt.Sprintf("%s %s: status %d", method, url, resp.StatusCode))
	}
	return resp
}

// DD1 demonstrates Section V's self-configuration direction: the
// elasticity controller expanding and contracting the provider pool as a
// diurnal load passes through the system, vs a static pool.
func DD1(s Scale) *Table {
	t := &Table{
		ID:      "DD-1",
		Title:   "Self-configuration: provider pool under a load swing (elastic vs static)",
		Columns: []string{"t_s", "clients", "providers", "mean_load"},
	}
	d, err := cloudsim.NewDeployment(cloudsim.Config{
		Providers: 8, Security: false, Seed: 3,
	})
	if err != nil {
		panic(err)
	}
	cfg := selfconfig.DefaultConfig()
	cfg.TargetLoad, cfg.LowWater, cfg.HighWater = 2, 1, 4
	cfg.Min, cfg.Max = 4, 64
	cfg.Cooldown = 20 * time.Second
	cfg.MaxStep = 8
	ctl, err := selfconfig.New(cfg, d)
	if err != nil {
		panic(err)
	}
	d.Sim.Every(10*time.Second, func() bool {
		ctl.Tick(d.Sim.Now(), d.MeanProviderLoad())
		return true
	})

	phase := func(start time.Duration, n int) {
		for i := 0; i < n; i++ {
			p := correctProfile()
			p.StartAt = start
			p.StopAt = start + 100*time.Second
			d.AddClient(fmt.Sprintf("u%v-%d", start, i), p)
		}
	}
	phase(0, 4)                // low load
	phase(100*time.Second, 32) // peak
	phase(200*time.Second, 4)  // back to low

	type sample struct {
		t    time.Duration
		prov int
		load float64
	}
	var samples []sample
	horizon := 300 * time.Second
	if s.Quick {
		horizon = 150 * time.Second
	}
	d.Sim.Every(20*time.Second, func() bool {
		samples = append(samples, sample{d.Sim.Elapsed(), d.PoolSize(), d.MeanProviderLoad()})
		return true
	})
	d.Run(horizon)
	for _, smp := range samples {
		clients := 4
		if smp.t > 100*time.Second && smp.t <= 200*time.Second {
			clients = 32
		}
		if smp.t > 300*time.Second {
			clients = 4
		}
		t.Add(int(smp.t.Seconds()), clients, smp.prov, smp.load)
	}
	t.Note("elasticity actions taken: %d (pool expands at peak, contracts after)", ctl.Actions())
	return t
}

// DD2 demonstrates Section V's self-optimization direction on the real
// plane: replication degree maintained under provider failures, and
// cold-data removal reclaiming space.
func DD2(ctx context.Context, s Scale) *Table {
	t := &Table{
		ID:      "DD-2",
		Title:   "Self-optimization: replication repair after provider failures",
		Columns: []string{"failed_providers", "under_replicated", "repaired", "readable_after"},
	}
	blobs := 12
	if s.Quick {
		blobs = 4
	}
	for _, kill := range []int{1, 2, 3} {
		cluster, err := core.NewCluster(core.Options{
			Providers: 10, Replicas: 2, Monitoring: false,
		})
		if err != nil {
			panic(err)
		}
		cl := cluster.Client("u")
		payload := bytes.Repeat([]byte("replicated"), 200)
		var ids []uint64
		for i := 0; i < blobs; i++ {
			info, err := cl.Create(ctx, 256)
			if err != nil {
				panic(err)
			}
			if _, err := cl.Write(ctx, info.ID, 0, payload); err != nil {
				panic(err)
			}
			ids = append(ids, info.ID)
		}
		// Spaced victims model independent node failures; round-robin
		// placement puts replica pairs on adjacent providers, so killing
		// adjacent nodes would be a correlated double failure that
		// degree-2 replication cannot survive (and the run would rightly
		// report data loss).
		all := cluster.Providers()
		for i := 0; i < kill; i++ {
			if err := cluster.RemoveProvider(all[(i*3)%len(all)]); err != nil {
				panic(err)
			}
		}
		report, _ := cluster.Heal(ctx, time.Now())
		readable := 0
		for _, id := range ids {
			if got, err := cl.Read(ctx, id, 0, 0, int64(len(payload))); err == nil && bytes.Equal(got, payload) {
				readable++
			}
		}
		t.Add(kill, report.UnderReplicated, report.Repaired,
			fmt.Sprintf("%d/%d", readable, blobs))
	}
	t.Note("replication degree 2 over 10 providers; repair publishes fresh metadata versions")
	return t
}

// DD3 demonstrates Section V's self-protection direction: trust-adaptive
// policies. A repeat offender's trust decays, so the stricter low-trust
// policy threshold catches it much faster on its next offense, while a
// first-time offender at the same (low) rate is not blocked.
func DD3(s Scale) *Table {
	t := &Table{
		ID:      "DD-3",
		Title:   "Trust management: adaptive thresholds for repeat offenders",
		Columns: []string{"phase", "user", "trust", "violations", "blocked"},
	}
	t0 := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	now := t0
	clock := func() time.Time { return now }

	hist := history.New()
	tm := trust.New(trust.WithClock(clock), trust.WithRecoveryHalfLife(time.Hour))
	enf := policy.NewEnforcer(policy.WithClock(clock))
	sink := trust.Sink{Inner: enf, Trust: tm}
	// Full-trust users need >100 writes/10s; distrusted users only >20.
	eng := policy.NewEngine(hist, policy.MustParse(`
policy flood {
    when rate(write, 10s) > 100
    severity high
    then block(60s), log()
}
policy flood_lowtrust {
    when trust() < 0.5 and rate(write, 10s) > 20
    severity high
    then block(600s), log()
}`), sink, policy.WithTrust(tm), policy.WithCooldown(5*time.Second))

	burst := func(user string, ops int, dur time.Duration) {
		step := dur / time.Duration(ops)
		for i := 0; i < ops; i++ {
			hist.Append(history.Event{Time: now, User: user, Op: "write", Bytes: 1 << 20, OK: true})
			now = now.Add(step)
		}
		eng.Evaluate(now)
	}
	record := func(phase string, user string) {
		vio := 0
		for _, v := range enf.Violations() {
			if v.User == user {
				vio++
			}
		}
		t.Add(phase, user, fmt.Sprintf("%.2f", tm.Value(user)), vio, enf.Blocked(user))
	}

	// Phase 1: repeat offends hard (150 ops/10s → caught by base policy);
	// onetime stays moderate (30 ops/10s → under base threshold).
	burst("repeat", 1500, 10*time.Second)
	burst("onetime", 300, 100*time.Second)
	record("after_first_offense", "repeat")
	record("after_first_offense", "onetime")

	// Wait out the 60 s block.
	now = now.Add(2 * time.Minute)
	// Phase 2: both issue the same moderate 30 ops/10 s burst. The repeat
	// offender's low trust triggers the adaptive policy; the first-timer
	// passes.
	burst("repeat", 300, 100*time.Second)
	burst("onetime", 300, 100*time.Second)
	record("after_moderate_burst", "repeat")
	record("after_moderate_burst", "onetime")
	t.Note("the adaptive policy (trust() < 0.5 and rate > 20) catches the repeat offender at a rate a first-time user may sustain")
	return t
}
