package cloudsim

import (
	"fmt"
	"testing"
	"time"
)

func baseCfg() Config {
	return Config{
		Providers:  48,
		Monitoring: false,
		Security:   false,
		Seed:       1,
	}
}

func addCorrect(d *Deployment, n int, total int64) []*Client {
	out := make([]*Client, n)
	for i := 0; i < n; i++ {
		out[i] = d.AddClient(fmt.Sprintf("good%02d", i), Profile{
			Stripe: 4, OpBytes: 256 << 20, TotalBytes: total,
			NIC: 125 * MB,
		})
	}
	return out
}

func addAttackers(d *Deployment, n, stripe int, startAt, stagger time.Duration) []*Client {
	out := make([]*Client, n)
	for i := 0; i < n; i++ {
		out[i] = d.AddClient(fmt.Sprintf("evil%02d", i), Profile{
			Malicious: true, Stripe: stripe, OpBytes: 64 << 20,
			StartAt: startAt + time.Duration(i)*stagger,
		})
	}
	return out
}

func TestSingleClientThroughputNearNIC(t *testing.T) {
	d, err := NewDeployment(baseCfg())
	if err != nil {
		t.Fatal(err)
	}
	c := addCorrect(d, 1, 1<<30)[0]
	d.Run(60 * time.Second)
	if c.FinishedAt() == 0 {
		t.Fatalf("1 GB write unfinished after 60 s (done=%d)", c.BytesDone())
	}
	// 1 GiB at 110 MB/s ≈ 9.3 s.
	secs := c.FinishedAt().Seconds()
	if secs < 8 || secs > 12 {
		t.Fatalf("1 GB write took %.1f s, want ≈9.3 s", secs)
	}
}

func TestManyCorrectClientsKeepConstantThroughput(t *testing.T) {
	// Paper EXP-C2 baseline: all-correct throughput stays ~110 MB/s per
	// client regardless of client count (providers not saturated).
	for _, n := range []int{5, 20, 40} {
		d, err := NewDeployment(baseCfg())
		if err != nil {
			t.Fatal(err)
		}
		addCorrect(d, n, 0)
		d.Run(60 * time.Second)
		per := d.CorrectThroughputMBs(10*time.Second, 60*time.Second)
		if per < 100 || per > 120 {
			t.Fatalf("n=%d: per-client %.1f MB/s, want ≈110", n, per)
		}
	}
}

func TestAttackDegradesThroughput(t *testing.T) {
	d, err := NewDeployment(baseCfg())
	if err != nil {
		t.Fatal(err)
	}
	addCorrect(d, 20, 0)
	addAttackers(d, 10, 64, 0, 0)
	d.Run(60 * time.Second)
	per := d.CorrectThroughputMBs(10*time.Second, 60*time.Second)
	if per > 70 {
		t.Fatalf("attack had no effect: %.1f MB/s", per)
	}
}

func TestSecurityBlocksAttackersAndRecovers(t *testing.T) {
	cfg := baseCfg()
	cfg.Security = true
	cfg.MonDelay = 5 * time.Second
	cfg.EnginePeriod = 5 * time.Second
	d, err := NewDeployment(cfg)
	if err != nil {
		t.Fatal(err)
	}
	addCorrect(d, 20, 0)
	addAttackers(d, 10, 64, 60*time.Second, time.Second)
	d.Run(5 * time.Minute)

	// All attackers detected.
	delays := d.DetectionDelays()
	if len(delays) != 10 {
		t.Fatalf("detected %d/10 attackers", len(delays))
	}
	for _, u := range d.Attackers() {
		if !d.Enf.Blocked(u) {
			t.Fatalf("%s not blocked", u)
		}
	}
	// Baseline before the attack, dip during, recovery after blocks.
	before := d.CorrectThroughputMBs(10*time.Second, 55*time.Second)
	during := d.CorrectThroughputMBs(65*time.Second, 80*time.Second)
	after := d.CorrectThroughputMBs(3*time.Minute, 5*time.Minute)
	if during >= before*0.8 {
		t.Fatalf("no dip: before=%.1f during=%.1f", before, during)
	}
	if after < before*0.9 {
		t.Fatalf("no recovery: before=%.1f after=%.1f", before, after)
	}
}

func TestNoSecurityNeverBlocks(t *testing.T) {
	d, err := NewDeployment(baseCfg())
	if err != nil {
		t.Fatal(err)
	}
	addCorrect(d, 4, 0)
	addAttackers(d, 4, 32, 0, 0)
	d.Run(30 * time.Second)
	for _, u := range d.Attackers() {
		if d.Enf.Blocked(u) {
			t.Fatalf("%s blocked without security", u)
		}
	}
}

func TestMonitoringParamsScaleWithClients(t *testing.T) {
	cfg := baseCfg()
	cfg.Providers = 150
	cfg.Monitoring = true
	d, err := NewDeployment(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 80; i++ {
		d.AddClient(fmt.Sprintf("c%02d", i), Profile{
			Stripe: 4, OpBytes: 256 << 20, TotalBytes: 1 << 30, NIC: 125 * MB,
		})
	}
	d.Run(2 * time.Minute)
	if got := d.MonParams; got < 10000 {
		t.Fatalf("monitoring params=%d, want ≥10000 at 80 clients", got)
	}
}

// TestMonitoringParamCountPinned pins EXP-B's parameter count on a small
// fixed deployment: whole-chunk ops, ops that straddle chunk boundaries
// (a chunk two ops touch counts once), an endless writer stopped by time,
// and more parameters per chunk than there are kinds.
func TestMonitoringParamCountPinned(t *testing.T) {
	for _, tc := range []struct {
		eventsPerChunk, want int
	}{{0, 1088}, {12, 1350}} {
		cfg := baseCfg()
		cfg.Monitoring = true
		cfg.Seed = 42
		cfg.EventsPerChunk = tc.eventsPerChunk
		d, err := NewDeployment(cfg)
		if err != nil {
			t.Fatal(err)
		}
		d.AddClient("c0", Profile{Stripe: 4, OpBytes: 256 << 20, TotalBytes: 1 << 30, NIC: 125 * MB})
		d.AddClient("c1", Profile{Stripe: 2, OpBytes: 100 << 20, TotalBytes: 1 << 30, NIC: 125 * MB})
		d.AddClient("c2", Profile{Stripe: 1, OpBytes: 40 << 20, NIC: 125 * MB, StopAt: time.Minute})
		d.Run(2 * time.Minute)
		if d.MonParams != tc.want {
			t.Fatalf("EventsPerChunk=%d: monitoring params=%d, want %d", tc.eventsPerChunk, d.MonParams, tc.want)
		}
	}
}

func TestMonitoringOverheadIsSmall(t *testing.T) {
	run := func(mon bool) float64 {
		cfg := baseCfg()
		cfg.Providers = 150
		cfg.Monitoring = mon
		d, err := NewDeployment(cfg)
		if err != nil {
			t.Fatal(err)
		}
		cs := addCorrect(d, 20, 1<<30)
		d.Run(3 * time.Minute)
		var sum float64
		for _, c := range cs {
			if c.FinishedAt() == 0 {
				t.Fatal("client unfinished")
			}
			sum += c.FinishedAt().Seconds()
		}
		return sum / float64(len(cs))
	}
	off := run(false)
	on := run(true)
	if on > off*1.03 {
		t.Fatalf("monitoring overhead too high: off=%.3f on=%.3f", off, on)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() (float64, int) {
		cfg := baseCfg()
		cfg.Security = true
		d, err := NewDeployment(cfg)
		if err != nil {
			t.Fatal(err)
		}
		addCorrect(d, 10, 0)
		addAttackers(d, 5, 32, 20*time.Second, 2*time.Second)
		d.Run(2 * time.Minute)
		return d.AggregateThroughputMBs(0, 2*time.Minute), len(d.DetectionDelays())
	}
	a1, d1 := run()
	a2, d2 := run()
	if a1 != a2 || d1 != d2 {
		t.Fatalf("non-deterministic: (%v,%d) vs (%v,%d)", a1, d1, a2, d2)
	}
}

func TestBadPolicyRejected(t *testing.T) {
	cfg := baseCfg()
	cfg.Security = true
	cfg.PolicySource = "garbage"
	if _, err := NewDeployment(cfg); err == nil {
		t.Fatal("want error")
	}
}
