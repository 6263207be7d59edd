// The background lifecycle runner: a periodic retention + sweep loop
// with context cancellation, the autonomous half of the subsystem (the
// admin CLI drives the same passes on demand).
package gc

import (
	"context"
	"sync"
	"time"
)

// Runner drives periodic retention and sweep passes.
type Runner struct {
	m        *Manager
	interval time.Duration

	mu            sync.Mutex
	lastSweep     SweepReport
	lastRetention RetentionReport
	passes        int
}

// NewRunner returns a runner sweeping every interval (default 30s when
// interval ≤ 0).
func NewRunner(m *Manager, interval time.Duration) *Runner {
	if interval <= 0 {
		interval = 30 * time.Second
	}
	return &Runner{m: m, interval: interval}
}

// Run loops retention + sweep passes until ctx is cancelled, then
// returns ctx.Err(). Pass errors are recorded in the reports, not
// returned: a failed provider must not stop the maintenance loop.
func (r *Runner) Run(ctx context.Context) error {
	t := time.NewTicker(r.interval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-t.C:
			r.Pass(ctx)
		}
	}
}

// Pass runs one retention + sweep pass now and records the reports.
// Pass errors land in the reports' Err fields (the doc contract of Run):
// a failed provider must not stop the loop, but it must not vanish
// either.
func (r *Runner) Pass(ctx context.Context) (RetentionReport, SweepReport) {
	ret, retErr := r.m.EnforceRetention(ctx, r.m.now())
	if retErr != nil {
		ret.Err = retErr.Error()
	}
	swp, swpErr := r.m.Sweep(ctx, false)
	if swpErr != nil {
		swp.Err = swpErr.Error()
	}
	r.mu.Lock()
	r.lastRetention, r.lastSweep = ret, swp
	r.passes++
	r.mu.Unlock()
	return ret, swp
}

// LastReports returns the most recent pass's reports and how many passes
// have run.
func (r *Runner) LastReports() (RetentionReport, SweepReport, int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.lastRetention, r.lastSweep, r.passes
}
