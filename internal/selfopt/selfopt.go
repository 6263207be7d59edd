// Package selfopt implements the paper's self-optimization direction:
// automatic maintenance and dynamic adjustment of the replication degree
// of data chunks, and configurable data-removal strategies that reclaim
// seldom-accessed or temporary data.
package selfopt

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"blobseer/internal/chunk"
	"blobseer/internal/instrument"
	"blobseer/internal/introspect"
	"blobseer/internal/pmanager"
	"blobseer/internal/provider"
	"blobseer/internal/vmanager"
)

// user is the identity maintenance transfers run under at providers.
const user = "selfopt"

// Pool is the replication manager's access to data providers: each
// one's provider.API (context-first, so maintenance passes can be
// cancelled mid-flight) and a usability verdict.
type Pool interface {
	// Provider resolves one provider by ID.
	Provider(ctx context.Context, id string) (provider.API, error)
	// Alive reports whether a provider is usable.
	Alive(providerID string) bool
}

// RepairReport summarizes one replication scan.
type RepairReport struct {
	Time            time.Time
	BlobsScanned    int
	ChunksScanned   int
	UnderReplicated int
	Repaired        int
	Failed          int
}

// Replicator maintains replication degrees. The base degree applies to
// every chunk; hot BLOBs (by introspection access stats) get extra
// replicas up to MaxDegree.
type Replicator struct {
	vm   *vmanager.Manager
	pm   *pmanager.Manager
	pool Pool
	in   *introspect.Introspector
	emit instrument.Emitter

	base      int
	maxDegree int
	hotBoost  int
	hotTopK   int

	mu      sync.Mutex
	reports []RepairReport
}

// ReplicatorOption configures a Replicator.
type ReplicatorOption func(*Replicator)

// WithBaseDegree sets the base replication degree (default 2).
func WithBaseDegree(n int) ReplicatorOption {
	return func(r *Replicator) {
		if n > 0 {
			r.base = n
		}
	}
}

// WithHotBoost grants the hottest topK BLOBs extra replicas (default
// boost 1 for the top 4), bounded by maxDegree (default 4).
func WithHotBoost(boost, topK, maxDegree int) ReplicatorOption {
	return func(r *Replicator) {
		r.hotBoost, r.hotTopK, r.maxDegree = boost, topK, maxDegree
	}
}

// WithEmitter attaches instrumentation.
func WithEmitter(e instrument.Emitter) ReplicatorOption {
	return func(r *Replicator) {
		if e != nil {
			r.emit = e
		}
	}
}

// NewReplicator returns a replication manager. in may be nil (no hot-data
// boost).
func NewReplicator(vm *vmanager.Manager, pm *pmanager.Manager, pool Pool,
	in *introspect.Introspector, opts ...ReplicatorOption) *Replicator {
	r := &Replicator{
		vm: vm, pm: pm, pool: pool, in: in,
		emit: instrument.Nop{},
		base: 2, maxDegree: 4, hotBoost: 1, hotTopK: 4,
	}
	for _, o := range opts {
		o(r)
	}
	return r
}

// TargetDegree returns the replication degree a BLOB should have now.
func (r *Replicator) TargetDegree(blob uint64) int {
	return r.degree(blob, r.hotSet())
}

// hotSet returns the BLOBs the hot boost applies to now: the hotTopK
// most accessed (none without an introspector or a boost).
func (r *Replicator) hotSet() map[uint64]bool {
	if r.in == nil || r.hotBoost <= 0 {
		return nil
	}
	hot := map[uint64]bool{}
	for _, st := range r.in.HotBlobs(r.hotTopK) {
		if st.Reads+st.Writes > 0 {
			hot[st.Blob] = true
		}
	}
	return hot
}

// degree is a BLOB's target degree given the pass's hot set.
func (r *Replicator) degree(blob uint64, hot map[uint64]bool) int {
	deg := r.base
	if hot[blob] {
		deg += r.hotBoost
	}
	return min(deg, r.maxDegree)
}

// Scan walks the latest version of every BLOB, re-replicating chunks
// whose live replica count is below the target degree. Repairs are
// published as a new metadata version per BLOB (chunks are immutable, so
// repair means new descriptors, not data rewrites).
// A cancelled ctx aborts the pass between BLOBs and stops in-flight
// repair transfers.
func (r *Replicator) Scan(ctx context.Context, now time.Time) (RepairReport, error) {
	rep := RepairReport{Time: now}
	var firstErr error
	hot := r.hotSet()
	for _, blob := range r.vm.Blobs() {
		if err := ctx.Err(); err != nil {
			if firstErr == nil {
				firstErr = err
			}
			break
		}
		latest, err := r.vm.Latest(blob)
		if err != nil || latest.Version == 0 {
			continue
		}
		tree, err := r.vm.Tree(blob)
		if err != nil {
			continue
		}
		rep.BlobsScanned++
		target := r.degree(blob, hot)

		type fix struct {
			idx  int64
			desc chunk.Desc
		}
		var fixes []fix
		err = tree.Walk(tree.Root(latest.Version, latest.Size), func(idx int64, d chunk.Desc) error {
			rep.ChunksScanned++
			live := d.Providers[:0:0]
			for _, p := range d.Providers {
				if r.pool.Alive(p) {
					live = append(live, p)
				}
			}
			if len(live) >= target {
				return nil
			}
			rep.UnderReplicated++
			nd := d.Clone()
			nd.Providers = live
			fixes = append(fixes, fix{idx, nd})
			return nil
		})
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		if len(fixes) == 0 {
			continue
		}
		// The copies are filed under a chunk lease at each new target
		// until the repair version naming them is published: a pass that
		// marked before it must not purge them.
		leaseID, err := chunk.NewLeaseID()
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		lctx := chunk.WithLease(ctx, &chunk.Lease{ID: leaseID})
		targets := map[string]struct{}{}
		writes := make(map[int64]chunk.Desc, len(fixes))
		for _, f := range fixes {
			nd, err := r.repairChunk(lctx, f.desc, target)
			for _, p := range nd.Providers[len(f.desc.Providers):] {
				targets[p] = struct{}{}
			}
			if err != nil {
				rep.Failed++
				if firstErr == nil {
					firstErr = err
				}
				continue
			}
			writes[f.idx] = nd
			rep.Repaired++
		}
		err = r.publish(blob, writes)
		r.release(ctx, leaseID, targets)
		if err != nil && firstErr == nil {
			firstErr = err
		}
		if err != nil || len(writes) == 0 {
			continue
		}
		r.emit.Emit(instrument.Event{
			Time: now, Actor: instrument.ActorSelfOpt, Op: instrument.OpReplicate,
			Blob: blob, Value: float64(len(writes)),
		})
	}
	r.mu.Lock()
	r.reports = append(r.reports, rep)
	r.mu.Unlock()
	return rep, firstErr
}

// publish files a BLOB's repaired descriptors as a new version.
func (r *Replicator) publish(blob uint64, writes map[int64]chunk.Desc) error {
	if len(writes) == 0 {
		return nil
	}
	tk, err := r.vm.AssignWrite(blob, "selfopt", 0, 0)
	if err != nil {
		return err
	}
	return r.vm.Publish(blob, tk.Version, "selfopt", writes)
}

// release releases a repair's chunk lease at every target it stored to,
// on a context that outlives the scan's cancellation. A target it cannot
// reach lets the lease expire by its own clock.
func (r *Replicator) release(ctx context.Context, leaseID string, targets map[string]struct{}) {
	ctx = context.WithoutCancel(ctx)
	for id := range targets {
		if p, err := r.pool.Provider(ctx, id); err == nil {
			_ = p.ReleaseLease(ctx, leaseID)
		}
	}
}

// repairChunk raises one chunk's live replica set to the target degree,
// storing under the lease ctx carries. The returned descriptor lists the
// new targets after the original providers, also when it fails part-way.
func (r *Replicator) repairChunk(ctx context.Context, d chunk.Desc, target int) (chunk.Desc, error) {
	if len(d.Providers) == 0 {
		return d, fmt.Errorf("selfopt: chunk %s: all replicas lost", d.ID.Short())
	}
	var data []byte
	var err error
	for _, p := range d.Providers {
		var src provider.API
		if src, err = r.pool.Provider(ctx, p); err == nil {
			data, err = src.Fetch(ctx, user, d.ID)
		}
		if err == nil {
			break
		}
	}
	if data == nil {
		return d, fmt.Errorf("selfopt: chunk %s unreadable: %v", d.ID.Short(), err)
	}
	have := map[string]bool{}
	for _, p := range d.Providers {
		have[p] = true
	}
	// Ask for every alive provider as a candidate so existing holders and
	// providers the manager has not yet noticed are dead can be skipped.
	need := target - len(d.Providers)
	alive, _ := r.pm.Size()
	placement, err := r.pm.Allocate(1, alive)
	if err != nil {
		return d, err
	}
	out := d.Clone()
	for _, cand := range placement[0] {
		if need == 0 {
			break
		}
		if have[cand] || !r.pool.Alive(cand) {
			continue
		}
		dst, err := r.pool.Provider(ctx, cand)
		if err != nil || dst.Store(ctx, user, d.ID, data) != nil {
			continue
		}
		out.Providers = append(out.Providers, cand)
		have[cand] = true
		need--
	}
	if need > 0 {
		return out, fmt.Errorf("selfopt: chunk %s: %d replicas still missing", d.ID.Short(), need)
	}
	return out, nil
}

// Reports returns past scan reports.
func (r *Replicator) Reports() []RepairReport {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]RepairReport(nil), r.reports...)
}

// Strategy nominates BLOBs for removal.
type Strategy interface {
	Name() string
	// Candidates returns BLOB IDs to delete at the given instant.
	Candidates(now time.Time) []uint64
}

// TTLStrategy removes BLOBs not accessed for TTL (the paper's
// "seldom accessed" data).
type TTLStrategy struct {
	In  *introspect.Introspector
	TTL time.Duration
}

// Name implements Strategy.
func (s TTLStrategy) Name() string { return "ttl" }

// Candidates implements Strategy.
func (s TTLStrategy) Candidates(now time.Time) []uint64 {
	var out []uint64
	for _, st := range s.In.ColdBlobs(now.Add(-s.TTL)) {
		out = append(out, st.Blob)
	}
	return out
}

// TemporaryStrategy removes BLOBs created with the Temporary flag once
// they have been read at least MinReads times (application scratch data).
type TemporaryStrategy struct {
	VM       *vmanager.Manager
	In       *introspect.Introspector
	MinReads int64
}

// Name implements Strategy.
func (s TemporaryStrategy) Name() string { return "temporary" }

// Candidates implements Strategy.
func (s TemporaryStrategy) Candidates(now time.Time) []uint64 {
	minReads := s.MinReads
	if minReads <= 0 {
		minReads = 1
	}
	var out []uint64
	for _, blob := range s.VM.Blobs() {
		info, err := s.VM.Info(blob)
		if err != nil || !info.Temporary {
			continue
		}
		if st, ok := s.In.Blob(blob); ok && st.Reads >= minReads {
			out = append(out, blob)
		}
	}
	return out
}

// BlobDeleter routes BLOB deletion through the storage-lifecycle layer
// (internal/gc): DeleteBlob marks the BLOB deleted and frees nothing, so
// it cannot be aborted part-way; the sweep reclaims its chunks, a
// version a reader pin holds only once the pin drains.
type BlobDeleter interface {
	DeleteBlob(blob uint64) error
}

// Reaper applies removal strategies: it deletes nominated BLOBs
// through the storage-lifecycle layer.
type Reaper struct {
	deleter    BlobDeleter
	strategies []Strategy
	emit       instrument.Emitter

	mu      sync.Mutex
	removed []uint64
}

// NewReaper returns a reaper that deletes through d the BLOBs the
// strategies nominate. core.Cluster.NewReaper passes the cluster's
// lifecycle manager.
func NewReaper(d BlobDeleter, emit instrument.Emitter, strategies ...Strategy) *Reaper {
	if emit == nil {
		emit = instrument.Nop{}
	}
	return &Reaper{deleter: d, strategies: strategies, emit: emit}
}

// Run performs one reaping pass, returning the BLOBs removed. A
// cancelled ctx aborts the pass between BLOBs.
func (r *Reaper) Run(ctx context.Context, now time.Time) ([]uint64, error) {
	seen := map[uint64]bool{}
	var victims []uint64
	for _, s := range r.strategies {
		for _, b := range s.Candidates(now) {
			if !seen[b] {
				seen[b] = true
				victims = append(victims, b)
			}
		}
	}
	sort.Slice(victims, func(i, j int) bool { return victims[i] < victims[j] })
	var firstErr error
	var removed []uint64
	for _, blob := range victims {
		if err := ctx.Err(); err != nil {
			if firstErr == nil {
				firstErr = err
			}
			break
		}
		if err := r.deleter.DeleteBlob(blob); err != nil {
			// Already deleted, or deleted and since forgotten by a sweep:
			// gone either way.
			gone := errors.Is(err, vmanager.ErrDeleted) || errors.Is(err, vmanager.ErrNoBlob)
			if !gone && firstErr == nil {
				firstErr = err
			}
			continue
		}
		removed = append(removed, blob)
		r.emit.Emit(instrument.Event{
			Time: now, Actor: instrument.ActorSelfOpt, Op: instrument.OpEvict, Blob: blob,
		})
	}
	r.mu.Lock()
	r.removed = append(r.removed, removed...)
	r.mu.Unlock()
	return removed, firstErr
}

// Removed lists all BLOBs removed so far.
func (r *Reaper) Removed() []uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]uint64(nil), r.removed...)
}
