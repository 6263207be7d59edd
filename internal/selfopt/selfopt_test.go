package selfopt

import (
	"context"
	"fmt"
	"testing"
	"time"

	"blobseer/internal/blobmeta"
	"blobseer/internal/chunk"
	"blobseer/internal/instrument"
	"blobseer/internal/introspect"
	"blobseer/internal/pmanager"
	"blobseer/internal/provider"
	"blobseer/internal/vmanager"
)

var t0 = time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)

// testPool adapts a set of in-process providers to the Pool interface.
type testPool struct {
	providers map[string]*provider.Provider
}

func (p *testPool) Provider(_ context.Context, id string) (provider.API, error) {
	prov, ok := p.providers[id]
	if !ok {
		return nil, fmt.Errorf("no provider %s", id)
	}
	return prov, nil
}
func (p *testPool) Alive(id string) bool {
	prov, ok := p.providers[id]
	return ok && !prov.Stopped()
}

type rig struct {
	vm   *vmanager.Manager
	pm   *pmanager.Manager
	pool *testPool
	in   *introspect.Introspector
	rec  *instrument.Recorder // the metadata provider's events
}

func newRig(t *testing.T, nProviders int) *rig {
	t.Helper()
	rec := &instrument.Recorder{}
	r := &rig{
		rec:  rec,
		vm:   vmanager.New(blobmeta.NewMemStore("m", rec, nil)),
		pm:   pmanager.New(pmanager.WithTTL(0)),
		pool: &testPool{providers: map[string]*provider.Provider{}},
		in:   introspect.NewIntrospector(0),
	}
	for i := 0; i < nProviders; i++ {
		id := fmt.Sprintf("p%02d", i)
		r.pool.providers[id] = provider.New(id, "z", 0)
		if err := r.pm.Register(pmanager.Info{ID: id, Zone: "z"}); err != nil {
			t.Fatal(err)
		}
	}
	return r
}

// writeBlob writes one chunk with the given replica placement.
func (r *rig) writeBlob(t *testing.T, data []byte, replicas []string) uint64 {
	t.Helper()
	info, err := r.vm.Create("u", int64(len(data)), false)
	if err != nil {
		t.Fatal(err)
	}
	id := chunk.Sum(data)
	for _, p := range replicas {
		if err := r.pool.providers[p].Store(context.Background(), "selfopt", id, data); err != nil {
			t.Fatal(err)
		}
	}
	tk, err := r.vm.AssignWrite(info.ID, "u", 0, int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	desc := chunk.Desc{ID: id, Size: int64(len(data)), Providers: replicas}
	if err := r.vm.Publish(info.ID, tk.Version, "u", map[int64]chunk.Desc{0: desc}); err != nil {
		t.Fatal(err)
	}
	return info.ID
}

func liveReplicas(t *testing.T, r *rig, blob uint64) []string {
	t.Helper()
	latest, err := r.vm.Latest(blob)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := r.vm.Tree(blob)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	err = tree.Walk(tree.Root(latest.Version, latest.Size), func(_ int64, d chunk.Desc) error {
		out = append(out, d.Providers...)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestScanRepairsLostReplica(t *testing.T) {
	r := newRig(t, 5)
	blob := r.writeBlob(t, []byte("payload"), []string{"p00", "p01"})
	r.pool.providers["p00"].Stop()

	rep := NewReplicator(r.vm, r.pm, r.pool, nil, WithBaseDegree(2))
	report, err := rep.Scan(context.Background(), t0)
	if err != nil {
		t.Fatal(err)
	}
	if report.UnderReplicated != 1 || report.Repaired != 1 || report.Failed != 0 {
		t.Fatalf("report=%+v", report)
	}
	reps := liveReplicas(t, r, blob)
	if len(reps) != 2 {
		t.Fatalf("replicas=%v", reps)
	}
	for _, p := range reps {
		if !r.pool.Alive(p) {
			t.Fatalf("dead provider %s still referenced", p)
		}
		if !r.pool.providers[p].Has(chunk.Sum([]byte("payload"))) {
			t.Fatalf("provider %s lacks the chunk", p)
		}
	}
}

// TestScanIsNotClientMetadataLoad: the health scan walks every BLOB's
// tree as maintenance — it must not show up in introspection as client
// metadata reads.
func TestScanIsNotClientMetadataLoad(t *testing.T) {
	r := newRig(t, 3)
	for i := 0; i < 4; i++ {
		r.writeBlob(t, []byte(fmt.Sprint("payload-", i)), []string{"p00", "p01"})
	}
	report, err := NewReplicator(r.vm, r.pm, r.pool, nil, WithBaseDegree(2)).Scan(context.Background(), t0)
	if err != nil || report.ChunksScanned != 4 || report.UnderReplicated != 0 {
		t.Fatalf("report=%+v err=%v", report, err)
	}
	if gets := r.rec.Filter(func(ev instrument.Event) bool { return ev.Op == instrument.OpMetaGet }); len(gets) != 0 {
		t.Fatalf("a healthy scan of 4 BLOBs emitted %d meta_get events, want 0", len(gets))
	}
}

// TestScanCancelled aborts a scan before it starts: no blob may
// be visited and the cancellation must surface.
func TestScanCancelled(t *testing.T) {
	r := newRig(t, 5)
	r.writeBlob(t, []byte("payload"), []string{"p00", "p01"})
	r.pool.providers["p00"].Stop()

	rep := NewReplicator(r.vm, r.pm, r.pool, nil, WithBaseDegree(2))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	report, err := rep.Scan(ctx, t0)
	if err != context.Canceled {
		t.Fatalf("cancelled scan: err=%v", err)
	}
	if report.BlobsScanned != 0 || report.Repaired != 0 {
		t.Fatalf("cancelled scan did work: %+v", report)
	}
}

func TestScanIdempotentWhenHealthy(t *testing.T) {
	r := newRig(t, 4)
	r.writeBlob(t, []byte("ok"), []string{"p00", "p01"})
	rep := NewReplicator(r.vm, r.pm, r.pool, nil, WithBaseDegree(2))
	report, err := rep.Scan(context.Background(), t0)
	if err != nil {
		t.Fatal(err)
	}
	if report.UnderReplicated != 0 || report.Repaired != 0 {
		t.Fatalf("healthy scan repaired: %+v", report)
	}
	if len(rep.Reports()) != 1 {
		t.Fatal("report not recorded")
	}
}

func TestScanRaisesDegreeToTarget(t *testing.T) {
	r := newRig(t, 6)
	blob := r.writeBlob(t, []byte("x"), []string{"p00"})
	rep := NewReplicator(r.vm, r.pm, r.pool, nil, WithBaseDegree(3))
	if _, err := rep.Scan(context.Background(), t0); err != nil {
		t.Fatal(err)
	}
	if got := liveReplicas(t, r, blob); len(got) != 3 {
		t.Fatalf("replicas=%v", got)
	}
}

func TestScanAllReplicasLostFails(t *testing.T) {
	r := newRig(t, 4)
	r.writeBlob(t, []byte("gone"), []string{"p00"})
	r.pool.providers["p00"].Stop()
	rep := NewReplicator(r.vm, r.pm, r.pool, nil, WithBaseDegree(2))
	report, err := rep.Scan(context.Background(), t0)
	if err == nil {
		t.Fatal("want error for unrecoverable chunk")
	}
	if report.Failed != 1 || report.Repaired != 0 {
		t.Fatalf("report=%+v", report)
	}
}

func TestHotBoostRaisesTarget(t *testing.T) {
	r := newRig(t, 6)
	blob := r.writeBlob(t, []byte("hot"), []string{"p00", "p01"})
	// Make the blob hot in the introspector.
	for i := 0; i < 10; i++ {
		r.in.ObserveClientEvent(instrument.Event{
			Time: t0, Actor: instrument.ActorClient, Op: instrument.OpRead,
			Blob: blob, User: "u", Bytes: 1,
		})
	}
	rep := NewReplicator(r.vm, r.pm, r.pool, r.in,
		WithBaseDegree(2), WithHotBoost(1, 4, 4))
	if rep.TargetDegree(blob) != 3 {
		t.Fatalf("hot target=%d", rep.TargetDegree(blob))
	}
	if rep.TargetDegree(blob+100) != 2 {
		t.Fatalf("cold target=%d", rep.TargetDegree(blob+100))
	}
	if _, err := rep.Scan(context.Background(), t0); err != nil {
		t.Fatal(err)
	}
	if got := liveReplicas(t, r, blob); len(got) != 3 {
		t.Fatalf("hot blob replicas=%v", got)
	}
}

func TestMaxDegreeCapsBoost(t *testing.T) {
	r := newRig(t, 6)
	rep := NewReplicator(r.vm, r.pm, r.pool, r.in,
		WithBaseDegree(3), WithHotBoost(5, 4, 4))
	if got := rep.TargetDegree(1); got != 3 {
		t.Fatalf("cold target=%d", got)
	}
	blob := r.writeBlob(t, []byte("h"), []string{"p00"})
	r.in.ObserveClientEvent(instrument.Event{
		Time: t0, Actor: instrument.ActorClient, Op: instrument.OpRead, Blob: blob, User: "u",
	})
	if got := rep.TargetDegree(blob); got != 4 {
		t.Fatalf("capped target=%d", got)
	}
}

func TestTTLStrategy(t *testing.T) {
	r := newRig(t, 2)
	in := introspect.NewIntrospector(0)
	in.ObserveClientEvent(instrument.Event{
		Time: t0, Actor: instrument.ActorClient, Op: instrument.OpWrite, Blob: 1, User: "u", Bytes: 5,
	})
	in.ObserveClientEvent(instrument.Event{
		Time: t0.Add(time.Hour), Actor: instrument.ActorClient, Op: instrument.OpWrite, Blob: 2, User: "u", Bytes: 5,
	})
	_ = r
	s := TTLStrategy{In: in, TTL: 30 * time.Minute}
	got := s.Candidates(t0.Add(time.Hour + time.Minute))
	if len(got) != 1 || got[0] != 1 {
		t.Fatalf("candidates=%v", got)
	}
}

func TestTemporaryStrategy(t *testing.T) {
	r := newRig(t, 2)
	tmp, err := r.vm.Create("u", 8, true)
	if err != nil {
		t.Fatal(err)
	}
	durable, err := r.vm.Create("u", 8, false)
	if err != nil {
		t.Fatal(err)
	}
	// Both read once.
	for _, b := range []uint64{tmp.ID, durable.ID} {
		r.in.ObserveClientEvent(instrument.Event{
			Time: t0, Actor: instrument.ActorClient, Op: instrument.OpRead, Blob: b, User: "u",
		})
	}
	s := TemporaryStrategy{VM: r.vm, In: r.in}
	got := s.Candidates(t0)
	if len(got) != 1 || got[0] != tmp.ID {
		t.Fatalf("candidates=%v", got)
	}
}

func TestReaperRemovesAndReclaims(t *testing.T) {
	ctx := context.Background()
	r := newRig(t, 3)
	blob := r.writeBlob(t, []byte("dead-data"), []string{"p00", "p01"})
	r.in.ObserveClientEvent(instrument.Event{
		Time: t0, Actor: instrument.ActorClient, Op: instrument.OpWrite, Blob: blob, User: "u", Bytes: 9,
	})
	reaper := NewReaper(r.vm, r.pool, nil, TTLStrategy{In: r.in, TTL: time.Minute})
	removed, err := reaper.Run(ctx, t0.Add(time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	if len(removed) != 1 || removed[0] != blob {
		t.Fatalf("removed=%v", removed)
	}
	id := chunk.Sum([]byte("dead-data"))
	if r.pool.providers["p00"].Has(id) || r.pool.providers["p01"].Has(id) {
		t.Fatal("chunks not reclaimed")
	}
	if _, err := r.vm.Info(blob); err == nil {
		t.Fatal("blob still alive")
	}
	if got := reaper.Removed(); len(got) != 1 {
		t.Fatalf("Removed()=%v", got)
	}
	// Second run: nothing left, including no double-delete error.
	removed, err = reaper.Run(ctx, t0.Add(2*time.Hour))
	if err != nil || len(removed) != 0 {
		t.Fatalf("second run removed=%v err=%v", removed, err)
	}
}

func TestReaperMergesStrategies(t *testing.T) {
	r := newRig(t, 2)
	blob := r.writeBlob(t, []byte("b"), []string{"p00"})
	r.in.ObserveClientEvent(instrument.Event{
		Time: t0, Actor: instrument.ActorClient, Op: instrument.OpWrite, Blob: blob, User: "u",
	})
	// Two strategies nominating the same blob must delete it once.
	s := TTLStrategy{In: r.in, TTL: time.Second}
	reaper := NewReaper(r.vm, r.pool, nil, s, s)
	removed, err := reaper.Run(context.Background(), t0.Add(time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	if len(removed) != 1 {
		t.Fatalf("removed=%v", removed)
	}
}
