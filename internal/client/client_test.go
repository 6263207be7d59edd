package client

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"blobseer/internal/blobmeta"
	"blobseer/internal/chunk"
	"blobseer/internal/instrument"
	"blobseer/internal/pmanager"
	"blobseer/internal/provider"
	"blobseer/internal/vmanager"
)

// bed is a small in-process BlobSeer deployment for tests.
type bed struct {
	vm        *vmanager.Manager
	pm        *pmanager.Manager
	providers map[string]*provider.Provider
}

func newBed(t *testing.T, nProviders int) *bed {
	t.Helper()
	b := &bed{
		vm:        vmanager.New(blobmeta.NewMemStore("m1", nil, nil)),
		pm:        pmanager.New(pmanager.WithTTL(0)),
		providers: map[string]*provider.Provider{},
	}
	for i := 0; i < nProviders; i++ {
		id := fmt.Sprintf("p%02d", i)
		b.providers[id] = provider.New(id, fmt.Sprintf("z%d", i%3), 0)
		if err := b.pm.Register(pmanager.Info{ID: id, Zone: fmt.Sprintf("z%d", i%3)}); err != nil {
			t.Fatal(err)
		}
	}
	return b
}

func (b *bed) Lookup(_ context.Context, id string) (Conn, error) {
	p, ok := b.providers[id]
	if !ok {
		return nil, fmt.Errorf("no provider %s", id)
	}
	return p, nil
}

func (b *bed) client(user string, opts ...Option) *Client {
	return New(user, b.vm, b.pm, b, opts...)
}

func TestWriteReadRoundTrip(t *testing.T) {
	ctx := context.Background()
	b := newBed(t, 4)
	c := b.client("alice")
	info, err := c.Create(ctx, 16)
	if err != nil {
		t.Fatal(err)
	}
	data := []byte("the quick brown fox jumps over the lazy dog")
	ver, err := c.Write(ctx, info.ID, 0, data)
	if err != nil {
		t.Fatal(err)
	}
	if ver != 1 {
		t.Fatalf("version=%d", ver)
	}
	got, err := c.Read(ctx, info.ID, 0, 0, int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("got %q want %q", got, data)
	}
}

func TestPartialRead(t *testing.T) {
	ctx := context.Background()
	b := newBed(t, 4)
	c := b.client("alice")
	info, _ := c.Create(ctx, 8)
	data := []byte("0123456789abcdefghij")
	if _, err := c.Write(ctx, info.ID, 0, data); err != nil {
		t.Fatal(err)
	}
	got, err := c.Read(ctx, info.ID, 0, 5, 10)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "56789abcde" {
		t.Fatalf("got %q", got)
	}
}

func TestUnalignedOverwriteMerges(t *testing.T) {
	ctx := context.Background()
	b := newBed(t, 4)
	c := b.client("alice")
	info, _ := c.Create(ctx, 8)
	if _, err := c.Write(ctx, info.ID, 0, []byte("AAAAAAAAAAAAAAAA")); err != nil { // 16 bytes
		t.Fatal(err)
	}
	// Overwrite bytes [4,12): spans two chunks, both partially.
	if _, err := c.Write(ctx, info.ID, 4, []byte("BBBBBBBB")); err != nil {
		t.Fatal(err)
	}
	got, err := c.Read(ctx, info.ID, 0, 0, 16)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "AAAABBBBBBBBAAAA" {
		t.Fatalf("got %q", got)
	}
}

func TestAppendGrowsBlob(t *testing.T) {
	ctx := context.Background()
	b := newBed(t, 4)
	c := b.client("alice")
	info, _ := c.Create(ctx, 8)
	if _, err := c.Append(ctx, info.ID, []byte("hello ")); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Append(ctx, info.ID, []byte("world")); err != nil {
		t.Fatal(err)
	}
	size, err := c.Size(info.ID, 0)
	if err != nil || size != 11 {
		t.Fatalf("size=%d err=%v", size, err)
	}
	got, err := c.Read(ctx, info.ID, 0, 0, 11)
	if err != nil || string(got) != "hello world" {
		t.Fatalf("got %q err=%v", got, err)
	}
}

func TestVersionedReads(t *testing.T) {
	ctx := context.Background()
	b := newBed(t, 4)
	c := b.client("alice")
	info, _ := c.Create(ctx, 8)
	v1, _ := c.Write(ctx, info.ID, 0, []byte("version1"))
	v2, _ := c.Write(ctx, info.ID, 0, []byte("version2"))
	got1, err := c.Read(ctx, info.ID, v1, 0, 8)
	if err != nil || string(got1) != "version1" {
		t.Fatalf("v1 read %q err=%v", got1, err)
	}
	got2, err := c.Read(ctx, info.ID, v2, 0, 8)
	if err != nil || string(got2) != "version2" {
		t.Fatalf("v2 read %q err=%v", got2, err)
	}
}

func TestHolesReadAsZeros(t *testing.T) {
	ctx := context.Background()
	b := newBed(t, 4)
	c := b.client("alice")
	info, _ := c.Create(ctx, 8)
	// Write at offset 16, leaving chunks 0-1 as holes.
	if _, err := c.Write(ctx, info.ID, 16, []byte("XY")); err != nil {
		t.Fatal(err)
	}
	got, err := c.Read(ctx, info.ID, 0, 0, 18)
	if err != nil {
		t.Fatal(err)
	}
	want := append(make([]byte, 16), 'X', 'Y')
	if !bytes.Equal(got, want) {
		t.Fatalf("got %v", got)
	}
}

func TestReadPastEndFails(t *testing.T) {
	ctx := context.Background()
	b := newBed(t, 4)
	c := b.client("alice")
	info, _ := c.Create(ctx, 8)
	if _, err := c.Write(ctx, info.ID, 0, []byte("12345678")); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Read(ctx, info.ID, 0, 4, 8); !errors.Is(err, ErrShortRead) {
		t.Fatalf("want ErrShortRead, got %v", err)
	}
}

func TestReplication(t *testing.T) {
	ctx := context.Background()
	b := newBed(t, 5)
	c := b.client("alice", WithReplicas(3))
	info, _ := c.Create(ctx, 8)
	data := []byte("replicated-data!")
	if _, err := c.Write(ctx, info.ID, 0, data); err != nil {
		t.Fatal(err)
	}
	// Each written chunk must live on 3 providers.
	tree, _ := b.vm.Tree(info.ID)
	err := tree.Walk(tree.Root(1, int64(len(data))), func(idx int64, d chunk.Desc) error {
		if len(d.Providers) != 3 {
			return fmt.Errorf("chunk %d has %d replicas", idx, len(d.Providers))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// Reads survive two provider failures.
	stopped := 0
	for _, p := range b.providers {
		if stopped < 2 {
			p.Stop()
			stopped++
		}
	}
	got, err := c.Read(ctx, info.ID, 0, 0, int64(len(data)))
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("read after failures: %q err=%v", got, err)
	}
}

func TestAllProvidersDownFailsWrite(t *testing.T) {
	ctx := context.Background()
	b := newBed(t, 2)
	c := b.client("alice")
	info, _ := c.Create(ctx, 8)
	for _, p := range b.providers {
		p.Stop()
	}
	if _, err := c.Write(ctx, info.ID, 0, []byte("x")); !errors.Is(err, ErrNoReplica) {
		t.Fatalf("want ErrNoReplica, got %v", err)
	}
	// Chain must not be stuck: a later write succeeds after restart.
	for _, p := range b.providers {
		p.Restart()
	}
	if _, err := c.Write(ctx, info.ID, 0, []byte("y")); err != nil {
		t.Fatalf("post-recovery write: %v", err)
	}
}

func TestWriteQuorumDefaultRequiresAllReplicas(t *testing.T) {
	ctx := context.Background()
	b := newBed(t, 3)
	c := b.client("alice", WithReplicas(3))
	info, _ := c.Create(ctx, 8)
	b.providers["p01"].Stop()
	_, err := c.Write(ctx, info.ID, 0, []byte("payload!"))
	if !errors.Is(err, ErrNoReplica) {
		t.Fatalf("want ErrNoReplica, got %v", err)
	}
	// The aggregated error must carry the underlying replica failure.
	if !errors.Is(err, provider.ErrStopped) {
		t.Fatalf("cause not wrapped: %v", err)
	}
}

func TestWriteQuorumToleratesReplicaFailures(t *testing.T) {
	ctx := context.Background()
	b := newBed(t, 3)
	c := b.client("alice", WithReplicas(3), WithWriteQuorum(2))
	info, _ := c.Create(ctx, 8)
	b.providers["p01"].Stop()
	data := []byte("quorum-data-here")
	if _, err := c.Write(ctx, info.ID, 0, data); err != nil {
		t.Fatal(err)
	}
	// Descriptors list exactly the replicas that landed, never the
	// stopped provider.
	tree, _ := b.vm.Tree(info.ID)
	err := tree.Walk(tree.Root(1, int64(len(data))), func(idx int64, d chunk.Desc) error {
		if len(d.Providers) != 2 {
			return fmt.Errorf("chunk %d has %d replicas, want 2", idx, len(d.Providers))
		}
		for _, pid := range d.Providers {
			if pid == "p01" {
				return fmt.Errorf("chunk %d lists stopped provider", idx)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.Read(ctx, info.ID, 0, 0, int64(len(data)))
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("read back %q err=%v", got, err)
	}
}

func TestWriteQuorumClampedToReplicationDegree(t *testing.T) {
	ctx := context.Background()
	b := newBed(t, 3)
	c := b.client("alice", WithReplicas(2), WithWriteQuorum(99))
	info, _ := c.Create(ctx, 8)
	if _, err := c.Write(ctx, info.ID, 0, []byte("clamped!")); err != nil {
		t.Fatal(err)
	}
}

// Bugfix regression: directory lookup failures used to be silently
// dropped, leaving a bare ErrNoReplica with no cause.
func TestLookupFailuresAreReported(t *testing.T) {
	ctx := context.Background()
	b := newBed(t, 2)
	sentinel := errors.New("directory exploded")
	c := New("alice", b.vm, b.pm, DirectoryFunc(func(context.Context, string) (Conn, error) {
		return nil, sentinel
	}))
	info, _ := c.Create(ctx, 8)
	_, err := c.Write(ctx, info.ID, 0, []byte("x"))
	if !errors.Is(err, ErrNoReplica) {
		t.Fatalf("want ErrNoReplica, got %v", err)
	}
	if !errors.Is(err, sentinel) {
		t.Fatalf("lookup cause not wrapped: %v", err)
	}
}

func TestHedgedReadSurvivesFailures(t *testing.T) {
	ctx := context.Background()
	b := newBed(t, 3)
	c := b.client("alice", WithReplicas(3), WithHedgedReads(true))
	info, _ := c.Create(ctx, 8)
	data := []byte("hedged-replicas!")
	if _, err := c.Write(ctx, info.ID, 0, data); err != nil {
		t.Fatal(err)
	}
	b.providers["p00"].Stop()
	b.providers["p02"].Stop()
	got, err := c.Read(ctx, info.ID, 0, 0, int64(len(data)))
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("hedged read after failures: %q err=%v", got, err)
	}
	b.providers["p01"].Stop()
	_, err = c.Read(ctx, info.ID, 0, 0, int64(len(data)))
	if !errors.Is(err, ErrUnavailable) {
		t.Fatalf("want ErrUnavailable, got %v", err)
	}
	if !errors.Is(err, provider.ErrStopped) {
		t.Fatalf("per-replica causes not aggregated: %v", err)
	}
}

func TestHedgedReadMatchesSerial(t *testing.T) {
	ctx := context.Background()
	b := newBed(t, 4)
	serial := b.client("alice", WithReplicas(3))
	hedged := b.client("alice", WithReplicas(3), WithHedgedReads(true))
	info, _ := serial.Create(ctx, 16)
	data := bytes.Repeat([]byte("0123456789abcdef"), 7) // unaligned tail
	if _, err := serial.Write(ctx, info.ID, 3, data); err != nil {
		t.Fatal(err)
	}
	want, err := serial.Read(ctx, info.ID, 0, 0, int64(len(data))+3)
	if err != nil {
		t.Fatal(err)
	}
	got, err := hedged.Read(ctx, info.ID, 0, 0, int64(len(data))+3)
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("hedged differs from serial: err=%v", err)
	}
}

type denyGate struct{ blocked map[string]bool }

func (g denyGate) Allow(_ context.Context, user string, op instrument.Op) error {
	if g.blocked[user] {
		return ErrBlocked
	}
	return nil
}

func TestGatekeeperBlocks(t *testing.T) {
	ctx := context.Background()
	b := newBed(t, 2)
	gate := denyGate{blocked: map[string]bool{"mallory": true}}
	mallory := b.client("mallory", WithGatekeeper(gate))
	alice := b.client("alice", WithGatekeeper(gate))
	info, err := alice.Create(ctx, 8)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mallory.Write(ctx, info.ID, 0, []byte("x")); !errors.Is(err, ErrBlocked) {
		t.Fatalf("want ErrBlocked, got %v", err)
	}
	if _, err := mallory.Read(ctx, info.ID, 0, 0, 0); !errors.Is(err, ErrBlocked) {
		t.Fatalf("want ErrBlocked, got %v", err)
	}
	if _, err := mallory.Create(ctx, 8); !errors.Is(err, ErrBlocked) {
		t.Fatalf("want ErrBlocked, got %v", err)
	}
	if _, err := alice.Write(ctx, info.ID, 0, []byte("x")); err != nil {
		t.Fatalf("correct client affected: %v", err)
	}
}

func TestClientEventsEmitted(t *testing.T) {
	ctx := context.Background()
	b := newBed(t, 2)
	rec := &instrument.Recorder{}
	c := b.client("alice", WithEmitter(rec))
	info, _ := c.Create(ctx, 8)
	if _, err := c.Write(ctx, info.ID, 0, []byte("abcdefgh")); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Read(ctx, info.ID, 0, 0, 8); err != nil {
		t.Fatal(err)
	}
	ops := map[instrument.Op]int{}
	for _, e := range rec.Events() {
		ops[e.Op]++
	}
	if ops[instrument.OpCreate] != 1 || ops[instrument.OpWrite] != 1 || ops[instrument.OpRead] != 1 {
		t.Fatalf("ops=%v", ops)
	}
}

func TestTemporaryBlobFlag(t *testing.T) {
	b := newBed(t, 2)
	c := b.client("alice")
	info, err := c.CreateTemporary(context.Background(), 8)
	if err != nil {
		t.Fatal(err)
	}
	got, _ := b.vm.Info(info.ID)
	if !got.Temporary {
		t.Fatal("temporary flag lost")
	}
}

// Property: a random sequence of writes over a model buffer matches the
// BLOB contents byte for byte at the latest version.
func TestWriteSequenceMatchesModel(t *testing.T) {
	ctx := context.Background()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		b := newBedQuick()
		c := b.client("u")
		info, err := c.Create(ctx, 16)
		if err != nil {
			return false
		}
		const maxSize = 400
		model := make([]byte, 0, maxSize)
		nOps := rng.Intn(10) + 2
		for i := 0; i < nOps; i++ {
			n := rng.Intn(60) + 1
			data := make([]byte, n)
			rng.Read(data)
			if rng.Intn(2) == 0 && len(model) > 0 {
				off := rng.Intn(len(model))
				if _, err := c.Write(ctx, info.ID, int64(off), data); err != nil {
					return false
				}
				for len(model) < off+n {
					model = append(model, 0)
				}
				copy(model[off:], data)
			} else {
				if _, err := c.Append(ctx, info.ID, data); err != nil {
					return false
				}
				model = append(model, data...)
			}
		}
		got, err := c.Read(ctx, info.ID, 0, 0, int64(len(model)))
		if err != nil {
			return false
		}
		return bytes.Equal(got, model)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// newBedQuick builds a bed without *testing.T for property functions.
func newBedQuick() *bed {
	b := &bed{
		vm:        vmanager.New(blobmeta.NewMemStore("m1", nil, nil)),
		pm:        pmanager.New(pmanager.WithTTL(0)),
		providers: map[string]*provider.Provider{},
	}
	for i := 0; i < 3; i++ {
		id := fmt.Sprintf("p%02d", i)
		b.providers[id] = provider.New(id, "z", 0)
		_ = b.pm.Register(pmanager.Info{ID: id, Zone: "z"})
	}
	return b
}

// recPinner records pin/unpin traffic for the lifecycle hook tests.
type recPinner struct {
	mu      sync.Mutex
	held    map[[2]uint64]int
	pins    int
	failPin error
}

func newRecPinner() *recPinner { return &recPinner{held: map[[2]uint64]int{}} }

func (p *recPinner) Pin(blob uint64, root blobmeta.Root) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.failPin != nil {
		return p.failPin
	}
	p.held[[2]uint64{blob, root.Version}]++
	p.pins++
	return nil
}

func (p *recPinner) Unpin(blob, version uint64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.held[[2]uint64{blob, version}]--
	if p.held[[2]uint64{blob, version}] == 0 {
		delete(p.held, [2]uint64{blob, version})
	}
}

func (p *recPinner) outstanding() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.held)
}

// TestReaderPinsVersion: a reader pins its resolved version for exactly
// its open-to-Close lifetime, failed opens leave no pin behind, and a
// refused pin fails the open.
func TestReaderPinsVersion(t *testing.T) {
	b := newBed(t, 2)
	pinner := newRecPinner()
	c := b.client("alice", WithPinner(pinner))
	ctx := context.Background()
	info, err := c.Create(ctx, 16)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Write(ctx, info.ID, 0, []byte("0123456789abcdef")); err != nil {
		t.Fatal(err)
	}
	bh, err := c.Open(ctx, info.ID)
	if err != nil {
		t.Fatal(err)
	}

	rd, err := bh.NewReader(ctx, 0, 0, -1)
	if err != nil {
		t.Fatal(err)
	}
	if pinner.outstanding() != 1 || pinner.held[[2]uint64{info.ID, 1}] != 1 {
		t.Fatalf("pins after open = %v", pinner.held)
	}
	if err := rd.Close(); err != nil {
		t.Fatal(err)
	}
	if err := rd.Close(); err != nil { // idempotent: no double unpin
		t.Fatal(err)
	}
	if pinner.outstanding() != 0 {
		t.Fatalf("pins after close = %v", pinner.held)
	}

	// A failed open (window past the version size) releases its pin.
	if _, err := bh.NewReader(ctx, 0, 0, 1<<20); !errors.Is(err, ErrShortRead) {
		t.Fatalf("oversized window: %v", err)
	}
	if pinner.outstanding() != 0 {
		t.Fatalf("failed open leaked a pin: %v", pinner.held)
	}
	if pinner.pins != 2 {
		t.Fatalf("pin calls = %d, want 2", pinner.pins)
	}

	// A refused pin fails the open before any chunk is fetched.
	pinner.failPin = errors.New("deleted")
	if _, err := bh.NewReader(ctx, 0, 0, -1); err == nil {
		t.Fatal("open succeeded against a refused pin")
	}

	// The compatibility Read wrapper pins and unpins too.
	pinner.failPin = nil
	if _, err := c.Read(ctx, info.ID, 0, 0, 4); err != nil {
		t.Fatal(err)
	}
	if pinner.outstanding() != 0 {
		t.Fatalf("wrapper leaked a pin: %v", pinner.held)
	}
}
