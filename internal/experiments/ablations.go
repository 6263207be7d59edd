package experiments

import (
	"fmt"
	"math"
	"time"

	"blobseer/internal/blobmeta"
	"blobseer/internal/chunk"
	"blobseer/internal/introspect"
	"blobseer/internal/monitor"
	"blobseer/internal/pmanager"
)

// AB1 is the allocation-strategy ablation: how evenly each strategy
// spreads chunks over a heterogeneous pool, measured as the coefficient
// of variation of per-provider chunk counts (lower = better balanced)
// and the replica zone-spread achieved. This grounds DESIGN.md's choice
// of load-balancing strategies for the self-optimization engine.
func AB1(s Scale) *Table {
	t := &Table{
		ID:      "AB-1",
		Title:   "Allocation strategies: placement balance over 24 providers, 3 zones",
		Columns: []string{"strategy", "chunk_cv", "max/min_chunks", "zone_spread_%"},
	}
	chunks := 4096
	if s.Quick {
		chunks = 512
	}
	const providers = 24
	const replicas = 3
	strategies := []pmanager.Strategy{
		&pmanager.RoundRobin{},
		pmanager.NewRandom(1),
		pmanager.LeastUsed{},
		pmanager.ZoneAware{},
	}
	for _, strat := range strategies {
		view := make([]pmanager.Info, providers)
		zoneOf := map[string]string{}
		for i := range view {
			zone := fmt.Sprintf("z%d", i%3)
			view[i] = pmanager.Info{
				ID: fmt.Sprintf("p%02d", i), Zone: zone,
				Capacity: 1 << 30, Used: int64(i) << 20, // heterogeneous fill
			}
			zoneOf[view[i].ID] = zone
		}
		placement, err := strat.Allocate(chunks, replicas, view)
		if err != nil {
			panic(err)
		}
		counts := map[string]int{}
		spread := 0
		for _, ids := range placement {
			zones := map[string]bool{}
			for _, id := range ids {
				counts[id]++
				zones[zoneOf[id]] = true
			}
			if len(zones) == replicas {
				spread++
			}
		}
		var sum, sumSq float64
		minC, maxC := math.MaxInt, 0
		for i := 0; i < providers; i++ {
			c := counts[fmt.Sprintf("p%02d", i)]
			sum += float64(c)
			sumSq += float64(c) * float64(c)
			if c < minC {
				minC = c
			}
			if c > maxC {
				maxC = c
			}
		}
		mean := sum / providers
		cv := 0.0
		if mean > 0 {
			cv = math.Sqrt(sumSq/providers-mean*mean) / mean
		}
		t.Add(strat.Name(), fmt.Sprintf("%.3f", cv),
			fmt.Sprintf("%d/%d", maxC, minC),
			fmt.Sprintf("%.0f", float64(spread)/float64(chunks)*100))
	}
	t.Note("chunk_cv: coefficient of variation of per-provider chunk counts; zone_spread: replica sets covering all 3 zones")
	return t
}

// AB2 is the burst-cache ablation: how much monitoring data the
// introspection storage servers lose under a burst, as a function of
// cache capacity and flush cadence — the design knob the paper's
// "caching mechanism ... to cope with bursts of monitoring data" sets.
func AB2(s Scale) *Table {
	t := &Table{
		ID:      "AB-2",
		Title:   "Introspection burst cache: loss vs capacity and flush cadence",
		Columns: []string{"cache_cap", "flush_every_records", "burst", "dropped", "loss_%"},
	}
	burst := 100000
	if s.Quick {
		burst = 20000
	}
	t0 := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	for _, cap := range []int{1024, 8192, 65536} {
		for _, flushEvery := range []int{512, 4096, 32768} {
			ss := introspect.NewStorageServer("ss", cap, 0)
			sent := 0
			for sent < burst {
				batch := make([]monitor.Record, 256)
				for i := range batch {
					batch[i] = monitor.Record{
						Time: t0, Node: fmt.Sprintf("p%d", sent%150),
						Param: "store", Value: 1,
					}
				}
				ss.Consume(batch)
				sent += len(batch)
				if sent%flushEvery < 256 {
					ss.Flush()
				}
			}
			ss.Flush()
			dropped := ss.Cache().Dropped()
			t.Add(cap, flushEvery, burst, dropped,
				fmt.Sprintf("%.1f", float64(dropped)/float64(burst)*100))
		}
	}
	t.Note("a cache sized for the flush interval absorbs the full burst; undersized caches shed monitoring load gracefully")
	return t
}

// AB3 is the metadata ablation: segment-tree node growth per write as a
// function of write span, demonstrating the structural sharing that
// makes BlobSeer's versioning cheap (O(span + depth) nodes per version,
// independent of BLOB size).
func AB3(s Scale) *Table {
	t := &Table{
		ID:      "AB-3",
		Title:   "Versioned metadata: tree nodes created per write (structural sharing)",
		Columns: []string{"chunks_written", "nodes_created", "nodes_per_chunk", "total_nodes"},
	}
	versions := 64
	if s.Quick {
		versions = 16
	}
	store := blobmeta.NewMemStore("m", nil, nil)
	tree := blobmeta.NewTree(store, 1, 1) // one-byte chunks: a size is a chunk count
	var root blobmeta.Root                // the empty BLOB
	chunks := int64(0)
	for _, span := range []int64{1, 4, 16, 64, 256} {
		before := store.Len()
		for v := 0; v < versions; v++ {
			writes := map[int64]chunk.Desc{}
			base := int64(v) * span
			for i := int64(0); i < span; i++ {
				idx := base + i
				writes[idx] = chunk.Desc{
					ID: chunk.Sum([]byte(fmt.Sprintf("%d/%d", root.Version, idx))), Size: 1,
					Providers: []string{"p"},
				}
			}
			chunks = max(chunks, base+span)
			next := tree.Root(root.Version+1, chunks)
			if err := tree.Write(next, root, writes); err != nil {
				panic(err)
			}
			root = next
		}
		created := store.Len() - before
		perWrite := float64(created) / float64(versions)
		t.Add(span, int(perWrite), fmt.Sprintf("%.1f", perWrite/float64(span)), store.Len())
	}
	t.Note("per-write node count grows with the written span plus O(log span) path copies, never with BLOB size or version count")
	return t
}
