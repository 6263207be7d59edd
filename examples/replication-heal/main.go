// Replication heal: the self-optimization engine maintains the
// replication degree of every chunk. The example writes replicated data,
// kills a provider, runs a maintenance scan, and shows that the data
// stays readable with the degree restored — plus a cold-data removal
// pass reclaiming an abandoned BLOB.
package main

import (
	"bytes"
	"context"
	"fmt"
	"log"
	"time"

	"blobseer/internal/core"
	"blobseer/internal/selfopt"
)

func main() {
	ctx := context.Background()
	cluster, err := core.NewCluster(core.Options{
		Providers: 6, Replicas: 2, BaseDegree: 2, Monitoring: true, AgentBatch: 1,
	})
	if err != nil {
		log.Fatal(err)
	}
	cl := cluster.Client("app")

	info, _ := cl.Create(ctx, 1<<10)
	payload := bytes.Repeat([]byte("important"), 2000)
	if _, err := cl.Write(ctx, info.ID, 0, payload); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("wrote %d bytes with replication degree 2\n", len(payload))

	victim := cluster.Providers()[0]
	if err := cluster.RemoveProvider(victim); err != nil {
		log.Fatal(err)
	}
	fmt.Println("killed provider", victim)

	report, err := cluster.Heal(ctx, time.Now())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("maintenance scan: %d chunks scanned, %d under-replicated, %d repaired\n",
		report.ChunksScanned, report.UnderReplicated, report.Repaired)

	got, err := cl.Read(ctx, info.ID, 0, 0, int64(len(payload)))
	if err != nil || !bytes.Equal(got, payload) {
		log.Fatalf("data lost: %v", err)
	}
	fmt.Println("data fully readable after repair")

	// Temporary-data removal: a scratch BLOB flagged temporary is
	// reclaimed automatically once consumed.
	scratch, _ := cl.CreateTemporary(ctx, 1<<10)
	if _, err := cl.Write(ctx, scratch.ID, 0, []byte("scratch")); err != nil {
		log.Fatal(err)
	}
	if _, err := cl.Read(ctx, scratch.ID, 0, 0, 7); err != nil {
		log.Fatal(err)
	}
	reaper := cluster.NewReaper(
		selfopt.TemporaryStrategy{VM: cluster.VM, In: cluster.Intro})
	removed, err := reaper.Run(ctx, time.Now())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("removal strategies reclaimed temporary blobs: %v (durable blob %d untouched)\n",
		removed, info.ID)
}
