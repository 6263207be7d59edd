// Command blobseer-viz renders the paper's visualization tool: a
// terminal dashboard of the introspection layer's outputs (provider
// storage space and load, BLOB access patterns, BLOB distribution).
//
// Usage:
//
//	blobseer-viz -demo            # run a demo workload and render once
//	blobseer-viz -demo -watch 1s  # re-render continuously
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"time"

	"blobseer/internal/core"
	"blobseer/internal/viz"
)

func main() {
	var (
		demo      = flag.Bool("demo", true, "generate a demo workload")
		watch     = flag.Duration("watch", 0, "re-render period (0 = once)")
		providers = flag.Int("providers", 8, "data providers")
		width     = flag.Int("width", 24, "bar width")
	)
	flag.Parse()

	cluster, err := core.NewCluster(core.Options{
		Providers: *providers, Monitoring: true, AgentBatch: 1, Replicas: 2,
	})
	if err != nil {
		log.Fatal(err)
	}
	if *demo {
		go workload(cluster)
	}
	for {
		time.Sleep(200 * time.Millisecond)
		cluster.Tick(time.Now())
		fmt.Print("\033[H\033[2J") // clear terminal
		fmt.Println(viz.Dashboard(cluster.Intro, cluster.VM, *width))
		if *watch == 0 {
			return
		}
		time.Sleep(*watch)
	}
}

// workload keeps a small mixed read/write load running.
func workload(cluster *core.Cluster) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(1))
	users := []string{"alice", "bob", "carol"}
	var blobs []uint64
	for _, u := range users {
		cl := cluster.Client(u)
		info, err := cl.Create(ctx, 4<<10)
		if err != nil {
			return
		}
		blobs = append(blobs, info.ID)
		payload := make([]byte, 64<<10)
		rng.Read(payload)
		if _, err := cl.Write(ctx, info.ID, 0, payload); err != nil {
			return
		}
	}
	for {
		u := users[rng.Intn(len(users))]
		cl := cluster.Client(u)
		blob := blobs[rng.Intn(len(blobs))]
		if rng.Intn(3) == 0 {
			payload := make([]byte, 16<<10)
			rng.Read(payload)
			cl.Append(ctx, blob, payload)
		} else {
			cl.Read(ctx, blob, 0, 0, 8<<10)
		}
		time.Sleep(50 * time.Millisecond)
	}
}
