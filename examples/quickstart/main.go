// Quickstart: assemble a self-adaptive BlobSeer cluster, store and read
// versioned data, and inspect the introspection layer's view of it.
package main

import (
	"bytes"
	"context"
	"fmt"
	"log"
	"time"

	"blobseer/internal/core"
)

func main() {
	ctx := context.Background()
	// A cluster wires the five BlobSeer actors plus the introspection
	// stack and the security framework.
	cluster, err := core.NewCluster(core.Options{
		Providers:  4,
		Replicas:   2,
		Monitoring: true,
		AgentBatch: 1,
	})
	if err != nil {
		log.Fatal(err)
	}

	alice := cluster.Client("alice")

	// BLOBs are created with a chunk size; all I/O is range-based.
	info, err := alice.Create(ctx, 64<<10) // 64 KiB chunks
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("created blob %d (chunk size %d)\n", info.ID, info.ChunkSize)

	// Every write or append publishes a new immutable version.
	v1, err := alice.Write(ctx, info.ID, 0, bytes.Repeat([]byte("v1"), 64<<9))
	if err != nil {
		log.Fatal(err)
	}
	v2, err := alice.Append(ctx, info.ID, []byte("appended tail"))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("published versions %d and %d\n", v1, v2)

	// Reads address any published version; 0 means latest.
	head, err := alice.Read(ctx, info.ID, v1, 0, 4)
	if err != nil {
		log.Fatal(err)
	}
	size, _ := alice.Size(info.ID, 0)
	fmt.Printf("v1 starts with %q; latest size %d bytes\n", head, size)

	// Old versions are immutable: v1 is unchanged by the append.
	sz1, _ := alice.Size(info.ID, v1)
	fmt.Printf("v1 size stays %d bytes\n", sz1)

	// One control-plane tick flushes monitoring and runs the detection
	// engine; the introspection layer then answers questions like "how is
	// my data spread?".
	cluster.Tick(time.Now())
	for _, st := range cluster.Intro.Providers() {
		fmt.Printf("provider %s stores %.0f bytes\n", st.Node, st.Space)
	}
	if stats, ok := cluster.Intro.Blob(info.ID); ok {
		fmt.Printf("blob %d: %d writes, %d reads so far\n", info.ID, stats.Writes, stats.Reads)
	}
}
