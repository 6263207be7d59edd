// DoS protection: a malicious client floods BlobSeer with writes; the
// security framework's detection engine spots the pattern in the user
// activity history and blocks the client, while a correct client keeps
// working — the paper's self-protection scenario on the real plane.
package main

import (
	"context"
	"errors"
	"fmt"
	"log"
	"time"

	"blobseer/internal/core"
	"blobseer/internal/policy"
)

func main() {
	ctx := context.Background()
	// A virtual clock lets the demo replay minutes of activity instantly.
	now := time.Date(2026, 6, 12, 9, 0, 0, 0, time.UTC)
	clock := func() time.Time { return now }

	cluster, err := core.NewCluster(core.Options{
		Providers:  4,
		Monitoring: true,
		AgentBatch: 1,
		Clock:      clock,
		PolicySource: `
policy flood {
    when rate(write, 10s) > 20 and bytes(write, 10s) > 1MB
    severity high
    then block(300s), log()
}`,
	})
	if err != nil {
		log.Fatal(err)
	}

	alice := cluster.Client("alice")
	mallory := cluster.Client("mallory")
	ab, _ := alice.Create(ctx, 4<<10)
	mb, _ := mallory.Create(ctx, 4<<10)

	payload := make([]byte, 8<<10)

	// Alice writes at a civil pace; Mallory floods.
	for i := 0; i < 600; i++ {
		if i%20 == 0 {
			if _, err := alice.Write(ctx, ab.ID, 0, payload); err != nil {
				log.Fatalf("alice write: %v", err)
			}
		}
		if _, err := mallory.Write(ctx, mb.ID, 0, payload); err != nil {
			fmt.Println("mallory rejected mid-flood:", err)
			break
		}
		now = now.Add(25 * time.Millisecond) // 40 writes/s: well above policy
	}

	// One control-plane tick: monitoring flushes into the activity
	// history and the detection engine scans it.
	cluster.Tick(now)

	fmt.Println("violations logged:")
	for _, v := range cluster.Enf.Violations() {
		fmt.Printf("  %s: user=%s severity=%s\n", v.Policy, v.User, v.Severity)
	}
	fmt.Printf("mallory blocked: %v, trust %.2f\n",
		cluster.Enf.Blocked("mallory"), cluster.Trust.Value("mallory"))
	fmt.Printf("alice   blocked: %v, trust %.2f\n",
		cluster.Enf.Blocked("alice"), cluster.Trust.Value("alice"))

	// Enforcement acts on the data path.
	if _, err := mallory.Write(ctx, mb.ID, 0, payload); errors.Is(err, policy.ErrBlocked) {
		fmt.Println("mallory's next write is rejected by the gatekeeper")
	}
	if _, err := alice.Write(ctx, ab.ID, 0, payload); err == nil {
		fmt.Println("alice keeps writing normally")
	}
}
