// Command blobseer-gateway runs the S3-compatible storage service
// (the paper's Cumulus-integration equivalent) over an in-process
// BlobSeer cluster with the full self-adaptive stack: introspection,
// policy-based self-protection, replication maintenance, and a
// Prometheus-format metrics surface at GET /metrics on the same
// listener.
//
// Usage:
//
//	blobseer-gateway -listen :8080 -providers 8 -replicas 2
//	blobseer-gateway -access demo -secret s3cret   # enable auth
//	blobseer-gateway -store disk -data-dir /var/lib/blobseer
//	blobseer-gateway -gc 5s                        # sweep more often (default 30s; 0 = never)
//
// Then: curl -X PUT localhost:8080/bucket
//
//	curl -X PUT --data-binary @file localhost:8080/bucket/key
//	curl localhost:8080/bucket/key
//	curl localhost:8080/metrics
package main

import (
	"context"
	"flag"
	"log"
	"net/http"
	"path/filepath"
	"time"

	"blobseer/internal/core"
	"blobseer/internal/diskstore"
	"blobseer/internal/faultdom"
	"blobseer/internal/metrics"
	"blobseer/internal/provider"
	"blobseer/internal/s3gate"
)

func main() {
	var (
		listen    = flag.String("listen", "127.0.0.1:8080", "HTTP listen address")
		providers = flag.Int("providers", 8, "data providers")
		replicas  = flag.Int("replicas", 2, "chunk replication degree")
		access    = flag.String("access", "", "access key (empty = auth off)")
		secret    = flag.String("secret", "", "secret key")
		tick      = flag.Duration("tick", 5*time.Second, "control-plane tick period")
		store     = flag.String("store", "mem", "provider chunk store backend: mem or disk")
		dataDir   = flag.String("data-dir", "", "base segment directory for -store=disk (one subdir per provider)")
		gcEvery   = flag.Duration("gc", 30*time.Second, "background GC pass interval; only a pass frees deleted and overwritten objects' space (0 = disabled)")
		callTO    = flag.Duration("call-timeout", 2*time.Second, "per-attempt provider call deadline (0 = the 2s default)")
	)
	flag.Parse()

	reg := metrics.NewRegistry(metrics.Label{Name: "process", Value: "gateway"})

	opts := core.Options{
		Providers:  *providers,
		Replicas:   *replicas,
		Monitoring: true,
		Metrics:    reg,
		// The fault-tolerance plane's per-attempt deadline; its retries
		// and dead-provider detection keep their defaults
		// (see README "Fault tolerance").
		Fault: &faultdom.Config{CallTimeout: *callTO},
	}
	switch *store {
	case "mem":
		// The default in-memory store; -data-dir is ignored.
	case "disk":
		if *dataDir == "" {
			log.Fatal("-store=disk requires -data-dir")
		}
		opts.ProviderStore = func(id string) provider.Store {
			ds, err := diskstore.Open(filepath.Join(*dataDir, id), diskstore.Options{Metrics: reg})
			if err != nil {
				log.Fatalf("provider %s store: %v", id, err)
			}
			return ds
		}
	default:
		log.Fatalf("unknown -store=%q (want mem or disk)", *store)
	}

	cluster, err := core.NewCluster(opts)
	if err != nil {
		log.Fatalf("cluster: %v", err)
	}
	var gwOpts []s3gate.Option
	if *access != "" {
		gwOpts = append(gwOpts, s3gate.WithCredentials(map[string]string{*access: *secret}))
	}
	// The gateway inherits the cluster registry: it serves GET /metrics
	// itself and books request duration / TTFB around every other call.
	gw := s3gate.New(cluster, gwOpts...)

	// Control plane: monitoring flush, detection scans, replication heal.
	go func() {
		healEvery := 6
		i := 0
		for range time.Tick(*tick) {
			cluster.Tick(time.Now())
			i++
			if i%healEvery == 0 {
				if rep, err := cluster.Heal(context.Background(), time.Now()); err == nil && rep.Repaired > 0 {
					log.Printf("self-optimization: repaired %d chunk replicas", rep.Repaired)
				}
			}
		}
	}()

	if *gcEvery > 0 {
		runner := cluster.GCRunner(*gcEvery)
		go func() {
			_ = runner.Run(context.Background())
		}()
		log.Printf("background GC every %s", *gcEvery)
	}

	log.Printf("BlobSeer S3 gateway on http://%s (%d providers, replicas=%d, store=%s), metrics at /metrics",
		*listen, *providers, *replicas, *store)
	log.Fatal(http.ListenAndServe(*listen, gw))
}
