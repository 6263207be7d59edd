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
//	blobseer-gateway -store tiered -data-dir /var/lib/blobseer -hot-bytes 268435456
//	blobseer-gateway -gc 30s                       # background retention+sweep
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
		store     = flag.String("store", "mem", "provider chunk store backend: mem, disk or tiered")
		dataDir   = flag.String("data-dir", "", "base segment directory for -store=disk/tiered (one subdir per provider)")
		hotBytes  = flag.Int64("hot-bytes", 256<<20, "per-provider hot-tier cache bound for -store=tiered")
		gcEvery   = flag.Duration("gc", 0, "background GC pass interval (0 = disabled)")
		callTO    = flag.Duration("call-timeout", 2*time.Second, "per-attempt provider call deadline (0 = fault plane off)")
	)
	flag.Parse()

	reg := metrics.NewRegistry(metrics.Label{Name: "process", Value: "gateway"})

	opts := core.Options{
		Providers:  *providers,
		Replicas:   *replicas,
		Monitoring: true,
		Metrics:    reg,
	}
	if *callTO > 0 {
		// The fault-tolerance plane: per-attempt deadlines, retries with
		// jittered backoff, per-provider circuit breakers and failure
		// detection (see README "Fault tolerance" for the knobs).
		opts.Fault = &faultdom.Config{CallTimeout: *callTO}
	}
	switch *store {
	case "mem":
		// The default in-memory store; -data-dir is ignored.
	case "disk", "tiered":
		if *dataDir == "" {
			log.Fatalf("-store=%s requires -data-dir", *store)
		}
		opts.ProviderStore = func(id string) provider.Store {
			ds, err := diskstore.Open(filepath.Join(*dataDir, id), diskstore.Options{Metrics: reg})
			if err != nil {
				log.Fatalf("provider %s store: %v", id, err)
			}
			if *store == "tiered" {
				ts := diskstore.NewTiered(ds, *hotBytes)
				ts.Instrument(reg)
				return ts
			}
			return ds
		}
	default:
		log.Fatalf("unknown -store=%q (want mem, disk or tiered)", *store)
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
