// Command blobseer-provider runs one standalone data provider exported
// over TCP (internal/rpc's framed wire), the building block of a
// multi-machine deployment. Clients reach it through rpc.NewDirectory.
//
// Usage:
//
//	blobseer-provider -id p01 -listen 127.0.0.1:9001 -zone rennes -capacity 1073741824
//	blobseer-provider -id p01 -store disk -data-dir /var/lib/blobseer/p01
//	blobseer-provider -id p01 -metrics-listen 127.0.0.1:9101   # Prometheus /metrics
package main

import (
	"flag"
	"log"
	"net/http"
	"os"
	"os/signal"

	"blobseer/internal/diskstore"
	"blobseer/internal/metrics"
	"blobseer/internal/provider"
	"blobseer/internal/rpc"
)

func main() {
	var (
		id         = flag.String("id", "p01", "provider identity")
		listen     = flag.String("listen", "127.0.0.1:0", "TCP listen address")
		zone       = flag.String("zone", "default", "availability zone / site")
		capacity   = flag.Int64("capacity", 0, "capacity in bytes (0 = unbounded)")
		store      = flag.String("store", "mem", "chunk store backend: mem or disk")
		dataDir    = flag.String("data-dir", "", "segment directory for -store=disk")
		metricsLsn = flag.String("metrics-listen", "", "HTTP listen address for GET /metrics (empty = no metrics endpoint)")
	)
	flag.Parse()

	var reg *metrics.Registry
	if *metricsLsn != "" {
		reg = metrics.NewRegistry(
			metrics.Label{Name: "process", Value: "provider"},
			metrics.Label{Name: "node", Value: *id},
		)
	}

	var popts []provider.Option
	if reg != nil {
		popts = append(popts, provider.WithMetrics(reg))
	}
	switch *store {
	case "mem":
		// The default in-memory store; -data-dir is ignored.
	case "disk":
		if *dataDir == "" {
			log.Fatal("-store=disk requires -data-dir")
		}
		ds, err := diskstore.Open(*dataDir, diskstore.Options{Capacity: *capacity, Metrics: reg})
		if err != nil {
			log.Fatal(err)
		}
		defer ds.Close()
		log.Printf("provider %s: recovered %d chunks (%d bytes) from %s",
			*id, ds.Count(), ds.Used(), *dataDir)
		popts = append(popts, provider.WithStore(ds))
	default:
		log.Fatalf("unknown -store=%q (want mem or disk)", *store)
	}

	p := provider.New(*id, *zone, *capacity, popts...)
	srv, err := rpc.Serve(p, *listen)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("provider %s (zone %s) serving on %s", *id, *zone, srv.Addr())

	if reg != nil {
		mux := http.NewServeMux()
		metricsHandler := reg.Handler()
		mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
			// Nothing else ticks a standalone provider: refresh its
			// used-bytes and chunk-count gauges at scrape time.
			p.ReportPhysical(0, 0)
			metricsHandler.ServeHTTP(w, r)
		})
		go func() {
			log.Printf("provider %s metrics on http://%s/metrics", *id, *metricsLsn)
			log.Fatal(http.ListenAndServe(*metricsLsn, mux))
		}()
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt)
	<-sig
	st := p.Stats()
	log.Printf("shutting down: %d chunks, %d bytes, %d stores, %d fetches",
		st.Chunks, st.Used, st.Stores, st.Fetches)
	srv.Close()
}
