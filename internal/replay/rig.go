package replay

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"syscall"
	"time"

	"blobseer/internal/client"
	"blobseer/internal/core"
	"blobseer/internal/diskstore"
	"blobseer/internal/faultdom"
	"blobseer/internal/metrics"
	"blobseer/internal/provider"
	"blobseer/internal/rpc"
	"blobseer/internal/s3gate"
)

const (
	providers = 4
	replicas  = 2
	// tickEvery is the control-plane tick the harness drives; the shipped
	// gateway's timer is 5 s, too slow to average out over a run.
	tickEvery = 2 * time.Second
	// tenants is how many S3 users the load is spread over, half per
	// connection. history.History copies a user's whole log on every event
	// once it holds 65536 of them: one user at small-mixed's rate gets there
	// some 15 s into a run and throughput drops twentyfold mid-measurement.
	// Sixteen tenants stay a factor of five below that cliff for a whole run.
	tenants = 16
	// maxDiskBytes aborts a run whose GC has stopped bounding the data dir.
	maxDiskBytes = 6 << 30
	// minShmFree is what /dev/shm must have free to hold the data dir.
	minShmFree = 4 << 30
)

// DefaultDataDir is /dev/shm when it has at least 4 GiB free, else
// os.TempDir(). In memory, the kernel's dirty-page writeback to a shared
// virtual disk — noise the program does not control — stays out of the
// numbers; latencies are then the sandbox's, not a device's.
func DefaultDataDir() string {
	var fs syscall.Statfs_t
	if err := syscall.Statfs("/dev/shm", &fs); err == nil && fs.Bavail*uint64(fs.Bsize) >= minShmFree {
		return "/dev/shm"
	}
	return os.TempDir()
}

// policies is policy.DefaultCatalog with every threshold raised a
// thousandfold. The detection engine scans the same four rules over the same
// history on every tick, but the load generator — one user at full speed, far
// above the catalog's 200 reads/s — is not classified as a DoS flood and
// blocked, which would fail every op after the first tick.
const policies = `
policy dos_write_flood {
    when rate(write, 10s) > 50000 and bytes(write, 10s) > 256GB
    severity high
    then block(300s), log()
}
policy dos_read_flood {
    when rate(read, 10s) > 200000
    severity high
    then block(120s), log()
}
policy crawler {
    when distinct_blobs(30s) > 100000
    severity medium
    then throttle(10), log()
}
policy prober {
    when failures(read, 60s) > 20000 or count(auth_fail, 60s) > 10000
    severity medium
    then alert(), log()
}
`

// Rig is the deployment cmd/blobseer-gateway ships — monitoring, metrics
// registry, fault plane, two replicas — assembled in one process with four
// differences: every provider is backed by a diskstore, every
// client↔provider conversation crosses the real TCP rpc plane on loopback,
// the security policies' thresholds sit above the benchmark's own load, and
// authentication is on, for sixteen tenants.
type Rig struct {
	Cluster *core.Cluster
	URL     string // the gateway's base URL

	dir     string
	stores  []*tracedStore
	servers []*rpc.Server
	conns   *rpc.Directory
	http    *http.Server
	served  chan error
}

// Assemble builds a rig whose providers keep their segments under dir.
func Assemble(ctx context.Context, dir string, t *Tracer) (_ *Rig, err error) {
	r := &Rig{dir: dir}
	defer func() {
		if err != nil {
			_ = r.Close()
		}
	}()

	reg := metrics.NewRegistry(metrics.Label{Name: "process", Value: "gateway"})
	traced := make(map[string]*tracedConn, providers)
	var storeErr error
	r.Cluster, err = core.NewCluster(core.Options{
		Providers:    providers,
		Replicas:     replicas,
		Monitoring:   true,
		Metrics:      reg,
		PolicySource: policies,
		Fault:        &faultdom.Config{CallTimeout: 2 * time.Second},
		ProviderStore: func(id string) provider.Store {
			ds, err := diskstore.Open(filepath.Join(dir, id), diskstore.Options{Metrics: reg})
			if err != nil {
				storeErr = errors.Join(storeErr, fmt.Errorf("provider %s store: %w", id, err))
				return nil
			}
			ts := &tracedStore{DiskStore: ds, t: t, prov: uint8(len(r.stores))}
			r.stores = append(r.stores, ts)
			return ts
		},
		// Lookup resolves through here on every chunk transfer; the map is
		// complete before the first request and read-only after.
		WrapConn: func(id string, _ client.Conn) client.Conn { return traced[id] },
	})
	if err = errors.Join(err, storeErr); err != nil {
		return nil, err
	}

	addrs := make(map[string]string, providers)
	ids := r.Cluster.Providers()
	for _, id := range ids {
		p, _ := r.Cluster.Provider(id)
		srv, err := rpc.Serve(p, "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		r.servers = append(r.servers, srv)
		addrs[id] = srv.Addr()
	}
	r.conns = rpc.NewDirectory(addrs)
	for i, id := range ids {
		c, err := r.conns.Lookup(ctx, id)
		if err != nil {
			return nil, err
		}
		traced[id] = &tracedConn{Conn: c.(*rpc.Conn), t: t, prov: uint8(i)}
	}

	keys := make(map[string]string, tenants)
	for i := 0; i < tenants; i++ {
		keys[tenant(i)] = secret(tenant(i))
	}
	gw := s3gate.New(r.Cluster, s3gate.WithChunkSize(chunkSize), s3gate.WithCredentials(keys))
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	r.URL = "http://" + lis.Addr().String()
	r.http = &http.Server{Handler: tracedHandler{next: gw, t: t}}
	r.served = make(chan error, 1)
	go func() { r.served <- r.http.Serve(lis) }()
	return r, nil
}

func tenant(i int) string         { return fmt.Sprintf("tenant%02d", i) }
func secret(access string) string { return "secret-" + access }

// DiskBytes is the total size of every provider's segment files.
func (r *Rig) DiskBytes() int64 {
	var n int64
	for _, s := range r.stores {
		n += s.DiskUsage()
	}
	return n
}

// Close stops the gateway, the rpc plane and the stores, waits for their
// goroutines, and removes the data dir.
func (r *Rig) Close() error {
	var errs []error
	if r.http != nil {
		errs = append(errs, r.http.Close())
		if err := <-r.served; !errors.Is(err, http.ErrServerClosed) {
			errs = append(errs, err)
		}
	}
	if r.conns != nil {
		errs = append(errs, r.conns.Close())
	}
	for _, s := range r.servers {
		errs = append(errs, s.Close())
	}
	for _, s := range r.stores {
		errs = append(errs, s.Close())
	}
	errs = append(errs, os.RemoveAll(r.dir))
	return errors.Join(errs...)
}
