package s3gate

import (
	"bufio"
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"blobseer/internal/core"
	"blobseer/internal/diskstore"
	"blobseer/internal/faultdom"
	"blobseer/internal/metrics"
	"blobseer/internal/provider"
)

// prometheusSurface is what the shipped gateway's GET /metrics serves
// after one PUT, GET and DELETE on disk stores with the fault plane on:
// "family type label,label,…" per metric family, label names sorted and
// without a histogram's "le". Dashboards and alerts key on these names,
// so a change here is a change to the product's surface.
var prometheusSurface = []string{
	"blobseer_client_chunk_fetch_seconds histogram outcome,process",
	"blobseer_client_chunk_store_seconds histogram outcome,process",
	"blobseer_client_quorum_wait_seconds histogram process",
	"blobseer_client_read_bytes_total counter process",
	"blobseer_client_reader_stall_seconds histogram process",
	"blobseer_client_write_bytes_total counter process",
	"blobseer_client_writer_stall_seconds histogram process",
	"blobseer_disk_append_seconds histogram process",
	"blobseer_disk_compaction_relocated_bytes_total counter process",
	"blobseer_disk_compaction_seconds histogram process",
	"blobseer_disk_put_bytes_total counter process",
	"blobseer_disk_read_seconds histogram process",
	"blobseer_disk_recovery_seconds gauge process",
	"blobseer_disk_segments gauge process",
	"blobseer_gc_mark_blobs_total counter process,result",
	"blobseer_gc_mark_node_reads_total counter process",
	"blobseer_gc_phase_seconds histogram phase,process",
	"blobseer_gc_pinned gauge process",
	"blobseer_gc_retired_versions_total counter process",
	"blobseer_gc_swept_bytes_total counter process",
	"blobseer_gc_swept_chunks_total counter process",
	"blobseer_gc_swept_nodes_total counter process",
	"blobseer_health_state gauge process,provider",
	"blobseer_health_transitions_total counter process,to",
	"blobseer_provider_chunks gauge process,provider",
	"blobseer_provider_fetch_seconds histogram outcome,process",
	"blobseer_provider_store_seconds histogram outcome,process",
	"blobseer_provider_used_bytes gauge process,provider",
	"blobseer_rpc_retries_total counter op,process",
	"blobseer_s3_request_seconds histogram method,process,status",
	"blobseer_s3_ttfb_seconds histogram method,process",
}

func TestPrometheusSurface(t *testing.T) {
	dir := t.TempDir()
	reg := metrics.NewRegistry(metrics.Label{Name: "process", Value: "gateway"})
	var stores []*diskstore.DiskStore
	t.Cleanup(func() {
		for _, ds := range stores {
			ds.Close()
		}
	})
	cluster, err := core.NewCluster(core.Options{
		Providers: 3, Replicas: 2, Monitoring: true, Metrics: reg,
		Fault: &faultdom.Config{CallTimeout: 2 * time.Second},
		ProviderStore: func(id string) provider.Store {
			ds, err := diskstore.Open(filepath.Join(dir, id), diskstore.Options{Metrics: reg})
			if err != nil {
				t.Error(err)
				return nil
			}
			stores = append(stores, ds)
			return ds
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(New(cluster))
	t.Cleanup(srv.Close)
	do(t, http.MethodPut, srv.URL+"/b", nil)
	if resp := do(t, http.MethodPut, srv.URL+"/b/k", bytes.Repeat([]byte("m"), 3000)); resp.StatusCode != 200 {
		t.Fatalf("put: %d", resp.StatusCode)
	}
	if resp := do(t, http.MethodGet, srv.URL+"/b/k", nil); resp.StatusCode != 200 {
		t.Fatalf("get: %d", resp.StatusCode)
	}
	if resp := do(t, http.MethodDelete, srv.URL+"/b/k", nil); resp.StatusCode != 204 {
		t.Fatalf("delete: %d", resp.StatusCode)
	}
	resp := do(t, http.MethodGet, srv.URL+"/metrics", nil)
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	got := surface(t, body)
	if strings.Join(got, "\n") != strings.Join(prometheusSurface, "\n") {
		t.Fatalf("/metrics surface moved; got:\n%s", strings.Join(got, "\n"))
	}
}

// surface reduces an exposition to "family type labels" lines, sorted.
func surface(t *testing.T, body []byte) []string {
	t.Helper()
	types := map[string]string{}
	labels := map[string]map[string]bool{}
	sc := bufio.NewScanner(bytes.NewReader(body))
	for sc.Scan() {
		line := sc.Text()
		if f := strings.Fields(line); len(f) == 4 && f[0] == "#" && f[1] == "TYPE" {
			types[f[2]] = f[3]
			labels[f[2]] = map[string]bool{}
			continue
		}
		if line == "" || line[0] == '#' {
			continue
		}
		name, rest, _ := strings.Cut(strings.Fields(line)[0], "{")
		family := name
		if _, ok := types[family]; !ok {
			for _, suf := range []string{"_bucket", "_sum", "_count"} {
				if base, ok := strings.CutSuffix(name, suf); ok && types[base] == "histogram" {
					family = base
				}
			}
		}
		set, ok := labels[family]
		if !ok {
			t.Fatalf("sample %q has no # TYPE", line)
		}
		for _, kv := range strings.Split(strings.TrimSuffix(rest, "}"), ",") {
			if k, _, ok := strings.Cut(kv, "="); ok && k != "le" {
				set[k] = true
			}
		}
	}
	out := make([]string, 0, len(types))
	for family, typ := range types {
		names := make([]string, 0, len(labels[family]))
		for k := range labels[family] {
			names = append(names, k)
		}
		sort.Strings(names)
		out = append(out, family+" "+typ+" "+strings.Join(names, ","))
	}
	sort.Strings(out)
	return out
}
