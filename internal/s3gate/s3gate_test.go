package s3gate

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"blobseer/internal/client"
	"blobseer/internal/core"
	"blobseer/internal/instrument"
	"blobseer/internal/monitor"
)

func newGateway(t *testing.T, opts ...Option) (*Gateway, *httptest.Server) {
	t.Helper()
	cluster, err := core.NewCluster(core.Options{Providers: 3, Monitoring: false})
	if err != nil {
		t.Fatal(err)
	}
	g := New(cluster, opts...)
	srv := httptest.NewServer(g)
	t.Cleanup(srv.Close)
	return g, srv
}

func do(t *testing.T, method, url string, body []byte) *http.Response {
	t.Helper()
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return resp
}

func TestPutGetObject(t *testing.T) {
	_, srv := newGateway(t)
	if resp := do(t, http.MethodPut, srv.URL+"/mybucket", nil); resp.StatusCode != 200 {
		t.Fatalf("create bucket: %d", resp.StatusCode)
	}
	payload := bytes.Repeat([]byte("s3data!"), 1000)
	resp := do(t, http.MethodPut, srv.URL+"/mybucket/path/to/key", payload)
	if resp.StatusCode != 200 {
		t.Fatalf("put: %d", resp.StatusCode)
	}
	etag := resp.Header.Get("ETag")
	if etag == "" {
		t.Fatal("no ETag")
	}
	resp = do(t, http.MethodGet, srv.URL+"/mybucket/path/to/key", nil)
	if resp.StatusCode != 200 {
		t.Fatalf("get: %d", resp.StatusCode)
	}
	got, _ := io.ReadAll(resp.Body)
	if !bytes.Equal(got, payload) {
		t.Fatalf("payload mismatch: %d vs %d bytes", len(got), len(payload))
	}
	if resp.Header.Get("ETag") != etag {
		t.Fatal("etag changed between put and get")
	}
}

func TestHeadObject(t *testing.T) {
	_, srv := newGateway(t)
	do(t, http.MethodPut, srv.URL+"/b", nil)
	do(t, http.MethodPut, srv.URL+"/b/k", []byte("12345"))
	resp := do(t, http.MethodHead, srv.URL+"/b/k", nil)
	if resp.StatusCode != 200 || resp.Header.Get("Content-Length") != "5" {
		t.Fatalf("head: %d len=%s", resp.StatusCode, resp.Header.Get("Content-Length"))
	}
}

func TestGetMissing(t *testing.T) {
	_, srv := newGateway(t)
	if resp := do(t, http.MethodGet, srv.URL+"/nope/k", nil); resp.StatusCode != 404 {
		t.Fatalf("missing bucket: %d", resp.StatusCode)
	}
	do(t, http.MethodPut, srv.URL+"/b", nil)
	if resp := do(t, http.MethodGet, srv.URL+"/b/nope", nil); resp.StatusCode != 404 {
		t.Fatalf("missing key: %d", resp.StatusCode)
	}
}

func TestPutToMissingBucket(t *testing.T) {
	_, srv := newGateway(t)
	if resp := do(t, http.MethodPut, srv.URL+"/nobucket/k", []byte("x")); resp.StatusCode != 404 {
		t.Fatalf("status=%d", resp.StatusCode)
	}
}

func TestListBucketsAndObjects(t *testing.T) {
	_, srv := newGateway(t)
	do(t, http.MethodPut, srv.URL+"/alpha", nil)
	do(t, http.MethodPut, srv.URL+"/beta", nil)
	do(t, http.MethodPut, srv.URL+"/alpha/k2", []byte("y"))
	do(t, http.MethodPut, srv.URL+"/alpha/k1", []byte("x"))

	resp := do(t, http.MethodGet, srv.URL+"/", nil)
	body, _ := io.ReadAll(resp.Body)
	if !strings.Contains(string(body), "<Name>alpha</Name>") ||
		!strings.Contains(string(body), "<Name>beta</Name>") {
		t.Fatalf("list buckets: %s", body)
	}
	resp = do(t, http.MethodGet, srv.URL+"/alpha", nil)
	body, _ = io.ReadAll(resp.Body)
	s := string(body)
	if !strings.Contains(s, "<Key>k1</Key>") || !strings.Contains(s, "<Key>k2</Key>") {
		t.Fatalf("list objects: %s", s)
	}
	if strings.Index(s, "k1") > strings.Index(s, "k2") {
		t.Fatal("keys not sorted")
	}
}

func TestDeleteObjectAndBucket(t *testing.T) {
	g, srv := newGateway(t)
	do(t, http.MethodPut, srv.URL+"/b", nil)
	do(t, http.MethodPut, srv.URL+"/b/k", []byte("data"))
	if resp := do(t, http.MethodDelete, srv.URL+"/b", nil); resp.StatusCode != 409 {
		t.Fatalf("delete non-empty bucket: %d", resp.StatusCode)
	}
	if resp := do(t, http.MethodDelete, srv.URL+"/b/k", nil); resp.StatusCode != 204 {
		t.Fatalf("delete object: %d", resp.StatusCode)
	}
	if resp := do(t, http.MethodGet, srv.URL+"/b/k", nil); resp.StatusCode != 404 {
		t.Fatalf("get after delete: %d", resp.StatusCode)
	}
	if resp := do(t, http.MethodDelete, srv.URL+"/b", nil); resp.StatusCode != 204 {
		t.Fatalf("delete bucket: %d", resp.StatusCode)
	}
	if len(g.Buckets()) != 0 {
		t.Fatalf("buckets=%v", g.Buckets())
	}
}

func TestOverwriteReclaimsOldBlob(t *testing.T) {
	g, srv := newGateway(t)
	do(t, http.MethodPut, srv.URL+"/b", nil)
	do(t, http.MethodPut, srv.URL+"/b/k", []byte("version-one"))
	do(t, http.MethodPut, srv.URL+"/b/k", []byte("version-two"))
	resp := do(t, http.MethodGet, srv.URL+"/b/k", nil)
	got, _ := io.ReadAll(resp.Body)
	if string(got) != "version-two" {
		t.Fatalf("got %q", got)
	}
	// Exactly one blob should remain alive.
	if n := len(g.cluster.VM.Blobs()); n != 1 {
		t.Fatalf("live blobs=%d", n)
	}
}

func TestEmptyObject(t *testing.T) {
	_, srv := newGateway(t)
	do(t, http.MethodPut, srv.URL+"/b", nil)
	if resp := do(t, http.MethodPut, srv.URL+"/b/empty", nil); resp.StatusCode != 200 {
		t.Fatalf("put empty: %d", resp.StatusCode)
	}
	resp := do(t, http.MethodGet, srv.URL+"/b/empty", nil)
	got, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != 200 || len(got) != 0 {
		t.Fatalf("get empty: %d %q", resp.StatusCode, got)
	}
}

// TestAuthRequiredAndSigned also checks that the gateway reports its
// authentication failures through its own monitoring agent, so they
// reach the user-activity history the prober policy counts.
func TestAuthRequiredAndSigned(t *testing.T) {
	cluster, err := core.NewCluster(core.Options{Providers: 3, Monitoring: true})
	if err != nil {
		t.Fatal(err)
	}
	gw := New(cluster, WithCredentials(map[string]string{"alice": "s3cret"}))
	srv := httptest.NewServer(gw)
	t.Cleanup(srv.Close)
	// Unsigned request rejected.
	if resp := do(t, http.MethodGet, srv.URL+"/", nil); resp.StatusCode != 403 {
		t.Fatalf("unsigned: %d", resp.StatusCode)
	}
	// Bad signature rejected.
	req, _ := http.NewRequest(http.MethodGet, srv.URL+"/", nil)
	req.Header.Set("Authorization", "AWS alice:bogus")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 403 {
		t.Fatalf("bad sig: %d", resp.StatusCode)
	}
	// Properly signed request accepted.
	req, _ = http.NewRequest(http.MethodGet, srv.URL+"/", nil)
	req.Header.Set("x-bs-date", "20260612")
	req.Header.Set("Authorization", "AWS alice:"+Sign("s3cret", "GET", "/", "20260612"))
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("signed: %d", resp.StatusCode)
	}
	// An IPv6 peer is attributed to its host, not to the "[" before it.
	rec := httptest.NewRecorder()
	v6 := httptest.NewRequest(http.MethodGet, "/", nil)
	v6.RemoteAddr = "[::1]:4321"
	gw.ServeHTTP(rec, v6)
	if rec.Code != 403 {
		t.Fatalf("unsigned from [::1]: %d", rec.Code)
	}
	// Auth failures reach the history, attributed to the remote host.
	now := time.Now()
	cluster.Tick(now)
	for host, want := range map[string]int{"127.0.0.1": 2, "::1": 1, "[": 0} {
		if n := cluster.Hist.Failures(host, string(instrument.OpAuthFail), now, time.Minute); n != want {
			t.Fatalf("auth_fail for %q in history=%d, want %d", host, n, want)
		}
	}
}

func TestConcurrentPuts(t *testing.T) {
	_, srv := newGateway(t)
	do(t, http.MethodPut, srv.URL+"/b", nil)
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			body := bytes.Repeat([]byte{byte(i)}, 2048)
			req, _ := http.NewRequest(http.MethodPut,
				fmt.Sprintf("%s/b/obj%02d", srv.URL, i), bytes.NewReader(body))
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				errs <- err
				return
			}
			resp.Body.Close()
			if resp.StatusCode != 200 {
				errs <- fmt.Errorf("put %d: status %d", i, resp.StatusCode)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	for i := 0; i < 16; i++ {
		resp := do(t, http.MethodGet, fmt.Sprintf("%s/b/obj%02d", srv.URL, i), nil)
		got, _ := io.ReadAll(resp.Body)
		if len(got) != 2048 || got[0] != byte(i) {
			t.Fatalf("obj%02d corrupted", i)
		}
	}
}

func TestMethodNotAllowed(t *testing.T) {
	_, srv := newGateway(t)
	if resp := do(t, http.MethodDelete, srv.URL+"/", nil); resp.StatusCode != 405 {
		t.Fatalf("root delete: %d", resp.StatusCode)
	}
	do(t, http.MethodPut, srv.URL+"/b", nil)
	if resp := do(t, http.MethodPost, srv.URL+"/b", nil); resp.StatusCode != 405 {
		t.Fatalf("bucket post: %d", resp.StatusCode)
	}
	if resp := do(t, http.MethodPost, srv.URL+"/b/k", nil); resp.StatusCode != 405 {
		t.Fatalf("object post: %d", resp.StatusCode)
	}
}

// TestClientOptionsPassthrough drives a PUT/GET round trip through a
// gateway whose clients run with a relaxed write quorum over a
// replicated cluster with one provider down — an option that must reach
// the BlobSeer clients the gateway creates for the PUT to succeed at
// all.
func TestClientOptionsPassthrough(t *testing.T) {
	cluster, err := core.NewCluster(core.Options{
		Providers: 3, Replicas: 3, Monitoring: false,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Stop one provider without unregistering it: placement still
	// targets it, so only a write quorum below the replication degree
	// lets a PUT publish.
	if p, ok := cluster.Provider("provider001"); ok {
		p.Stop()
	} else {
		t.Fatal("no provider001")
	}
	g := New(cluster, WithClientOptions(client.WithWriteQuorum(2)))
	srv := httptest.NewServer(g)
	t.Cleanup(srv.Close)

	do(t, http.MethodPut, srv.URL+"/b", nil)
	payload := bytes.Repeat([]byte("opt"), 4096)
	if resp := do(t, http.MethodPut, srv.URL+"/b/key", payload); resp.StatusCode != 200 {
		t.Fatalf("put with quorum: %d", resp.StatusCode)
	}
	resp := do(t, http.MethodGet, srv.URL+"/b/key", nil)
	if resp.StatusCode != 200 {
		t.Fatalf("get: %d", resp.StatusCode)
	}
	got, _ := io.ReadAll(resp.Body)
	if !bytes.Equal(got, payload) {
		t.Fatal("payload corrupted")
	}

	// Sanity: without the options, the same PUT must fail the quorum.
	plain := New(cluster)
	srv2 := httptest.NewServer(plain)
	t.Cleanup(srv2.Close)
	do(t, http.MethodPut, srv2.URL+"/b2", nil)
	if resp := do(t, http.MethodPut, srv2.URL+"/b2/key", payload); resp.StatusCode == 200 {
		t.Fatal("default-quorum put unexpectedly succeeded with a provider down")
	}
}

// doRange issues a GET with a Range header.
func doRange(t *testing.T, url, rng string) *http.Response {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Range", rng)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return resp
}

func TestGetObjectRange(t *testing.T) {
	_, srv := newGateway(t)
	do(t, http.MethodPut, srv.URL+"/b", nil)
	payload := bytes.Repeat([]byte("0123456789"), 100) // 1000 bytes
	do(t, http.MethodPut, srv.URL+"/b/k", payload)

	cases := []struct {
		rng    string
		wantLo int64
		wantHi int64 // inclusive
	}{
		{"bytes=0-9", 0, 9},
		{"bytes=100-299", 100, 299},
		{"bytes=990-", 990, 999},
		{"bytes=-25", 975, 999},
		{"bytes=500-5000", 500, 999}, // end clamped to object size
	}
	for _, tc := range cases {
		resp := doRange(t, srv.URL+"/b/k", tc.rng)
		if resp.StatusCode != http.StatusPartialContent {
			t.Fatalf("%s: status=%d", tc.rng, resp.StatusCode)
		}
		wantCR := fmt.Sprintf("bytes %d-%d/%d", tc.wantLo, tc.wantHi, len(payload))
		if cr := resp.Header.Get("Content-Range"); cr != wantCR {
			t.Fatalf("%s: Content-Range=%q want %q", tc.rng, cr, wantCR)
		}
		got, _ := io.ReadAll(resp.Body)
		if !bytes.Equal(got, payload[tc.wantLo:tc.wantHi+1]) {
			t.Fatalf("%s: body mismatch (%d bytes)", tc.rng, len(got))
		}
	}

	// Full GET advertises range support.
	resp := do(t, http.MethodGet, srv.URL+"/b/k", nil)
	if resp.Header.Get("Accept-Ranges") != "bytes" {
		t.Fatal("Accept-Ranges missing")
	}

	// Unsatisfiable ranges → 416 with the star form.
	for _, rng := range []string{"bytes=1000-", "bytes=2000-3000", "bytes=-0"} {
		resp := doRange(t, srv.URL+"/b/k", rng)
		if resp.StatusCode != http.StatusRequestedRangeNotSatisfiable {
			t.Fatalf("%s: status=%d", rng, resp.StatusCode)
		}
		if cr := resp.Header.Get("Content-Range"); cr != fmt.Sprintf("bytes */%d", len(payload)) {
			t.Fatalf("%s: Content-Range=%q", rng, cr)
		}
	}

	// Malformed or multi-range headers are ignored: full 200 response.
	// RFC 9110's positions are 1*DIGIT: a sign or a space makes the header
	// invalid, not a range.
	for _, rng := range []string{"bytes=a-b", "chunks=0-5", "bytes=0-5,10-15",
		"bytes=+0-+9", "bytes=+0-9", "bytes=0-+9", "bytes=-+25", "bytes=--25", "bytes=-0-9",
		"bytes= 0-9", "bytes=0 -9", "bytes=0- 9", "bytes=- 25", "bytes=1_0-20"} {
		resp := doRange(t, srv.URL+"/b/k", rng)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status=%d", rng, resp.StatusCode)
		}
		got, _ := io.ReadAll(resp.Body)
		if len(got) != len(payload) {
			t.Fatalf("%s: body=%d bytes", rng, len(got))
		}
	}
}

// FuzzParseRange holds the Range parser to two properties: no header
// makes it panic, and a range it accepts as satisfiable lies inside
// the object.
func FuzzParseRange(f *testing.F) {
	for _, h := range []string{"bytes=0-9", "bytes=5-", "bytes=-25", "bytes=1000-", "bytes=-0",
		"bytes=0-5,10-15", "bytes=+0-+9", "bytes= 0-9", "bytes=9223372036854775807-"} {
		f.Add(h, int64(100))
	}
	f.Add("bytes=-1", int64(0))
	f.Fuzz(func(t *testing.T, h string, size int64) {
		if size < 0 {
			t.Skip("object sizes are never negative")
		}
		lo, hi, ok, satisfiable := parseRange(h, size)
		if ok && satisfiable && !(0 <= lo && lo <= hi && hi < size) {
			t.Fatalf("parseRange(%q, %d) = [%d, %d], outside the object", h, size, lo, hi)
		}
	})
}

// FuzzServeRequest drives the gateway's request front — authentication,
// path splitting, and the bucket and object dispatch — with arbitrary
// methods, paths and auth headers, over a fresh in-memory cluster that
// holds bucket "b" with object "k". sign replaces the Authorization
// header with a valid signature, so an input gets past authentication.
// A healthy cluster must answer every request without a panic and
// without a 5xx.
func FuzzServeRequest(f *testing.F) {
	const access, secret = "alice", "s3cret"
	for _, s := range []struct{ method, path string }{
		{"GET", "/"}, {"PUT", "/b"}, {"GET", "/b"}, {"DELETE", "/b"}, {"DELETE", "/b/"},
		{"PUT", "/b/k"}, {"GET", "/b/k"}, {"HEAD", "/b/k"}, {"DELETE", "/b/k"}, {"POST", "/b/k"},
		{"PUT", "/c/k"}, {"GET", "/b/a/../k"}, {"PUT", "//k"}, {"", "/b/k"},
	} {
		f.Add(s.method, s.path, "", "Sun, 18 Oct 2026 00:00:00 GMT", true)
	}
	for _, auth := range []string{"", "AWS ", "AWS alice", "AWS alice:bogus", "AWS bob:x", "Bearer alice:x"} {
		f.Add("GET", "/b/k", auth, "", false)
	}
	f.Fuzz(func(t *testing.T, method, path, auth, date string, sign bool) {
		cluster, err := core.NewCluster(core.Options{Providers: 3, Monitoring: false})
		if err != nil {
			t.Fatal(err)
		}
		g := New(cluster, WithCredentials(map[string]string{access: secret}))
		serve := func(method, path, auth, date string) *httptest.ResponseRecorder {
			body := "fuzz"
			r := &http.Request{
				Method: method, URL: &url.URL{Path: path}, Header: http.Header{},
				Body: io.NopCloser(strings.NewReader(body)), ContentLength: int64(len(body)),
				RemoteAddr: "192.0.2.1:1234",
			}
			r.Header.Set("Authorization", auth)
			r.Header.Set("x-bs-date", date)
			rec := httptest.NewRecorder()
			g.ServeHTTP(rec, r)
			return rec
		}
		signed := func(method, path, date string) string {
			return "AWS " + access + ":" + Sign(secret, method, path, date)
		}
		for _, p := range []string{"/b", "/b/k"} {
			if rec := serve(http.MethodPut, p, signed(http.MethodPut, p, ""), ""); rec.Code != http.StatusOK {
				t.Fatalf("seeding PUT %s: %d %s", p, rec.Code, rec.Body)
			}
		}
		if sign {
			auth = signed(method, path, date)
		}
		if rec := serve(method, path, auth, date); rec.Code >= 500 {
			t.Fatalf("%q %q on a healthy cluster: %d %s", method, path, rec.Code, rec.Body)
		}
	})
}

// TestPutObjectTooLargeRejected verifies the EntityTooLarge path: a body
// over the limit is rejected with 400 — not silently truncated — and
// leaves neither an object entry nor a live blob behind.
func TestPutObjectTooLargeRejected(t *testing.T) {
	cluster, err := core.NewCluster(core.Options{Providers: 3, Monitoring: false})
	if err != nil {
		t.Fatal(err)
	}
	g := New(cluster, WithMaxObjectSize(1024))
	srv := httptest.NewServer(g)
	t.Cleanup(srv.Close)

	do(t, http.MethodPut, srv.URL+"/b", nil)
	// Declared size over the limit: rejected before any byte lands.
	resp := do(t, http.MethodPut, srv.URL+"/b/big", bytes.Repeat([]byte("x"), 1025))
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("oversized put: status=%d", resp.StatusCode)
	}
	body, _ := io.ReadAll(resp.Body)
	if !strings.Contains(string(body), "EntityTooLarge") {
		t.Fatalf("error code missing: %s", body)
	}
	// Chunked body with no declared length: detected while streaming.
	req, err := http.NewRequest(http.MethodPut, srv.URL+"/b/big",
		&slowBody{data: bytes.Repeat([]byte("x"), 1500), step: 100})
	if err != nil {
		t.Fatal(err)
	}
	req.ContentLength = -1
	chunked, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(chunked.Body)
	chunked.Body.Close()
	if chunked.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), "EntityTooLarge") {
		t.Fatalf("chunked oversized put: status=%d body=%s", chunked.StatusCode, body)
	}
	if resp := do(t, http.MethodGet, srv.URL+"/b/big", nil); resp.StatusCode != 404 {
		t.Fatalf("truncated object stored: %d", resp.StatusCode)
	}
	if n := len(cluster.VM.Blobs()); n != 0 {
		t.Fatalf("partial blob leaked: %d live blobs", n)
	}

	// Exactly at the limit is accepted whole.
	exact := bytes.Repeat([]byte("y"), 1024)
	if resp := do(t, http.MethodPut, srv.URL+"/b/ok", exact); resp.StatusCode != 200 {
		t.Fatalf("exact-size put: %d", resp.StatusCode)
	}
	resp = do(t, http.MethodGet, srv.URL+"/b/ok", nil)
	got, _ := io.ReadAll(resp.Body)
	if !bytes.Equal(got, exact) {
		t.Fatalf("exact-size object corrupted: %d bytes", len(got))
	}
}

// slowBody trickles a payload a few bytes per Read with no Len/WriteTo,
// so the gateway must consume it incrementally.
type slowBody struct {
	data []byte
	step int
}

func (s *slowBody) Read(p []byte) (int, error) {
	if len(s.data) == 0 {
		return 0, io.EOF
	}
	n := s.step
	if n > len(p) {
		n = len(p)
	}
	if n > len(s.data) {
		n = len(s.data)
	}
	copy(p, s.data[:n])
	s.data = s.data[n:]
	return n, nil
}

// hookBody streams a payload and runs a hook once, after roughly half
// the bytes have been consumed — a deterministic way to interleave a
// second request with an in-flight upload.
type hookBody struct {
	data  []byte
	left  int
	fired bool
	mid   func()
}

func newHookBody(data []byte, mid func()) *hookBody {
	return &hookBody{data: data, left: len(data) / 2, mid: mid}
}

func (h *hookBody) Read(p []byte) (int, error) {
	if !h.fired && h.left <= 0 {
		h.fired = true
		h.mid()
	}
	if len(h.data) == 0 {
		return 0, io.EOF
	}
	n := 64
	if n > len(p) {
		n = len(p)
	}
	if n > len(h.data) {
		n = len(h.data)
	}
	copy(p, h.data[:n])
	h.data = h.data[n:]
	h.left -= n
	return n, nil
}

// providersEmpty runs two sweep passes — a writer's released chunk
// lease retires at the second epoch advance after its release, so the
// second pass frees what the writers stored before them — and fails the test if any provider still holds a chunk, or the
// metadata store a tree node. The gateway frees nothing itself: only a
// pass does.
func providersEmpty(t *testing.T, cluster *core.Cluster, when string) {
	t.Helper()
	for pass := 0; pass < 2; pass++ {
		if _, err := cluster.GC.Sweep(context.Background(), false); err != nil {
			t.Fatalf("%s: sweep: %v", when, err)
		}
	}
	if n := cluster.VM.MetaStore().Len(); n != 0 {
		t.Fatalf("%s: metadata store still holds %d nodes", when, n)
	}
	for _, id := range cluster.Providers() {
		p, ok := cluster.Provider(id)
		if !ok {
			continue
		}
		if n := p.Stats().Chunks; n != 0 {
			t.Fatalf("%s: provider %s still holds %d chunks", when, id, n)
		}
	}
}

// TestPutRacingBucketDelete deletes the bucket while a PUT body is still
// streaming: the PUT must fail with NoSuchBucket — not panic on the
// vanished bucket map — and the already-published blob must be deleted,
// its chunks left for the sweep.
func TestPutRacingBucketDelete(t *testing.T) {
	cluster, err := core.NewCluster(core.Options{Providers: 3, Monitoring: false})
	if err != nil {
		t.Fatal(err)
	}
	g := New(cluster, WithChunkSize(64))
	srv := httptest.NewServer(g)
	t.Cleanup(srv.Close)

	do(t, http.MethodPut, srv.URL+"/b", nil)
	// Every full 64-byte chunk has identical content, so each provider
	// holds one chunk at a high refcount: the sweep's purge must free it
	// whatever the count.
	payload := bytes.Repeat([]byte("r"), 10000)
	body := newHookBody(payload, func() {
		// The object is only inserted at PUT completion, so the bucket is
		// still empty and deletable mid-upload.
		req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/b", nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Errorf("mid-stream bucket delete: %v", err)
			return
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNoContent {
			t.Errorf("mid-stream bucket delete: status=%d", resp.StatusCode)
		}
	})
	req, err := http.NewRequest(http.MethodPut, srv.URL+"/b/k", body)
	if err != nil {
		t.Fatal(err)
	}
	req.ContentLength = int64(len(payload))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	msg, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound || !strings.Contains(string(msg), "NoSuchBucket") {
		t.Fatalf("put into deleted bucket: status=%d body=%s", resp.StatusCode, msg)
	}
	if n := len(cluster.VM.Blobs()); n != 0 {
		t.Fatalf("blob from a lost PUT race survived: %d live blobs", n)
	}
	providersEmpty(t, cluster, "after racing put")
}

// TestAbandonedPutReclaimsFlushedChunks streams an oversized body through
// a small-chunk gateway: by the time the limit trips, many chunk slots
// have already been flushed to providers. The version was never
// published, so no tree references them: once the gateway has released
// the writer's lease, the sweep takes them two passes later.
func TestAbandonedPutReclaimsFlushedChunks(t *testing.T) {
	cluster, err := core.NewCluster(core.Options{Providers: 3, Monitoring: false})
	if err != nil {
		t.Fatal(err)
	}
	g := New(cluster, WithChunkSize(64), WithMaxObjectSize(1024))
	srv := httptest.NewServer(g)
	t.Cleanup(srv.Close)

	do(t, http.MethodPut, srv.URL+"/b", nil)
	req, err := http.NewRequest(http.MethodPut, srv.URL+"/b/big",
		&slowBody{data: bytes.Repeat([]byte("x"), 4096), step: 128})
	if err != nil {
		t.Fatal(err)
	}
	req.ContentLength = -1 // chunked: the limit trips mid-stream
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	msg, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(msg), "EntityTooLarge") {
		t.Fatalf("oversized put: status=%d body=%s", resp.StatusCode, msg)
	}
	if n := len(cluster.VM.Blobs()); n != 0 {
		t.Fatalf("partial blob leaked: %d live blobs", n)
	}
	providersEmpty(t, cluster, "after abandoned put")
}

// TestPutBackendFailureIs503 fails every chunk flush (one of three
// replicas down, quorum = all): the PUT must surface a retryable 503
// SlowDown — the degraded-backend class — not blame the client with
// 400 IncompleteBody.
func TestPutBackendFailureIs503(t *testing.T) {
	cluster, err := core.NewCluster(core.Options{Providers: 3, Replicas: 3, Monitoring: false})
	if err != nil {
		t.Fatal(err)
	}
	if p, ok := cluster.Provider("provider001"); ok {
		p.Stop()
	} else {
		t.Fatal("no provider001")
	}
	g := New(cluster, WithChunkSize(64)) // flush — and fail — mid-stream
	srv := httptest.NewServer(g)
	t.Cleanup(srv.Close)

	do(t, http.MethodPut, srv.URL+"/b", nil)
	req, err := http.NewRequest(http.MethodPut, srv.URL+"/b/k",
		&slowBody{data: bytes.Repeat([]byte("f"), 8192), step: 64})
	if err != nil {
		t.Fatal(err)
	}
	req.ContentLength = -1
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	msg, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || !strings.Contains(string(msg), "SlowDown") {
		t.Fatalf("backend-failed put: status=%d body=%s", resp.StatusCode, msg)
	}
}

// denyReads admits everything except reads — the shape of a policy
// decision landing between a PUT and its GET.
type denyReads struct{}

func (denyReads) Allow(_ context.Context, _ string, op instrument.Op) error {
	if op == instrument.OpRead {
		return errors.New("reads denied")
	}
	return nil
}

// TestGetReaderFailureSendsCleanError denies the read at NewReader time:
// the error document must arrive intact — not truncated under a
// Content-Length staged for the full object before the reader opened.
func TestGetReaderFailureSendsCleanError(t *testing.T) {
	cluster, err := core.NewCluster(core.Options{Providers: 3, Monitoring: false})
	if err != nil {
		t.Fatal(err)
	}
	g := New(cluster, WithClientOptions(client.WithGatekeeper(denyReads{})))
	srv := httptest.NewServer(g)
	t.Cleanup(srv.Close)

	do(t, http.MethodPut, srv.URL+"/b", nil)
	do(t, http.MethodPut, srv.URL+"/b/k", bytes.Repeat([]byte("g"), 2048))
	resp := do(t, http.MethodGet, srv.URL+"/b/k", nil)
	msg, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("error response truncated mid-body: %v", err)
	}
	if resp.StatusCode != http.StatusInternalServerError || !strings.Contains(string(msg), "InternalError") {
		t.Fatalf("denied get: status=%d body=%s", resp.StatusCode, msg)
	}
}

// TestOverwriteReclaimsRepeatedContentChunks overwrites then deletes an
// object whose full chunks all share one content hash, so each provider
// holds that chunk once at a refcount of ten: the sweep purges it
// wholesale, refcount or not.
func TestOverwriteReclaimsRepeatedContentChunks(t *testing.T) {
	cluster, err := core.NewCluster(core.Options{Providers: 3, Monitoring: false})
	if err != nil {
		t.Fatal(err)
	}
	g := New(cluster, WithChunkSize(64))
	srv := httptest.NewServer(g)
	t.Cleanup(srv.Close)

	do(t, http.MethodPut, srv.URL+"/b", nil)
	old := bytes.Repeat([]byte("o"), 640) // ten identical 64-byte chunks
	do(t, http.MethodPut, srv.URL+"/b/k", old)
	if resp := do(t, http.MethodPut, srv.URL+"/b/k", []byte("new")); resp.StatusCode != 200 {
		t.Fatalf("overwrite: %d", resp.StatusCode)
	}
	if resp := do(t, http.MethodDelete, srv.URL+"/b/k", nil); resp.StatusCode != 204 {
		t.Fatalf("delete: %d", resp.StatusCode)
	}
	if n := len(cluster.VM.Blobs()); n != 0 {
		t.Fatalf("live blobs=%d after overwrite+delete", n)
	}
	providersEmpty(t, cluster, "after overwrite+delete")
}

// TestPutStreamsIncrementalBody pushes a chunked, length-unknown body
// through PUT and reads it back with a Range: the full streaming path in
// both directions.
func TestPutStreamsIncrementalBody(t *testing.T) {
	_, srv := newGateway(t)
	do(t, http.MethodPut, srv.URL+"/b", nil)
	payload := bytes.Repeat([]byte("incremental-streaming-put"), 400) // 10 KB
	req, err := http.NewRequest(http.MethodPut, srv.URL+"/b/k",
		&slowBody{data: append([]byte(nil), payload...), step: 333})
	if err != nil {
		t.Fatal(err)
	}
	req.ContentLength = -1 // forces chunked transfer encoding
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("chunked put: %d", resp.StatusCode)
	}
	r := doRange(t, srv.URL+"/b/k", fmt.Sprintf("bytes=1000-%d", len(payload)-1))
	got, _ := io.ReadAll(r.Body)
	if !bytes.Equal(got, payload[1000:]) {
		t.Fatalf("range after chunked put: %d bytes", len(got))
	}
}

// gatewayChunks sums distinct chunks across the gateway's providers.
func gatewayChunks(g *Gateway) int {
	n := 0
	for _, id := range g.cluster.Providers() {
		if p, ok := g.cluster.Provider(id); ok {
			n += p.Stats().Chunks
		}
	}
	return n
}

// TestStreamingGetSurvivesConcurrentDelete: a streaming GET pins its
// version, so the sweep passes that run after an object DELETE raced the
// download leave its chunks alone — the client receives the full
// original body — and the first pass after the stream closes reclaims
// the space.
func TestStreamingGetSurvivesConcurrentDelete(t *testing.T) {
	g, srv := newGateway(t, WithChunkSize(64<<10))
	do(t, http.MethodPut, srv.URL+"/b", nil)
	payload := bytes.Repeat([]byte("reader-vs-delete"), 1<<20) // 16 MiB
	if resp := do(t, http.MethodPut, srv.URL+"/b/k", payload); resp.StatusCode != 200 {
		t.Fatalf("put: %d", resp.StatusCode)
	}

	resp := do(t, http.MethodGet, srv.URL+"/b/k", nil)
	if resp.StatusCode != 200 {
		t.Fatalf("get: %d", resp.StatusCode)
	}
	// With a 16 MiB body the handler is still mid-stream after 100
	// bytes: the socket buffers (a 4 MiB send buffer at most on Linux by
	// default) cannot hold the rest, so its reader keeps its pin.
	head := make([]byte, 100)
	if _, err := io.ReadFull(resp.Body, head); err != nil {
		t.Fatal(err)
	}
	if dresp := do(t, http.MethodDelete, srv.URL+"/b/k", nil); dresp.StatusCode != 204 {
		t.Fatalf("delete during stream: %d", dresp.StatusCode)
	}
	// The object is gone for new requests...
	if gresp := do(t, http.MethodGet, srv.URL+"/b/k", nil); gresp.StatusCode != 404 {
		t.Fatalf("get after delete: %d", gresp.StatusCode)
	}
	// ...but passes enough to retire every released writer lease free
	// none of the pinned chunks...
	ctx := context.Background()
	stored := gatewayChunks(g)
	for pass := 0; pass < 3; pass++ {
		if _, err := g.cluster.GC.Sweep(ctx, false); err != nil {
			t.Fatal(err)
		}
	}
	if got := gatewayChunks(g); got != stored {
		t.Fatalf("passes under a pinned stream freed %d chunks", stored-got)
	}
	if g.cluster.GC.Stats().Pins == 0 {
		t.Fatal("the handler finished before the passes: nothing was pinned")
	}
	// ...and the in-flight stream still serves the full original body.
	rest, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read rest of deleted object: %v", err)
	}
	if !bytes.Equal(append(head, rest...), payload) {
		t.Fatalf("stream truncated or corrupted: got %d bytes, want %d",
			len(head)+len(rest), len(payload))
	}
	// The handler closes its reader once the body is out; the first pass
	// after that reclaims everything.
	deadline := time.Now().Add(5 * time.Second)
	for g.cluster.GC.Stats().Pins != 0 {
		if time.Now().After(deadline) {
			t.Fatal("the handler never closed its reader")
		}
		time.Sleep(time.Millisecond)
	}
	if _, err := g.cluster.GC.Sweep(ctx, false); err != nil {
		t.Fatal(err)
	}
	if got := gatewayChunks(g); got != 0 {
		t.Fatalf("chunks not reclaimed by the pass after the stream closed: %d left", got)
	}
}

// TestStreamingGetSurvivesConcurrentOverwrite: overwriting the object
// mid-download replaces the mapping and deletes the old blob through
// the lifecycle layer — whose sweep must wait for the pinned stream.
func TestStreamingGetSurvivesConcurrentOverwrite(t *testing.T) {
	_, srv := newGateway(t, WithChunkSize(4<<10))
	do(t, http.MethodPut, srv.URL+"/b", nil)
	oldBody := bytes.Repeat([]byte("old-version-data!"), 64<<10)
	newBody := bytes.Repeat([]byte("NEW"), 1024)
	if resp := do(t, http.MethodPut, srv.URL+"/b/k", oldBody); resp.StatusCode != 200 {
		t.Fatalf("put: %d", resp.StatusCode)
	}

	resp := do(t, http.MethodGet, srv.URL+"/b/k", nil)
	head := make([]byte, 100)
	if _, err := io.ReadFull(resp.Body, head); err != nil {
		t.Fatal(err)
	}
	if presp := do(t, http.MethodPut, srv.URL+"/b/k", newBody); presp.StatusCode != 200 {
		t.Fatalf("overwrite during stream: %d", presp.StatusCode)
	}
	rest, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read rest of overwritten object: %v", err)
	}
	if !bytes.Equal(append(head, rest...), oldBody) {
		t.Fatalf("stream served mixed versions: got %d bytes, want %d",
			len(head)+len(rest), len(oldBody))
	}
	// The new version is what later GETs see.
	resp = do(t, http.MethodGet, srv.URL+"/b/k", nil)
	got, _ := io.ReadAll(resp.Body)
	if !bytes.Equal(got, newBody) {
		t.Fatal("overwrite not visible to new readers")
	}
}

// failAfterReader yields n bytes then fails: a client that dies mid-PUT.
type failAfterReader struct {
	n   int
	err error
}

func (r *failAfterReader) Read(p []byte) (int, error) {
	if r.n <= 0 {
		return 0, r.err
	}
	if len(p) > r.n {
		p = p[:r.n]
	}
	for i := range p {
		p[i] = 'f'
	}
	r.n -= len(p)
	return len(p), nil
}

// TestAbandonedPutDrainsLeases: a PUT whose body dies mid-stream is
// abandoned by the gateway; the abandon path must release the writer's
// lease (no lease survives the failed upload), so sweeps free the chunks
// the writer had already flushed without waiting out any TTL.
func TestAbandonedPutDrainsLeases(t *testing.T) {
	cluster, err := core.NewCluster(core.Options{
		Providers: 2, Monitoring: false,
	})
	if err != nil {
		t.Fatal(err)
	}
	g := New(cluster, WithChunkSize(256))
	srv := httptest.NewServer(g)
	t.Cleanup(srv.Close)

	do(t, http.MethodPut, srv.URL+"/b", nil)

	// Several chunks flush before the body fails; the transport error
	// surfaces client-side, the gateway abandons server-side.
	body := &failAfterReader{n: 4 << 10, err: errors.New("client died")}
	req, err := http.NewRequest(http.MethodPut, srv.URL+"/b/k", body)
	if err != nil {
		t.Fatal(err)
	}
	req.ContentLength = 64 << 10
	if resp, err := http.DefaultClient.Do(req); err == nil {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			t.Fatal("truncated PUT reported success")
		}
	}

	// Abandon released the lease synchronously with the handler, but
	// the handler may still be finishing when Do returns. Nothing
	// published, nothing leased: sweeps reclaim every flushed chunk
	// without any TTL wait — a chunk lease left behind would hold its
	// chunk for the provider's whole TTL and fail the deadline.
	deadline := time.Now().Add(5 * time.Second)
	ctx := context.Background()
	for time.Now().Before(deadline) {
		if _, err := cluster.GC.Sweep(ctx, false); err != nil {
			t.Fatal(err)
		}
		total := 0
		for _, id := range cluster.Providers() {
			if p, ok := cluster.Provider(id); ok {
				total += p.Stats().Chunks
			}
		}
		if total == 0 {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("abandoned PUT's chunks were never reclaimed")
}

// TestRequestsDoNotGrowMonitoringMesh is the agent-leak regression: a
// monitoring agent is registered with the mesh for good, so the gateway
// must mint one client (and one agent) per user, not per request — every
// Tick's FlushAll walks them all. After each user's first request, 1000
// more PUT/GET/DELETE requests leave the count alone.
func TestRequestsDoNotGrowMonitoringMesh(t *testing.T) {
	cluster, err := core.NewCluster(core.Options{Providers: 3, Monitoring: true})
	if err != nil {
		t.Fatal(err)
	}
	users := []string{"ann", "bob", "cyd"}
	keys := map[string]string{}
	for _, u := range users {
		keys[u] = "secret-" + u
	}
	g := New(cluster, WithCredentials(keys), WithChunkSize(1<<10))
	serve := func(user, method, path string, body []byte) int {
		req := httptest.NewRequest(method, path, bytes.NewReader(body))
		req.Header.Set("x-bs-date", "now")
		req.Header.Set("Authorization", "AWS "+user+":"+Sign(keys[user], method, path, "now"))
		rec := httptest.NewRecorder()
		g.ServeHTTP(rec, req)
		return rec.Code
	}
	if code := serve("ann", http.MethodPut, "/b", nil); code != 200 {
		t.Fatalf("create bucket: %d", code)
	}
	payload := bytes.Repeat([]byte("x"), 3000)
	for _, u := range users {
		if code := serve(u, http.MethodPut, "/b/"+u, payload); code != 200 {
			t.Fatalf("first put as %s: %d", u, code)
		}
	}
	before := cluster.Mesh.Agents()
	for i := 0; i < 1000; i++ {
		u := users[i%len(users)]
		method := []string{http.MethodPut, http.MethodGet, http.MethodGet, http.MethodDelete}[i/len(users)%4]
		want := map[string]int{http.MethodPut: 200, http.MethodGet: 200, http.MethodDelete: 204}[method]
		if code := serve(u, method, "/b/"+u, payload); code != want {
			t.Fatalf("request %d (%s as %s): %d, want %d", i, method, u, code, want)
		}
	}
	if after := cluster.Mesh.Agents(); after != before {
		t.Fatalf("mesh grew from %d to %d agents over 1000 requests", before, after)
	}
}

// TestMetadataWorkPerRequest counts what each S3 request costs the
// metadata providers — their node writes and client node reads, as the
// monitoring mesh sees them (one meta_put / meta_get event each) — with
// the benchmark's 1 MiB chunks. A tree is as tall as its object is long:
// a 16 KiB object is one node, an 8 MiB one fifteen, a range read one
// root-to-leaf path; and deleting the overwritten or deleted BLOB reads
// no node at all.
func TestMetadataWorkPerRequest(t *testing.T) {
	cluster, err := core.NewCluster(core.Options{Providers: 3, Monitoring: true})
	if err != nil {
		t.Fatal(err)
	}
	var puts, gets atomic.Int64
	cluster.Mesh.Subscribe(monitor.SubscriberFunc(func(evs []instrument.Event) {
		for _, ev := range evs {
			switch ev.Op {
			case instrument.OpMetaPut:
				puts.Add(1)
			case instrument.OpMetaGet:
				gets.Add(1)
			}
		}
	}))
	srv := httptest.NewServer(New(cluster, WithChunkSize(1<<20)))
	t.Cleanup(srv.Close)
	do(t, http.MethodPut, srv.URL+"/b", nil)

	small := bytes.Repeat([]byte("s"), 16<<10)
	large := bytes.Repeat([]byte("0123456789abcdef"), 8<<20/16)
	read := func(key, rng string, want []byte) func() {
		return func() {
			resp := doRange(t, srv.URL+"/b/"+key, rng)
			if got, err := io.ReadAll(resp.Body); err != nil || !bytes.Equal(got, want) {
				t.Fatalf("GET %q: %d bytes, err %v; want %d bytes", rng, len(got), err, len(want))
			}
		}
	}
	for _, c := range []struct {
		name       string
		req        func()
		puts, gets int64
	}{
		{"PUT 16 KiB", func() { do(t, http.MethodPut, srv.URL+"/b/small", small) }, 1, 0},
		{"GET 16 KiB", read("small", "", small), 0, 1},
		{"PUT-overwrite 16 KiB", func() { do(t, http.MethodPut, srv.URL+"/b/small", small) }, 1, 0},
		{"PUT 8 MiB", func() { do(t, http.MethodPut, srv.URL+"/b/large", large) }, 15, 0},
		{"GET 8 MiB", read("large", "", large), 0, 15},
		{"range-GET 256 KiB of 8 MiB", read("large", "bytes=3145728-3407871", large[3<<20:3<<20+256<<10]), 0, 4},
		{"DELETE 8 MiB", func() { do(t, http.MethodDelete, srv.URL+"/b/large", nil) }, 0, 0},
	} {
		cluster.Mesh.FlushAll()
		puts.Store(0)
		gets.Store(0)
		c.req()
		cluster.Mesh.FlushAll()
		if p, g := puts.Load(), gets.Load(); p != c.puts || g != c.gets {
			t.Errorf("%s: %d node writes and %d node reads, want %d and %d", c.name, p, g, c.puts, c.gets)
		}
	}
}

// TestFetchBytesPerRequest counts what each GET costs the data providers
// in bytes sent, with the benchmark's 1 MiB chunks: a range read moves the
// bytes it returns — a chunk-aligned 256 KiB range, and one straddling two
// chunks — not the whole chunks under it, and a whole GET its object. The
// object's chunks are alike, so one ID: the whole GET admits its head to
// the gateway's chunk cache, and the straddling range's last 64 KiB, chunk
// 4's head, come from there.
func TestFetchBytesPerRequest(t *testing.T) {
	cluster, err := core.NewCluster(core.Options{Providers: 3, Monitoring: false})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(New(cluster, WithChunkSize(1<<20)))
	t.Cleanup(srv.Close)
	do(t, http.MethodPut, srv.URL+"/b", nil)
	large := bytes.Repeat([]byte("0123456789abcdef"), 8<<20/16)
	do(t, http.MethodPut, srv.URL+"/b/large", large)
	sent := func() (n int64) {
		for _, id := range cluster.Providers() {
			p, _ := cluster.Provider(id)
			n += p.Stats().BytesOut
		}
		return n
	}
	for _, c := range []struct {
		rng      string
		lo, n    int
		moved    int64
		wantCode int
	}{
		{"", 0, len(large), 8 << 20, http.StatusOK},
		{"bytes=3145728-3407871", 3 << 20, 256 << 10, 256 << 10, http.StatusPartialContent},
		{"bytes=3997696-4259839", 3<<20 + 832<<10, 256 << 10, 192 << 10, http.StatusPartialContent},
	} {
		before := sent()
		resp := doRange(t, srv.URL+"/b/large", c.rng)
		got, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != c.wantCode || !bytes.Equal(got, large[c.lo:c.lo+c.n]) {
			t.Fatalf("GET %q: status %d, %d bytes, err %v", c.rng, resp.StatusCode, len(got), err)
		}
		if moved := sent() - before; moved != c.moved {
			t.Errorf("GET %q: providers sent %d bytes, want %d", c.rng, moved, c.moved)
		}
	}
}

// TestGatewayChunkCache: the gateway's chunk cache serves a GET right
// after the PUT of a small object without reaching a provider, while the
// chunks of a large object are all fetched from the providers: its first
// chunk as a head and a remainder (client.BlobReader), so 9 fetches.
func TestGatewayChunkCache(t *testing.T) {
	cluster, err := core.NewCluster(core.Options{Providers: 3, Monitoring: false})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(New(cluster, WithChunkSize(1<<20)))
	t.Cleanup(srv.Close)
	fetches := func() (n int64) {
		for _, id := range cluster.Providers() {
			p, _ := cluster.Provider(id)
			n += p.Stats().Fetches
		}
		return n
	}
	do(t, http.MethodPut, srv.URL+"/b", nil)
	for _, c := range []struct {
		key     string
		size    int
		fetched int64
	}{
		{"small", 16 << 10, 0},
		{"large", 8 << 20, 9},
	} {
		body := bytes.Repeat([]byte(c.key), c.size/len(c.key)+1)[:c.size]
		do(t, http.MethodPut, srv.URL+"/b/"+c.key, body)
		before := fetches()
		resp := do(t, http.MethodGet, srv.URL+"/b/"+c.key, nil)
		got, err := io.ReadAll(resp.Body)
		if err != nil || !bytes.Equal(got, body) {
			t.Fatalf("GET %s: %d bytes, %v", c.key, len(got), err)
		}
		if n := fetches() - before; n != c.fetched {
			t.Errorf("GET %s reached the providers %d times, want %d", c.key, n, c.fetched)
		}
	}
}
