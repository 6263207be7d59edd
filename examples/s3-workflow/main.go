// S3 workflow: BlobSeer behind the S3-compatible gateway (the paper's
// Cumulus integration). The example starts the gateway in-process,
// authenticates with the SigV2-style scheme, and walks through the
// standard object lifecycle.
package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"

	"blobseer/internal/core"
	"blobseer/internal/s3gate"
)

const (
	accessKey = "demo"
	secretKey = "s3cret"
)

func main() {
	cluster, err := core.NewCluster(core.Options{Providers: 4, Replicas: 2})
	if err != nil {
		log.Fatal(err)
	}
	gw := s3gate.New(cluster, s3gate.WithCredentials(map[string]string{accessKey: secretKey}))
	srv := httptest.NewServer(gw)
	defer srv.Close()
	fmt.Println("gateway at", srv.URL)

	// Create a bucket, put an object, read it back, list, delete.
	must(call("PUT", srv.URL, "/photos", nil))

	payload := bytes.Repeat([]byte("pixel"), 4096)
	resp := must(call("PUT", srv.URL, "/photos/cat.jpg", payload))
	fmt.Println("PUT etag:", resp.Header.Get("ETag"))

	resp = must(call("GET", srv.URL, "/photos/cat.jpg", nil))
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	fmt.Printf("GET returned %d bytes, matches: %v\n", len(body), bytes.Equal(body, payload))

	resp = must(call("GET", srv.URL, "/photos", nil))
	listing, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	fmt.Printf("bucket listing:\n%s\n", listing)

	must(call("DELETE", srv.URL, "/photos/cat.jpg", nil))
	must(call("DELETE", srv.URL, "/photos", nil))
	// A delete only marks the object's BLOB deleted: the lifecycle sweep
	// frees its chunks at the second pass after the upload, once the
	// writer's released chunk leases have retired.
	swept := 0
	for pass := 0; pass < 2; pass++ {
		rep, err := cluster.GC.Sweep(context.Background(), false)
		if err != nil {
			log.Fatal(err)
		}
		swept += rep.Swept
	}
	fmt.Printf("object and bucket deleted; two sweep passes reclaimed %d chunk replicas\n", swept)

	// An unsigned request is refused — and reported to the security
	// framework as an auth_fail event.
	req, _ := http.NewRequest("GET", srv.URL+"/photos", nil)
	r, err := http.DefaultClient.Do(req)
	if err != nil {
		log.Fatal(err)
	}
	r.Body.Close()
	fmt.Println("unsigned request status:", r.StatusCode)
}

// call issues one signed request.
func call(method, base, path string, body []byte) (*http.Response, error) {
	req, err := http.NewRequest(method, base+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	const date = "20260612T090000Z"
	req.Header.Set("x-bs-date", date)
	req.Header.Set("Authorization",
		"AWS "+accessKey+":"+s3gate.Sign(secretKey, method, path, date))
	return http.DefaultClient.Do(req)
}

func must(resp *http.Response, err error) *http.Response {
	if err != nil {
		log.Fatal(err)
	}
	if resp.StatusCode >= 300 {
		b, _ := io.ReadAll(resp.Body)
		log.Fatalf("%s %s: %d %s", resp.Request.Method, resp.Request.URL, resp.StatusCode, b)
	}
	return resp
}
