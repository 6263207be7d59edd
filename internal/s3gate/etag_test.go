package s3gate

import (
	"bytes"
	"crypto/sha256"
	"encoding/base64"
	"encoding/binary"
	"encoding/xml"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"

	"blobseer/internal/chunk"
)

// wantETag is the ETag's definition, restated: the first 16 bytes, base64
// and quoted, of the SHA-256 over the body's chunks in order, each as
// (index, SHA-256 of the chunk, length), all integers 64-bit big-endian.
func wantETag(body []byte, chunkSize int) string {
	h := sha256.New()
	for idx := 0; idx*chunkSize < len(body); idx++ {
		c := body[idx*chunkSize : min(len(body), (idx+1)*chunkSize)]
		id := chunk.Sum(c)
		var n [8]byte
		binary.BigEndian.PutUint64(n[:], uint64(idx))
		h.Write(n[:])
		h.Write(id[:])
		binary.BigEndian.PutUint64(n[:], uint64(len(c)))
		h.Write(n[:])
	}
	return fmt.Sprintf("%q", base64.StdEncoding.EncodeToString(h.Sum(nil)[:16]))
}

func TestETagIsADigestOfTheChunks(t *testing.T) {
	const chunkSize = 1 << 10
	_, srv := newGateway(t, WithChunkSize(chunkSize))
	do(t, http.MethodPut, srv.URL+"/b", nil)
	rng := rand.New(rand.NewSource(16))
	seen := map[string]string{}
	for _, tc := range []struct {
		name string
		size int
	}{
		{"empty", 0},
		{"single-chunk", 500},
		{"one-full-chunk", chunkSize},
		{"exact-multiple", 3 * chunkSize},
		{"ragged-tail", 3*chunkSize + 17},
	} {
		t.Run(tc.name, func(t *testing.T) {
			body := make([]byte, tc.size)
			rng.Read(body)
			put := func(key string, body []byte) string {
				resp := do(t, http.MethodPut, srv.URL+"/b/"+key, body)
				if resp.StatusCode != 200 {
					t.Fatalf("put %s: %d", key, resp.StatusCode)
				}
				return resp.Header.Get("ETag")
			}
			etag := put(tc.name, body)
			if want := wantETag(body, chunkSize); etag != want {
				t.Fatalf("ETag %s, want %s", etag, want)
			}
			if other, dup := seen[etag]; dup {
				t.Fatalf("ETag collides with %s", other)
			}
			seen[etag] = tc.name
			if again := put(tc.name+"-again", body); again != etag {
				t.Fatalf("the same body again: ETag %s, was %s", again, etag)
			}
			if len(body) > 0 {
				flipped := bytes.Clone(body)
				flipped[len(flipped)-1] ^= 1
				if got := put(tc.name+"-flipped", flipped); got == etag {
					t.Fatal("one flipped byte left the ETag unchanged")
				}
			}
			for _, method := range []string{http.MethodGet, http.MethodHead} {
				if got := do(t, method, srv.URL+"/b/"+tc.name, nil).Header.Get("ETag"); got != etag {
					t.Fatalf("%s reports ETag %s, PUT reported %s", method, got, etag)
				}
			}
			var list listBucketResult
			if err := xml.NewDecoder(do(t, http.MethodGet, srv.URL+"/b", nil).Body).Decode(&list); err != nil {
				t.Fatal(err)
			}
			for _, o := range list.Contents {
				if o.Key == tc.name && o.ETag != etag {
					t.Fatalf("List reports ETag %s, PUT reported %s", o.ETag, etag)
				}
			}
		})
	}
}

// stackBody records which functions its Read was reached through.
type stackBody struct {
	io.Reader
	via map[string]bool
}

func (b *stackBody) Read(p []byte) (int, error) {
	pcs := make([]uintptr, 32)
	frames := runtime.CallersFrames(pcs[:runtime.Callers(2, pcs)])
	for {
		f, more := frames.Next()
		b.via[f.Function] = true
		if !more || strings.HasSuffix(f.Function, ".putObject") {
			break
		}
	}
	return b.Reader.Read(p)
}

// TestPutHashesTheBodyOnce: the body reaches the BlobWriter — whose chunk
// IDs are the one SHA-256 pass — through nothing that hashes or tees it.
// Every function between putObject and the body's Read is accounted for.
func TestPutHashesTheBodyOnce(t *testing.T) {
	g, _ := newGateway(t, WithChunkSize(1<<10))
	g.buckets["b"] = map[string]*object{}
	body := &stackBody{Reader: bytes.NewReader(make([]byte, 5<<10)), via: map[string]bool{}}
	r, err := http.NewRequest(http.MethodPut, "/b/k", body)
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	g.putObject(rec, r, "", "b", "k")
	if rec.Code != http.StatusOK {
		t.Fatalf("putObject: status %d", rec.Code)
	}
	allowed := []string{
		"s3gate.(*stackBody).Read", "io.nopCloser.Read", "io.(*LimitedReader).Read",
		"s3gate.(*readErrTracker).Read", "client.(*BlobWriter).ReadFrom", "io.copyBuffer", "io.Copy",
		"s3gate.(*Gateway).putObject",
	}
	for fn := range body.via {
		ok := false
		for _, a := range allowed {
			ok = ok || strings.HasSuffix(fn, a)
		}
		if !ok {
			t.Errorf("the body is read through %s: a second pass over the bytes?", fn)
		}
	}
	if !body.via["blobseer/internal/client.(*BlobWriter).ReadFrom"] {
		t.Errorf("the body did not reach BlobWriter.ReadFrom directly; read via %v", body.via)
	}
}
