// Package s3gate exposes a BlobSeer cluster behind an Amazon-S3-subset
// HTTP interface, reproducing the paper's Nimbus/Cumulus integration:
// BlobSeer as the storage back end of an S3-compatible Cloud storage
// service. Supported operations: create bucket, list buckets, put/get/
// head/delete object (GET honors single-range Range headers), list
// objects.
//
// Object PUT and GET are fully streaming: bodies flow through the
// client's BlobWriter/BlobReader chunk pipeline in both directions, so
// the gateway never holds a whole object in one buffer and a client
// that disconnects cancels the in-flight chunk transfers via the
// request context.
//
// Authentication is a SigV2-style HMAC ("AWS <access>:<signature>" over
// method, path and date); failures are reported through the gateway's
// monitoring agent (core.Cluster.AgentFor) as auth_fail events, which
// reach the user-activity history the security framework's prober policy
// counts.
package s3gate

import (
	"context"
	"crypto/hmac"
	"crypto/sha256"
	"encoding/base64"
	"encoding/xml"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"blobseer/internal/client"
	"blobseer/internal/core"
	"blobseer/internal/faultdom"
	"blobseer/internal/instrument"
	"blobseer/internal/pmanager"
	"blobseer/internal/policy"
)

// MaxObjectSize is the default bound on a single PUT (64 MiB chunks ×
// 1024); WithMaxObjectSize overrides it per gateway.
const MaxObjectSize = int64(1) << 36

type object struct {
	blob     uint64
	size     int64
	etag     string
	modified time.Time
	owner    string
}

// Gateway is the S3 front end. It implements http.Handler.
type Gateway struct {
	cluster *core.Cluster
	emit    instrument.Emitter
	now     func() time.Time
	clOpts  []client.Option
	maxObj  int64
	chunkSz int64
	m       *gwMetrics // nil = uninstrumented, no /metrics endpoint

	mu      sync.Mutex
	keys    map[string]string // accessKey → secret (nil = auth disabled)
	buckets map[string]map[string]*object
	clients map[string]*client.Client // user → client, minted on first use
}

// Option configures a Gateway.
type Option func(*Gateway)

// WithCredentials enables authentication with the given accessKey→secret
// map. Without it every request runs as the anonymous user named by the
// access key (or "anonymous").
func WithCredentials(keys map[string]string) Option {
	return func(g *Gateway) {
		g.keys = make(map[string]string, len(keys))
		for k, v := range keys {
			g.keys[k] = v
		}
	}
}

// WithClock overrides the time source.
func WithClock(now func() time.Time) Option {
	return func(g *Gateway) {
		if now != nil {
			g.now = now
		}
	}
}

// WithClientOptions applies extra client options (write quorum, worker
// count, …) to every BlobSeer client the gateway creates,
// on top of the cluster defaults.
func WithClientOptions(opts ...client.Option) Option {
	return func(g *Gateway) { g.clOpts = append(g.clOpts, opts...) }
}

// WithMaxObjectSize overrides the PUT size bound (default MaxObjectSize).
func WithMaxObjectSize(n int64) Option {
	return func(g *Gateway) {
		if n > 0 {
			g.maxObj = n
		}
	}
}

// WithChunkSize sets the chunk size of the BLOBs the gateway creates on
// PUT (default: the cluster-wide chunk.DefaultSize). Smaller chunks make
// streaming uploads flush — and replicate — earlier.
func WithChunkSize(n int64) Option {
	return func(g *Gateway) {
		if n > 0 {
			g.chunkSz = n
		}
	}
}

// New returns a gateway over the cluster.
func New(cluster *core.Cluster, opts ...Option) *Gateway {
	g := &Gateway{
		cluster: cluster,
		emit:    cluster.AgentFor("gateway"),
		now:     time.Now,
		maxObj:  MaxObjectSize,
		buckets: make(map[string]map[string]*object),
		clients: make(map[string]*client.Client),
	}
	for _, o := range opts {
		o(g)
	}
	// One chunk cache shared by every user's client (client.ChunkCache).
	g.clOpts = append(g.clOpts, client.WithChunkCache(new(client.ChunkCache)))
	// Inherit the cluster's registry unless WithMetrics overrode it, so a
	// metrics-enabled cluster gets an instrumented gateway for free.
	if g.m == nil {
		if reg := cluster.Metrics(); reg != nil {
			g.m = newGwMetrics(reg)
		}
	}
	return g
}

// clientFor returns the BlobSeer client for the request's user, with the
// gateway's extra client options applied. There is one per user for the
// gateway's lifetime — a Client is immutable after New and safe for
// concurrent use — because minting one registers a monitoring agent with
// the mesh for good. Users are the credential map's access keys (or
// "anonymous"), so the cache is bounded.
func (g *Gateway) clientFor(user string) *client.Client {
	g.mu.Lock()
	defer g.mu.Unlock()
	cl, ok := g.clients[user]
	if !ok {
		cl = g.cluster.ClientWith(user, g.clOpts...)
		g.clients[user] = cl
	}
	return cl
}

// Sign computes the request signature for the given secret, method, path
// and date header value — clients use it to authenticate.
func Sign(secret, method, path, date string) string {
	mac := hmac.New(sha256.New, []byte(secret))
	io.WriteString(mac, method+"\n"+path+"\n"+date)
	return base64.StdEncoding.EncodeToString(mac.Sum(nil))
}

// authenticate returns the user identity, or an error with HTTP status.
func (g *Gateway) authenticate(r *http.Request) (string, int, error) {
	if g.keys == nil {
		return "anonymous", 0, nil
	}
	h := r.Header.Get("Authorization")
	const prefix = "AWS "
	if !strings.HasPrefix(h, prefix) {
		return "", http.StatusForbidden, fmt.Errorf("missing authorization")
	}
	rest := strings.TrimPrefix(h, prefix)
	access, sig, ok := strings.Cut(rest, ":")
	if !ok {
		return "", http.StatusForbidden, fmt.Errorf("malformed authorization")
	}
	g.mu.Lock()
	secret, known := g.keys[access]
	g.mu.Unlock()
	if !known {
		return "", http.StatusForbidden, fmt.Errorf("unknown access key")
	}
	want := Sign(secret, r.Method, r.URL.Path, r.Header.Get("x-bs-date"))
	if !hmac.Equal([]byte(want), []byte(sig)) {
		return "", http.StatusForbidden, fmt.Errorf("bad signature")
	}
	return access, 0, nil
}

type listAllBucketsResult struct {
	XMLName xml.Name      `xml:"ListAllMyBucketsResult"`
	Buckets []bucketEntry `xml:"Buckets>Bucket"`
}

type bucketEntry struct {
	Name string `xml:"Name"`
}

type listBucketResult struct {
	XMLName  xml.Name      `xml:"ListBucketResult"`
	Name     string        `xml:"Name"`
	Contents []objectEntry `xml:"Contents"`
}

type objectEntry struct {
	Key          string `xml:"Key"`
	Size         int64  `xml:"Size"`
	ETag         string `xml:"ETag"`
	LastModified string `xml:"LastModified"`
}

type errorResult struct {
	XMLName xml.Name `xml:"Error"`
	Code    string   `xml:"Code"`
	Message string   `xml:"Message"`
}

func writeErr(w http.ResponseWriter, status int, code, msg string) {
	w.Header().Set("Content-Type", "application/xml")
	w.WriteHeader(status)
	_ = xml.NewEncoder(w).Encode(errorResult{Code: code, Message: msg})
}

// writeOpErr classifies a data-path failure: security denials are the
// caller's fault (403, non-retryable); degraded-backend failures —
// replica quorum missed, no providers placeable, a dead provider, or
// any transient transport fault — are 503 SlowDown, the S3 idiom for
// "retry with backoff, the outage is temporary"; anything else is a
// backend fault (500, retryable).
func writeOpErr(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, policy.ErrBlocked) || errors.Is(err, client.ErrBlocked):
		writeErr(w, http.StatusForbidden, "AccessDenied", err.Error())
	case errors.Is(err, client.ErrNoReplica) ||
		errors.Is(err, client.ErrUnavailable) ||
		errors.Is(err, pmanager.ErrNoProviders) ||
		errors.Is(err, pmanager.ErrNotEnough) ||
		faultdom.IsDead(err) ||
		faultdom.Classify(err) == faultdom.Transient:
		writeErr(w, http.StatusServiceUnavailable, "SlowDown", err.Error())
	default:
		writeErr(w, http.StatusInternalServerError, "InternalError", err.Error())
	}
}

// ServeHTTP implements http.Handler. With a metrics registry attached
// the gateway also serves GET /metrics (no authentication: the scrape
// surface carries no object data) and records request duration/TTFB.
func (g *Gateway) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if g.m != nil {
		if r.URL.Path == "/metrics" {
			g.m.reg.Handler().ServeHTTP(w, r)
			return
		}
		sr := &statusRecorder{ResponseWriter: w, now: g.now, start: g.now()}
		defer func() { g.m.record(r.Method, sr, g.now()) }()
		w = sr
	}
	g.serve(w, r)
}

func (g *Gateway) serve(w http.ResponseWriter, r *http.Request) {
	user, status, err := g.authenticate(r)
	if err != nil {
		host, _, serr := net.SplitHostPort(r.RemoteAddr) // "[::1]:4321" → "::1"
		if serr != nil {
			host = r.RemoteAddr
		}
		g.emit.Emit(instrument.Event{
			Time: g.now(), Actor: instrument.ActorGateway, Op: instrument.OpAuthFail,
			User: host, Err: err.Error(),
		})
		writeErr(w, status, "AccessDenied", err.Error())
		return
	}
	bucket, key := splitPath(r.URL.Path)
	switch {
	case bucket == "":
		if r.Method == http.MethodGet {
			g.listBuckets(w)
			return
		}
		writeErr(w, http.StatusMethodNotAllowed, "MethodNotAllowed", r.Method)
	case key == "":
		g.bucketOp(w, r, user, bucket)
	default:
		g.objectOp(w, r, user, bucket, key)
	}
}

func splitPath(p string) (bucket, key string) {
	p = strings.TrimPrefix(p, "/")
	if p == "" {
		return "", ""
	}
	bucket, key, _ = strings.Cut(p, "/")
	return bucket, key
}

func (g *Gateway) listBuckets(w http.ResponseWriter) {
	g.mu.Lock()
	names := make([]string, 0, len(g.buckets))
	for b := range g.buckets {
		names = append(names, b)
	}
	g.mu.Unlock()
	sort.Strings(names)
	out := listAllBucketsResult{}
	for _, n := range names {
		out.Buckets = append(out.Buckets, bucketEntry{Name: n})
	}
	w.Header().Set("Content-Type", "application/xml")
	_ = xml.NewEncoder(w).Encode(out)
}

func (g *Gateway) bucketOp(w http.ResponseWriter, r *http.Request, user, bucket string) {
	switch r.Method {
	case http.MethodPut:
		g.mu.Lock()
		if _, ok := g.buckets[bucket]; !ok {
			g.buckets[bucket] = make(map[string]*object)
		}
		g.mu.Unlock()
		w.WriteHeader(http.StatusOK)
	case http.MethodGet:
		g.mu.Lock()
		objs, ok := g.buckets[bucket]
		var entries []objectEntry
		if ok {
			for k, o := range objs {
				entries = append(entries, objectEntry{
					Key: k, Size: o.size, ETag: o.etag,
					LastModified: o.modified.UTC().Format(time.RFC3339),
				})
			}
		}
		g.mu.Unlock()
		if !ok {
			writeErr(w, http.StatusNotFound, "NoSuchBucket", bucket)
			return
		}
		sort.Slice(entries, func(i, j int) bool { return entries[i].Key < entries[j].Key })
		w.Header().Set("Content-Type", "application/xml")
		_ = xml.NewEncoder(w).Encode(listBucketResult{Name: bucket, Contents: entries})
	case http.MethodDelete:
		g.mu.Lock()
		objs, ok := g.buckets[bucket]
		empty := len(objs) == 0
		if ok && empty {
			delete(g.buckets, bucket)
		}
		g.mu.Unlock()
		switch {
		case !ok:
			writeErr(w, http.StatusNotFound, "NoSuchBucket", bucket)
		case !empty:
			writeErr(w, http.StatusConflict, "BucketNotEmpty", bucket)
		default:
			w.WriteHeader(http.StatusNoContent)
		}
	default:
		writeErr(w, http.StatusMethodNotAllowed, "MethodNotAllowed", r.Method)
	}
}

func (g *Gateway) objectOp(w http.ResponseWriter, r *http.Request, user, bucket, key string) {
	switch r.Method {
	case http.MethodPut:
		g.putObject(w, r, user, bucket, key)
	case http.MethodGet, http.MethodHead:
		g.getObject(w, r, user, bucket, key)
	case http.MethodDelete:
		g.deleteObject(w, user, bucket, key)
	default:
		writeErr(w, http.StatusMethodNotAllowed, "MethodNotAllowed", r.Method)
	}
}

// putObject streams the request body into a fresh BLOB through a
// BlobWriter: chunk slots flush to their replica sets while the body is
// still arriving, and the object's ETag is derived from the chunk IDs
// that pass computes.
// Bodies larger than MaxObjectSize are rejected with EntityTooLarge —
// never silently truncated — and the partial BLOB is deleted.
func (g *Gateway) putObject(w http.ResponseWriter, r *http.Request, user, bucket, key string) {
	g.mu.Lock()
	_, ok := g.buckets[bucket]
	g.mu.Unlock()
	if !ok {
		writeErr(w, http.StatusNotFound, "NoSuchBucket", bucket)
		return
	}
	// A declared oversized body is rejected before a single byte is
	// transferred or replicated.
	if r.ContentLength > g.maxObj {
		writeErr(w, http.StatusBadRequest, "EntityTooLarge",
			fmt.Sprintf("body exceeds %d bytes", g.maxObj))
		return
	}
	ctx, cancel := context.WithCancel(r.Context())
	defer cancel()
	cl := g.clientFor(user)
	info, err := cl.Create(ctx, g.chunkSz)
	if err != nil {
		writeOpErr(w, err)
		return
	}
	blob, err := cl.Open(ctx, info.ID)
	if err != nil {
		writeErr(w, http.StatusInternalServerError, "InternalError", err.Error())
		return
	}
	bw, err := blob.NewWriter(ctx, 0)
	if err != nil {
		writeOpErr(w, err)
		g.reclaim(info.ID)
		return
	}
	// abandon aborts the stream (cancel keeps Close from publishing a
	// version that would immediately be deleted) and drops the blob.
	// Close releases the writer's lease (gateway writers lease by default
	// via the cluster wiring), so the chunks the writer already flushed
	// — referenced by no version — are the sweep's two passes after the
	// release.
	abandon := func() {
		cancel()
		_ = bw.Close()
		g.reclaim(info.ID)
	}
	// Reading one byte past the limit distinguishes an oversized body
	// from one that is exactly the limit, without buffering either. At
	// MaxInt64 the +1 probe would overflow to a negative limit (reading
	// nothing); without it the size check simply can never trip.
	limit := g.maxObj
	if limit < math.MaxInt64 {
		limit++
	}
	track := &readErrTracker{r: io.LimitReader(r.Body, limit)}
	n, err := io.Copy(bw, track)
	switch {
	case err != nil:
		abandon()
		// Only a body-side read failure is the client's fault; a failed
		// chunk flush (replica quorum, placement) is a backend error and
		// must stay retryable for S3 clients.
		if track.err != nil {
			writeErr(w, http.StatusBadRequest, "IncompleteBody", err.Error())
		} else {
			writeOpErr(w, err)
		}
		return
	case n > g.maxObj:
		abandon()
		writeErr(w, http.StatusBadRequest, "EntityTooLarge",
			fmt.Sprintf("body exceeds %d bytes", g.maxObj))
		return
	}
	if err := bw.Close(); err != nil {
		abandon() // Close is idempotent: re-closing returns the same error
		writeOpErr(w, err)
		return
	}
	// The ETag is the writer's digest of the chunks it published (see
	// BlobWriter.Digest), so the body is hashed once, into chunk IDs.
	digest := bw.Digest()
	etag := fmt.Sprintf("%q", base64.StdEncoding.EncodeToString(digest[:16]))
	g.mu.Lock()
	// The bucket may have been deleted while the body streamed; inserting
	// would then write into a nil map. The published blob loses the race:
	// reclaim it and report the bucket gone.
	objs, ok := g.buckets[bucket]
	if !ok {
		g.mu.Unlock()
		g.reclaim(info.ID)
		writeErr(w, http.StatusNotFound, "NoSuchBucket", bucket)
		return
	}
	var oldBlob uint64
	if old, exists := objs[key]; exists {
		oldBlob = old.blob
	}
	objs[key] = &object{
		blob: info.ID, size: n, etag: etag,
		modified: g.now(), owner: user,
	}
	g.mu.Unlock()
	if oldBlob != 0 {
		g.reclaim(oldBlob)
	}
	w.Header().Set("ETag", etag)
	w.WriteHeader(http.StatusOK)
}

// readErrTracker records body-side read failures so putObject can tell
// them apart from writer-side flush failures after an io.Copy.
type readErrTracker struct {
	r   io.Reader
	err error
}

func (t *readErrTracker) Read(p []byte) (int, error) {
	n, err := t.r.Read(p)
	if err != nil && err != io.EOF {
		t.err = err
	}
	return n, err
}

// parseRange parses a single-range "bytes=..." header against an object
// of the given size. ok=false means the header is malformed or
// multi-range (callers ignore it and serve the full object, per RFC
// 9110); satisfiable=false means it is well-formed but selects nothing.
func parseRange(h string, size int64) (lo, hi int64, ok, satisfiable bool) {
	spec, found := strings.CutPrefix(h, "bytes=")
	if !found || strings.Contains(spec, ",") {
		return 0, 0, false, false
	}
	first, last, found := strings.Cut(spec, "-")
	if !found {
		return 0, 0, false, false
	}
	if first == "" {
		// Suffix range: last n bytes.
		n, ok := digits(last)
		if !ok {
			return 0, 0, false, false
		}
		if n == 0 || size == 0 {
			return 0, 0, true, false
		}
		if n > size {
			n = size
		}
		return size - n, size - 1, true, true
	}
	lo, ok = digits(first)
	if !ok {
		return 0, 0, false, false
	}
	hi = size - 1
	if last != "" {
		if hi, ok = digits(last); !ok || hi < lo {
			return 0, 0, false, false
		}
		if hi > size-1 {
			hi = size - 1
		}
	}
	if lo >= size {
		return 0, 0, true, false
	}
	return lo, hi, true, true
}

// digits parses a byte position, RFC 9110's 1*DIGIT: ParseUint takes no
// sign and no space.
func digits(s string) (int64, bool) {
	n, err := strconv.ParseUint(s, 10, 63)
	return int64(n), err == nil
}

// getObject streams the object (or the requested byte range of it) out
// of a BlobReader: the first chunk is fetched alone, so the response
// starts as soon as it lands; the prefetch window then opens behind it and
// pipelines the rest ahead of the HTTP write, never materializing it.
func (g *Gateway) getObject(w http.ResponseWriter, r *http.Request, user, bucket, key string) {
	g.mu.Lock()
	objs, ok := g.buckets[bucket]
	var o *object
	if ok {
		o = objs[key]
	}
	g.mu.Unlock()
	if !ok || o == nil {
		writeErr(w, http.StatusNotFound, "NoSuchKey", bucket+"/"+key)
		return
	}
	offset, length := int64(0), o.size
	status := http.StatusOK
	contentRange := ""
	if h := r.Header.Get("Range"); h != "" && r.Method == http.MethodGet {
		if lo, hi, ok, satisfiable := parseRange(h, o.size); ok {
			if !satisfiable {
				w.Header().Set("Content-Range", fmt.Sprintf("bytes */%d", o.size))
				writeErr(w, http.StatusRequestedRangeNotSatisfiable, "InvalidRange", h)
				return
			}
			offset, length = lo, hi-lo+1
			status = http.StatusPartialContent
			contentRange = fmt.Sprintf("bytes %d-%d/%d", lo, hi, o.size)
		}
	}
	// Entity headers are staged only once the read path is known to
	// succeed: an error response sent under an already-set Content-Length
	// of the full object would be truncated by net/http.
	setEntity := func() {
		if contentRange != "" {
			w.Header().Set("Content-Range", contentRange)
		}
		w.Header().Set("ETag", o.etag)
		w.Header().Set("Accept-Ranges", "bytes")
		w.Header().Set("Content-Length", strconv.FormatInt(length, 10))
		w.Header().Set("Last-Modified", o.modified.UTC().Format(http.TimeFormat))
	}
	if r.Method == http.MethodHead {
		setEntity()
		w.WriteHeader(http.StatusOK)
		return
	}
	if length == 0 {
		setEntity()
		w.WriteHeader(status)
		return
	}
	ctx := r.Context()
	cl := g.clientFor(user)
	blob, err := cl.Open(ctx, o.blob)
	if err != nil {
		writeErr(w, http.StatusInternalServerError, "InternalError", err.Error())
		return
	}
	rd, err := blob.NewReader(ctx, 0, offset, length)
	if err != nil {
		writeOpErr(w, err)
		return
	}
	defer rd.Close()
	setEntity()
	w.WriteHeader(status)
	// io.Copy dispatches to rd.WriteTo: chunk-by-chunk, prefetch ahead.
	_, _ = io.Copy(w, rd)
}

func (g *Gateway) deleteObject(w http.ResponseWriter, user, bucket, key string) {
	g.mu.Lock()
	objs, ok := g.buckets[bucket]
	var o *object
	if ok {
		o = objs[key]
		if o != nil {
			delete(objs, key)
		}
	}
	g.mu.Unlock()
	if !ok || o == nil {
		writeErr(w, http.StatusNotFound, "NoSuchKey", bucket+"/"+key)
		return
	}
	g.reclaim(o.blob)
	w.WriteHeader(http.StatusNoContent)
}

// reclaim hands a blob's deletion to the storage-lifecycle manager. It
// only marks the blob deleted — no I/O, so nothing can abort it once the
// key has left its bucket map — and the sweep frees the chunks: at the
// next pass, or, for a version an in-flight streaming GET pins, once the
// reader closes, so the response is never truncated mid-stream.
func (g *Gateway) reclaim(blob uint64) {
	_ = g.cluster.GC.DeleteBlob(blob)
}

// Buckets returns the bucket names (diagnostics).
func (g *Gateway) Buckets() []string {
	g.mu.Lock()
	defer g.mu.Unlock()
	out := make([]string, 0, len(g.buckets))
	for b := range g.buckets {
		out = append(out, b)
	}
	sort.Strings(out)
	return out
}
