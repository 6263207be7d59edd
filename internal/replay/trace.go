package replay

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"blobseer/internal/chunk"
	"blobseer/internal/diskstore"
	"blobseer/internal/rpc"
)

// Layer names a module boundary a span was recorded at.
type Layer uint8

const (
	LayerS3gate Layer = iota
	LayerRPC
	LayerDiskstore
)

func (l Layer) String() string { return [...]string{"s3gate", "rpc", "diskstore"}[l] }

// Span operations.
const (
	spanRequest = iota // s3gate: one handler invocation
	spanStore          // rpc
	spanFetch          // rpc
	spanPut            // diskstore
	spanGet            // diskstore (Get and GetAppend)
)

var spanOpNames = [...]string{"request", "store", "fetch", "put", "get"}

// Span is one call into a layer's public function, timed from outside it.
// Times are nanoseconds since the tracer's epoch, the clock the load
// generator's samples use too.
type Span struct {
	Layer Layer
	Op    uint8
	// Req is the request the call belongs to: minted by the handler wrapper,
	// carried by context to the conn wrapper. A diskstore span runs on the
	// far side of the rpc wire and has none; analysis attaches it to the rpc
	// span on the same provider and chunk whose interval contains it.
	Req        uint64
	Start, End int64
	First      int64  // s3gate: first body write (or header commit)
	Status     int    // s3gate: HTTP status
	Prov       uint8  // rpc, diskstore: provider index
	Chunk      uint64 // rpc, diskstore: first 8 bytes of the chunk ID
	Bytes      int    // payload bytes moved
	Err        bool
}

// Tracer collects spans in memory while on. The wrappers below are always
// installed, so the program takes the same branches traced and untraced;
// off, each costs one atomic load.
type Tracer struct {
	on    atomic.Bool
	epoch time.Time
	req   atomic.Uint64

	mu    sync.Mutex
	spans []Span
}

// NewTracer returns a tracer, off, whose clock starts now.
func NewTracer() *Tracer { return &Tracer{epoch: time.Now()} }

func (t *Tracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *Tracer) add(s Span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// take returns the spans recorded so far and forgets them.
func (t *Tracer) take() []Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := t.spans
	t.spans = nil
	return s
}

type reqKey struct{}

// reqHeader carries the minted request ID back to the load generator, which
// files its own client-side timing under it.
const reqHeader = "X-Replay-Request"

// tracedHandler wraps the gateway. The ResponseWriter wrapper is installed
// whether tracing is on or not, so the gateway always sees the same writer
// type.
type tracedHandler struct {
	next http.Handler
	t    *Tracer
}

func (h tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	sw := &stampWriter{ResponseWriter: w}
	if !h.t.on.Load() {
		h.next.ServeHTTP(sw, r)
		return
	}
	sw.t = h.t
	id := h.t.req.Add(1)
	w.Header().Set(reqHeader, strconv.FormatUint(id, 10))
	start := h.t.now()
	h.next.ServeHTTP(sw, r.WithContext(context.WithValue(r.Context(), reqKey{}, id)))
	end := h.t.now()
	if sw.first == 0 {
		sw.first, sw.status = end, http.StatusOK
	}
	h.t.add(Span{Layer: LayerS3gate, Op: spanRequest, Req: id, Start: start, End: end,
		First: sw.first, Status: sw.status, Bytes: sw.bytes})
}

// stampWriter stamps the first body write (for a bodyless reply, the header
// commit).
type stampWriter struct {
	http.ResponseWriter
	t      *Tracer // nil while tracing is off
	first  int64
	status int
	bytes  int
}

func (w *stampWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *stampWriter) Write(p []byte) (int, error) {
	if w.t != nil && w.first == 0 {
		w.first = w.t.now()
		if w.status == 0 {
			w.status = http.StatusOK
		}
	}
	n, err := w.ResponseWriter.Write(p)
	w.bytes += n
	return n, err
}

func chunkKey(id chunk.ID) uint64 { return binary.LittleEndian.Uint64(id[:8]) }

// tracedConn embeds the concrete rpc conn and overrides only Store and
// Fetch: LeaseChunks, ReleaseLease and any method a later change folds into
// the conn are forwarded untouched.
type tracedConn struct {
	*rpc.Conn
	t    *Tracer
	prov uint8
}

func (c *tracedConn) Store(ctx context.Context, user string, id chunk.ID, data []byte) error {
	if !c.t.on.Load() {
		return c.Conn.Store(ctx, user, id, data)
	}
	start := c.t.now()
	err := c.Conn.Store(ctx, user, id, data)
	c.span(ctx, spanStore, id, start, len(data), err)
	return err
}

func (c *tracedConn) Fetch(ctx context.Context, user string, id chunk.ID) ([]byte, error) {
	if !c.t.on.Load() {
		return c.Conn.Fetch(ctx, user, id)
	}
	start := c.t.now()
	data, err := c.Conn.Fetch(ctx, user, id)
	c.span(ctx, spanFetch, id, start, len(data), err)
	return data, err
}

func (c *tracedConn) span(ctx context.Context, op uint8, id chunk.ID, start int64, n int, err error) {
	req, _ := ctx.Value(reqKey{}).(uint64)
	c.t.add(Span{Layer: LayerRPC, Op: op, Req: req, Start: start, End: c.t.now(),
		Prov: c.prov, Chunk: chunkKey(id), Bytes: n, Err: err != nil})
}

// tracedStore embeds the concrete disk store and overrides only Put, Get
// and GetAppend; the lifecycle surface (List, Purge, epochs) is forwarded.
type tracedStore struct {
	*diskstore.DiskStore
	t    *Tracer
	prov uint8
}

func (s *tracedStore) Put(id chunk.ID, data []byte) error {
	if !s.t.on.Load() {
		return s.DiskStore.Put(id, data)
	}
	start := s.t.now()
	err := s.DiskStore.Put(id, data)
	s.span(spanPut, id, start, len(data), err)
	return err
}

func (s *tracedStore) Get(id chunk.ID) ([]byte, error) {
	if !s.t.on.Load() {
		return s.DiskStore.Get(id)
	}
	start := s.t.now()
	data, err := s.DiskStore.Get(id)
	s.span(spanGet, id, start, len(data), err)
	return data, err
}

func (s *tracedStore) GetAppend(id chunk.ID, dst []byte) ([]byte, error) {
	if !s.t.on.Load() {
		return s.DiskStore.GetAppend(id, dst)
	}
	start := s.t.now()
	data, err := s.DiskStore.GetAppend(id, dst)
	s.span(spanGet, id, start, len(data), err)
	return data, err
}

func (s *tracedStore) span(op uint8, id chunk.ID, start int64, n int, err error) {
	s.t.add(Span{Layer: LayerDiskstore, Op: op, Start: start, End: s.t.now(),
		Prov: s.prov, Chunk: chunkKey(id), Bytes: n, Err: err != nil})
}

// writeSpans writes spans as JSON lines (-trace-out).
func writeSpans(w io.Writer, spans []Span) error {
	enc := json.NewEncoder(w)
	for _, s := range spans {
		rec := struct {
			Layer string `json:"layer"`
			Op    string `json:"op"`
			Req   uint64 `json:"req,omitempty"`
			Start int64  `json:"start_ns"`
			First int64  `json:"first_ns,omitempty"`
			End   int64  `json:"end_ns"`
			Code  int    `json:"status,omitempty"`
			Prov  uint8  `json:"provider"`
			Chunk uint64 `json:"chunk,omitempty"`
			Bytes int    `json:"bytes"`
			Err   bool   `json:"err,omitempty"`
		}{s.Layer.String(), spanOpNames[s.Op], s.Req, s.Start, s.First, s.End, s.Status, s.Prov, s.Chunk, s.Bytes, s.Err}
		if err := enc.Encode(rec); err != nil {
			return err
		}
	}
	return nil
}
