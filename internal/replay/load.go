package replay

import (
	"bytes"
	"context"
	"fmt"
	"hash/crc32"
	"io"
	"net/http"
	"strconv"
	"time"

	"blobseer/internal/s3gate"
)

// opTimeout fails an op that has not finished in this long.
const opTimeout = 30 * time.Second

// sample is the load generator's record of one request: the HTTP layer's
// span. Times are on the tracer's clock.
type sample struct {
	start int64 // request sent
	first int64 // first body byte (PUT, DELETE: response header)
	end   int64 // last body byte verified
	late  int64 // paced op: how long after it was due it started
	req   uint64
	bytes int // user payload bytes (PUT and GET bodies)
	kind  OpKind
	churn bool
	paced bool
	ok    bool
}

// conn is one keep-alive HTTP connection and the goroutine that drives it.
type conn struct {
	idx  int
	url  string
	hc   *http.Client
	t    *Tracer
	sent int    // requests so far; picks the next one's tenant
	body []byte // PUT body, or a RANGE's expected bytes
	rbuf []byte // read scratch
	// samples holds every op since the stream started, warm-up included;
	// phases are cut out of it afterwards by completion time.
	samples []sample
}

func newConn(idx int, url string, t *Tracer, maxBody int) *conn {
	return &conn{
		idx: idx, url: url, t: t,
		hc: &http.Client{
			Timeout: opTimeout,
			Transport: &http.Transport{
				MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true,
			},
		},
		body: make([]byte, maxBody),
		rbuf: make([]byte, rangeLen),
	}
}

func (c *conn) close() { c.hc.CloseIdleConnections() }

// sign authenticates the request as the next of the connection's tenants
// (those ≡ idx mod Conns), round robin.
func (c *conn) sign(req *http.Request) {
	access := tenant(c.sent%(tenants/Conns)*Conns + c.idx)
	c.sent++
	const date = "replay"
	req.Header.Set("x-bs-date", date)
	req.Header.Set("Authorization", "AWS "+access+":"+s3gate.Sign(secret(access), req.Method, req.URL.Path, date))
}

// do sends one op and checks the reply: status, length and CRC32C of a GET
// body, every byte of a RANGE body. A gone op is a GET that must find
// nothing.
func (c *conn) do(ctx context.Context, op Op, gone bool) sample {
	s := sample{kind: op.Kind, churn: op.Churn, paced: op.Paced}
	method, want := http.MethodGet, http.StatusOK
	var body io.Reader
	switch op.Kind {
	case OpPut:
		method, body = http.MethodPut, bytes.NewReader(c.body[:op.Size])
	case OpDelete:
		method, want = http.MethodDelete, http.StatusNoContent
	case OpRange:
		want = http.StatusPartialContent
	}
	if gone {
		want = http.StatusNotFound
	}
	req, err := http.NewRequestWithContext(ctx, method,
		fmt.Sprintf("%s/%s/k%06d", c.url, op.bucket.name, op.Key), body)
	if err != nil {
		return s
	}
	if op.Kind == OpRange {
		req.Header.Set("Range", fmt.Sprintf("bytes=%d-%d", op.Off, op.Off+op.Size-1))
	}

	c.sign(req)

	s.start = c.t.now()
	resp, err := c.hc.Do(req)
	if err != nil {
		s.end = c.t.now()
		return s
	}
	defer resp.Body.Close()
	s.req, _ = strconv.ParseUint(resp.Header.Get(reqHeader), 10, 64)
	if op.Kind == OpPut || op.Kind == OpDelete {
		s.first = c.t.now()
	}

	var n int
	var crc uint32
	same := true // RANGE: every byte equals the expected one
	for {
		m, err := resp.Body.Read(c.rbuf)
		if m > 0 {
			if s.first == 0 {
				s.first = c.t.now()
			}
			crc = crc32.Update(crc, castagnoli, c.rbuf[:m])
			if op.Kind == OpRange && resp.StatusCode == want {
				same = same && n+m <= op.Size && bytes.Equal(c.rbuf[:m], c.body[n:n+m])
			}
			n += m
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			s.end = c.t.now()
			return s
		}
	}
	s.end = c.t.now()
	if s.first == 0 {
		s.first = s.end
	}
	s.ok = resp.StatusCode == want
	if s.ok && !gone {
		switch op.Kind {
		case OpGet, OpRange:
			s.ok = n == op.Size && crc == op.CRC && same
			s.bytes = n
		case OpPut:
			s.bytes = op.Size
		}
	}
	return s
}

// run drives the connection's stream, closed loop, until the tracer clock
// passes stop. A paced op waits for its due time (counted from streamStart)
// and records how late it started.
func (c *conn) run(ctx context.Context, g opGen, streamStart, stop int64) {
	for ctx.Err() == nil && c.t.now() < stop {
		op := g.next(c.body)
		var late int64
		if op.Paced {
			due := min(streamStart+int64(op.Due), stop)
			if wait := due - c.t.now(); wait > 0 {
				select {
				case <-time.After(time.Duration(wait)):
				case <-ctx.Done():
				}
			}
			late = max(0, c.t.now()-due)
		}
		s := c.do(ctx, op, false)
		s.late = late
		if !s.ok && (op.Kind == OpPut || op.Kind == OpDelete) {
			op.bucket.keys[op.Key].unknown = true
		}
		c.samples = append(c.samples, s)
	}
}

// verify GETs every key the connection owns once: a live key must return its
// latest payload, a deleted or never-written one 404.
func (c *conn) verify(ctx context.Context, d *dataset) (attempted, failed int) {
	for _, b := range d.buckets() {
		for k := c.idx; k < len(b.keys); k += Conns {
			st := b.keys[k]
			if st.unknown {
				continue
			}
			attempted++
			if s := c.do(ctx, d.get(b, k), !st.live); !s.ok {
				failed++
			}
		}
	}
	return attempted, failed
}

func (c *conn) makeBucket(ctx context.Context, name string) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodPut, c.url+"/"+name, nil)
	if err != nil {
		return err
	}
	c.sign(req)
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("create bucket %s: %s", name, resp.Status)
	}
	return nil
}

// preload PUTs every key the connection owns in the preloaded buckets.
func (c *conn) preload(ctx context.Context, d *dataset) error {
	return d.preload(c.idx, c.body, func(op Op) error {
		if s := c.do(ctx, op, false); !s.ok {
			return fmt.Errorf("%s failed", op)
		}
		return nil
	})
}
