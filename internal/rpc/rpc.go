// Package rpc provides the wire transport of the real deployment plane:
// data providers exported over TCP, and a client-side Directory that dials
// them on demand. The in-process plane (core.Cluster) and this package
// implement the same client.Conn contract, so the BlobSeer client code is
// transport-agnostic.
//
// A call is a request frame and a reply frame (wire.go) on a conn that
// multiplexes calls: callers write whole frames one at a time and one
// reader goroutine hands each reply to its caller. The server runs each
// request in a goroutine of its own, under a context built from its frame,
// except a one-way request (ReleaseLease), which it applies before it
// reads the next frame. There is one wire format and no negotiation: the
// client and the server of a deployment are built from the same tree.
//
// Buffer ownership follows client.Conn: Store does not retain data past its
// return (the frame is on the conn before the call waits for its reply);
// Fetch returns a chunk-pool buffer the caller owns. On the server a Store
// request's payload buffer is donated when its handler returns and a Fetch
// reply's buffer when the reply is written.
package rpc

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"blobseer/internal/chunk"
	"blobseer/internal/client"
	"blobseer/internal/provider"
)

// ErrShutdown fails every call on a conn that was closed or whose
// transport broke or whose call deadline passed. It classifies Transient
// (it has the faultdom.Transienter method): the same call may well
// succeed on a re-dialed conn or another replica.
var ErrShutdown error = shutdownError{}

type shutdownError struct{}

func (shutdownError) Error() string   { return "rpc: connection is shut down" }
func (shutdownError) Transient() bool { return true }

// Server hosts one provider on a TCP listener.
type Server struct {
	p   *provider.Provider
	lis net.Listener

	mu     sync.Mutex
	closed bool
	conns  map[*serverConn]struct{} // accepted conns, closed with the server
}

// serverConn is one accepted conn. Replies are written whole under wmu;
// inflight holds the context of every call being served, for a cancel
// frame or the conn's end to reach.
type serverConn struct {
	nc  net.Conn
	wmu sync.Mutex
	bw  *bufio.Writer

	mu       sync.Mutex
	inflight map[uint64]*callCtx
}

// Serve exports p on addr (e.g. "127.0.0.1:0") and starts accepting in a
// background goroutine. Close the returned server to stop.
func Serve(p *provider.Provider, addr string) (*Server, error) {
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("rpc: listen %s: %w", addr, err)
	}
	s := &Server{p: p, lis: lis, conns: make(map[*serverConn]struct{})}
	go s.acceptLoop()
	return s, nil
}

func (s *Server) acceptLoop() {
	for {
		nc, err := s.lis.Accept()
		if err != nil {
			return // listener closed
		}
		sc := &serverConn{nc: nc, bw: bufio.NewWriterSize(nc, wireBuf), inflight: make(map[uint64]*callCtx)}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			nc.Close()
			return
		}
		s.conns[sc] = struct{}{}
		s.mu.Unlock()
		go s.serve(sc)
	}
}

// serve reads requests off one conn until it fails — a malformed frame
// leaves nothing to resynchronize on — then ends the context of every
// call still being served and closes the conn.
func (s *Server) serve(sc *serverConn) {
	br := bufio.NewReaderSize(sc.nc, wireBuf)
	for {
		h, meta, payload, err := readFrame(br)
		if err != nil {
			break
		}
		switch {
		case h.flags&flagCancel != 0:
			chunk.PutBuf(meta)
			chunk.PutBuf(payload)
			sc.mu.Lock()
			if ctx := sc.inflight[h.seq]; ctx != nil {
				ctx.end(context.Canceled)
			}
			sc.mu.Unlock()
		case h.flags&flagOneWay != 0:
			s.respond(sc, newCallCtx(h.timeout), h, meta, payload)
		default:
			ctx := newCallCtx(h.timeout)
			sc.mu.Lock()
			sc.inflight[h.seq] = ctx
			sc.mu.Unlock()
			go s.respond(sc, ctx, h, meta, payload)
		}
	}
	sc.mu.Lock()
	for _, ctx := range sc.inflight {
		ctx.end(context.Canceled)
	}
	sc.mu.Unlock()
	s.mu.Lock()
	delete(s.conns, sc)
	s.mu.Unlock()
	sc.nc.Close()
}

// respond runs one request and writes its reply — unless it is one-way,
// or its call ended first (the caller cancelled, the deadline passed, the
// conn closed): nobody waits for that reply.
func (s *Server) respond(sc *serverConn, ctx *callCtx, h header, meta, payload []byte) {
	out, data, err := s.handle(ctx, h.method, meta, payload)
	sc.mu.Lock()
	delete(sc.inflight, h.seq)
	sc.mu.Unlock()
	if h.flags&flagOneWay == 0 && ctx.Err() == nil {
		reply := header{method: h.method, seq: h.seq}
		if err != nil {
			reply.flags, out = flagError, []byte(err.Error())
		}
		sc.wmu.Lock()
		err = chunk.Guard(func() error { return writeFrame(sc.bw, reply, out, data) })
		sc.wmu.Unlock()
		if err != nil {
			sc.nc.Close() // a half-written frame leaves the peer nothing to resynchronize on
		}
	}
	ctx.end(context.Canceled)
	chunk.PutBuf(data)
}

// handle runs one request against the provider. It donates the request's
// metadata and payload (Provider.Store does not retain a chunk) and
// returns the reply's metadata and payload — a Fetch's chunk-pool buffer,
// the caller's to donate once written.
func (s *Server) handle(ctx context.Context, m byte, meta, payload []byte) (out, data []byte, err error) {
	defer chunk.PutBuf(payload)
	var a args
	err = a.decode(m, meta)
	chunk.PutBuf(meta)
	if err != nil {
		return nil, nil, err
	}
	p := s.p
	var r result
	switch m {
	case mStore:
		if a.Lease.ID != "" {
			l := a.Lease
			ctx = chunk.WithLease(ctx, &l)
		}
		err = p.Store(ctx, a.User, a.ID, payload)
	case mFetch:
		if a.Len > 0 {
			ctx = chunk.WithRange(ctx, a.Off, a.Len)
		}
		data, err = p.Fetch(ctx, a.User, a.ID)
	case mLeaseChunks:
		err = p.LeaseChunks(ctx, a.Lease.ID, a.Lease.TTL, a.IDs)
	case mReleaseLease:
		err = p.ReleaseLease(ctx, a.Lease.ID)
	case mListChunks:
		r.Chunks, r.More, err = p.ListChunks(ctx, a.ID, a.Limit)
	case mPurge:
		r.Purged, r.Freed, err = p.PurgeChunks(ctx, a.IDs)
	case mAdvanceEpoch:
		r.Epoch, err = p.AdvanceEpoch(ctx)
	}
	if err == nil && m >= mListChunks {
		out, err = r.encode()
	}
	return out, data, err
}

// Addr returns the bound address.
func (s *Server) Addr() string { return s.lis.Addr().String() }

// Close stops the listener and tears down every accepted connection, so
// clients holding a cached conn see it fail immediately instead of
// talking to a ghost (the Directory then re-resolves on the next call),
// and the handlers still running see their context end.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	conns := make([]*serverConn, 0, len(s.conns))
	for sc := range s.conns {
		conns = append(conns, sc)
	}
	s.mu.Unlock()
	// Close outside the lock: a TCP close can block in the kernel, and
	// the accept loop takes s.mu for every conn it admits — holding it
	// here would couple their latencies for no benefit.
	err := s.lis.Close()
	for _, sc := range conns {
		_ = sc.nc.Close()
	}
	return err
}

// callCtx is the context one request's handler runs under, built from its
// frame: it carries the caller's deadline — as the time remaining when the
// frame was read, so it trails the caller's by the frame's time in flight
// — and ends when that passes, on a cancel frame for the call, or when the
// conn closes. Nothing above it: a handler lives as long as its call. Its
// one value is chunk.LoanKey: respond donates every reply on every path
// and writes it under chunk.Guard, so a Fetch may answer with a view.
type callCtx struct {
	deadline time.Time // zero = none
	done     chan struct{}
	timer    *time.Timer

	mu  sync.Mutex
	err error
}

func newCallCtx(timeout time.Duration) *callCtx {
	c := &callCtx{done: make(chan struct{})}
	if timeout > 0 {
		c.deadline = time.Now().Add(timeout)
		c.timer = time.AfterFunc(timeout, func() { c.end(context.DeadlineExceeded) })
	}
	return c
}

func (c *callCtx) Deadline() (time.Time, bool) { return c.deadline, !c.deadline.IsZero() }
func (c *callCtx) Done() <-chan struct{}       { return c.done }
func (c *callCtx) Value(k any) any {
	if k == (chunk.LoanKey{}) {
		return true
	}
	return nil
}

func (c *callCtx) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.err
}

// end ends the context with err, unless it has ended already.
func (c *callCtx) end(err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.err == nil {
		c.err = err
		close(c.done)
		if c.timer != nil {
			c.timer.Stop()
		}
	}
}

// Conn is a TCP connection to a remote provider. It implements
// provider.API — the surface *provider.Provider has in process — and
// with it client.Conn.
type Conn struct {
	nc net.Conn
	bw *bufio.Writer
	// wslot admits one frame writer at a time. It is a one-slot channel
	// rather than a mutex so that a caller queued behind a stalled write
	// still honours its ctx.
	wslot chan struct{}

	mu      sync.Mutex
	seq     uint64
	pending map[uint64]chan reply
	err     error // why the conn died; every later call fails with it

	broken func(*Conn) // told by each call that finds the conn dead (nil = nobody to tell)
}

// reply is what a call gets back: the reply's metadata and payload, in
// chunk-pool buffers, or why there is none.
type reply struct {
	meta, payload []byte
	err           error
}

// replyChans recycles the reply channel of every call that got its reply;
// one whose caller gave up is left to the GC, late reply and all.
var replyChans = sync.Pool{New: func() any { return make(chan reply, 1) }}

// DialContext connects to a provider server, honouring ctx cancellation
// and deadline during TCP establishment.
func DialContext(ctx context.Context, addr string) (*Conn, error) {
	return dial(ctx, addr, nil)
}

func dial(ctx context.Context, addr string, broken func(*Conn)) (*Conn, error) {
	var d net.Dialer
	nc, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("rpc: dial %s: %w", addr, err)
	}
	c := &Conn{nc: nc, bw: bufio.NewWriterSize(nc, wireBuf), wslot: make(chan struct{}, 1), pending: make(map[uint64]chan reply), broken: broken}
	go c.readLoop(bufio.NewReaderSize(nc, wireBuf))
	return c, nil
}

// readLoop hands each reply to its call until the conn fails. A reply
// whose caller gave up is donated unread.
func (c *Conn) readLoop(br *bufio.Reader) {
	for {
		h, meta, payload, err := readFrame(br)
		if err != nil {
			c.fail(err)
			return
		}
		c.mu.Lock()
		ch := c.pending[h.seq]
		delete(c.pending, h.seq)
		c.mu.Unlock()
		switch {
		case ch == nil: // its caller gave up
			chunk.PutBuf(meta)
			chunk.PutBuf(payload)
		case h.flags&flagError != 0:
			ch <- reply{err: errors.New(string(meta))} // the provider answered: the conn is fine
			chunk.PutBuf(meta)
			chunk.PutBuf(payload)
		default:
			ch <- reply{meta: meta, payload: payload}
		}
	}
}

// fail kills the conn: the first cause sticks, the socket closes (which
// stops the reader and unblocks a stalled write) and every pending call
// fails with ErrShutdown.
func (c *Conn) fail(cause error) {
	c.mu.Lock()
	if c.err != nil {
		c.mu.Unlock()
		return
	}
	err := fmt.Errorf("%w: %v", ErrShutdown, cause)
	c.err = err
	pend := c.pending
	c.pending = nil
	c.mu.Unlock()
	_ = c.nc.Close()
	for _, ch := range pend {
		ch <- reply{err: err}
	}
}

// call sends one request and waits for its reply; ReleaseLease is sent
// one-way and returns once written. The reply's metadata is decoded into
// r when r is non-nil; its payload is returned, a chunk-pool buffer the
// caller owns. A deadline that passes on the way fails the whole conn, as
// a dead transport does — a provider that holds one call hostage holds
// every later one on the conn — and drops it from its Directory.
func (c *Conn) call(ctx context.Context, m byte, a *args, payload []byte, r *result) ([]byte, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	rep := c.roundTrip(ctx, m, a, payload)
	if rep.err == nil && r != nil {
		rep.err = r.decode(rep.meta)
	}
	chunk.PutBuf(rep.meta)
	if errors.Is(rep.err, ErrShutdown) || errors.Is(rep.err, context.DeadlineExceeded) {
		c.fail(rep.err)
		if c.broken != nil {
			c.broken(c)
		}
	}
	return rep.payload, rep.err
}

func (c *Conn) roundTrip(ctx context.Context, m byte, a *args, payload []byte) reply {
	h := header{method: m}
	dl, ok := ctx.Deadline()
	if ok {
		h.timeout = max(time.Until(dl), 1)
	}
	var ch chan reply
	c.mu.Lock()
	if err := c.err; err != nil {
		c.mu.Unlock()
		return reply{err: err}
	}
	c.seq++
	h.seq = c.seq
	if m == mReleaseLease {
		h.flags = flagOneWay
	} else {
		ch = replyChans.Get().(chan reply)
		c.pending[h.seq] = ch
	}
	c.mu.Unlock()
	select {
	case c.wslot <- struct{}{}:
	case <-ctx.Done():
		c.forget(h.seq)
		return reply{err: ctx.Err()}
	}
	var buf [128]byte
	if err := c.write(dl, h, a.append(buf[:0], m), payload); err != nil || h.flags&flagOneWay != 0 {
		return reply{err: err}
	}
	select {
	case rep := <-ch:
		replyChans.Put(ch)
		return rep
	case <-ctx.Done():
		if c.forget(h.seq) && errors.Is(ctx.Err(), context.Canceled) {
			// Tell the server to end the handler, off this goroutine: a
			// caller must not queue behind a stalled write to give up.
			cancel := header{flags: flagCancel, seq: h.seq}
			go func() {
				c.wslot <- struct{}{}
				_ = c.write(time.Time{}, cancel, nil, nil)
			}()
		}
		return reply{err: ctx.Err()}
	}
}

// write writes one frame by deadline dl (zero = none) and gives up the
// write slot its caller took. A failed write fails the conn: a
// half-written frame leaves the peer nothing to resynchronize on.
func (c *Conn) write(dl time.Time, h header, meta, payload []byte) error {
	defer func() { <-c.wslot }()
	_ = c.nc.SetWriteDeadline(dl)
	if err := writeFrame(c.bw, h, meta, payload); err != nil {
		c.fail(err)
		return fmt.Errorf("%w: %v", ErrShutdown, err)
	}
	return nil
}

// forget drops call seq and reports whether it was still waiting.
func (c *Conn) forget(seq uint64) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, waiting := c.pending[seq]
	delete(c.pending, seq)
	return waiting
}

// Store implements client.Conn. The writer lease ctx carries, if any,
// travels in the frame, and the provider registers the chunk under it
// before the Put. data is on the conn before the call waits for its
// reply, so it is never referenced after Store returns.
func (c *Conn) Store(ctx context.Context, user string, id chunk.ID, data []byte) error {
	a := args{User: user, ID: id}
	if l := chunk.LeaseFrom(ctx); l != nil {
		a.Lease = *l
	}
	_, err := c.call(ctx, mStore, &a, data, nil)
	return err
}

// Fetch implements client.Conn. The byte range ctx carries, if any,
// travels in the frame. The payload arrives in a chunk-pool buffer the
// caller owns; a reply its caller gave up on is donated unread.
func (c *Conn) Fetch(ctx context.Context, user string, id chunk.ID) ([]byte, error) {
	a := args{User: user, ID: id}
	a.Off, a.Len = chunk.RangeFrom(ctx)
	return c.call(ctx, mFetch, &a, nil, nil)
}

// ListChunks fetches one page of the remote provider's chunk inventory.
func (c *Conn) ListChunks(ctx context.Context, after chunk.ID, limit int) ([]provider.ChunkInfo, bool, error) {
	var r result
	_, err := c.call(ctx, mListChunks, &args{ID: after, Limit: limit}, nil, &r)
	return r.Chunks, r.More, err
}

// PurgeChunks removes unreferenced chunks wholesale on the remote
// provider.
func (c *Conn) PurgeChunks(ctx context.Context, ids []chunk.ID) (int, int64, error) {
	var r result
	_, err := c.call(ctx, mPurge, &args{IDs: ids}, nil, &r)
	return r.Purged, r.Freed, err
}

// AdvanceEpoch moves the remote provider to the next sweep epoch.
func (c *Conn) AdvanceEpoch(ctx context.Context) (uint64, error) {
	var r result
	_, err := c.call(ctx, mAdvanceEpoch, &args{}, nil, &r)
	return r.Epoch, err
}

// LeaseChunks implements client.Conn over the wire: a writer's lease
// protections survive process boundaries, so a gateway's unpublished
// writer is honoured by a GC runner sweeping the same provider from
// another process.
func (c *Conn) LeaseChunks(ctx context.Context, leaseID string, ttl time.Duration, ids []chunk.ID) error {
	_, err := c.call(ctx, mLeaseChunks, &args{Lease: chunk.Lease{ID: leaseID, TTL: ttl}, IDs: ids}, nil, nil)
	return err
}

// ReleaseLease implements client.Conn over the wire. It is one-way: it
// returns once the frame is written, with the write's error only, and the
// provider applies it before any later call on this conn.
func (c *Conn) ReleaseLease(ctx context.Context, leaseID string) error {
	_, err := c.call(ctx, mReleaseLease, &args{Lease: chunk.Lease{ID: leaseID}}, nil, nil)
	return err
}

// The wire plane mirrors exactly one surface, and the client's view of
// a provider is a subset of it.
var (
	_ provider.API = (*Conn)(nil)
	_ client.Conn  = provider.API(nil)
)

// Close closes the connection; calls pending on it fail with ErrShutdown.
func (c *Conn) Close() error {
	c.fail(net.ErrClosed)
	return nil
}

// Directory resolves provider IDs to TCP connections, caching dials. It
// implements client.Directory. A conn that fails fatally (a dead
// transport, a passed call deadline) is dropped from the cache
// immediately, so one dead TCP session never poisons calls to a
// restarted provider.
type Directory struct {
	mu    sync.Mutex
	addrs map[string]string
	conns map[string]*Conn
}

// NewDirectory returns a directory over a providerID → address map.
func NewDirectory(addrs map[string]string) *Directory {
	d := &Directory{
		addrs: make(map[string]string, len(addrs)),
		conns: make(map[string]*Conn),
	}
	for k, v := range addrs {
		d.addrs[k] = v
	}
	return d
}

// Register adds or updates a provider address (dropping any cached conn).
func (d *Directory) Register(id, addr string) {
	d.mu.Lock()
	d.addrs[id] = addr
	c := d.conns[id]
	delete(d.conns, id)
	d.mu.Unlock()
	// Close the evicted conn outside the lock: closing tears down a TCP
	// session and must not stall concurrent Lookups of healthy providers
	// — the same rule that keeps DialContext out of the critical section.
	if c != nil {
		_ = c.Close()
	}
}

// Lookup implements client.Directory.
func (d *Directory) Lookup(ctx context.Context, id string) (client.Conn, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	d.mu.Lock()
	if c, ok := d.conns[id]; ok {
		d.mu.Unlock()
		return c, nil
	}
	addr, ok := d.addrs[id]
	d.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("rpc: unknown provider %q", id)
	}
	// Dial outside the lock with the caller's ctx: a blackholed provider
	// must not stall lookups of healthy ones for the OS connect timeout,
	// and cancelling the caller aborts the connection attempt. The first
	// call that finds the conn dead evicts it, so the very next Lookup
	// re-dials (a restarted provider on the same address is reached again
	// without waiting for a re-registration).
	c, err := dial(ctx, addr, func(c *Conn) { d.drop(id, c) })
	if err != nil {
		return nil, err
	}
	d.mu.Lock()
	if cached, ok := d.conns[id]; ok {
		// Lost a concurrent dial race; keep the first cached conn.
		d.mu.Unlock()
		_ = c.Close()
		return cached, nil
	}
	if cur, ok := d.addrs[id]; !ok || cur != addr {
		// Re-registered (or removed) while dialing: the conn points at a
		// stale address — drop it and resolve afresh.
		d.mu.Unlock()
		_ = c.Close()
		return d.Lookup(ctx, id)
	}
	d.conns[id] = c
	d.mu.Unlock()
	return c, nil
}

// drop evicts a dead conn from the cache, if it is still the cached entry
// for id.
func (d *Directory) drop(id string, c *Conn) {
	d.mu.Lock()
	if d.conns[id] == c {
		delete(d.conns, id)
	}
	d.mu.Unlock()
}

// Close closes all cached connections.
func (d *Directory) Close() error {
	// Detach the cache under the lock, close outside it: the teardowns
	// do network I/O and must not block a concurrent Register/Lookup.
	d.mu.Lock()
	conns := d.conns
	d.conns = make(map[string]*Conn)
	d.mu.Unlock()
	for _, c := range conns {
		_ = c.Close()
	}
	return nil
}
