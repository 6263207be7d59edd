package rpc

import (
	"bufio"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"io"
	"net/rpc"

	"blobseer/internal/chunk"
)

// The frame format. Every net/rpc message is a gob-encoded header
// (rpc.Request or rpc.Response) followed by one body:
//
//	'G' gob(body)
//	'R' gob(body with its payload field nil) uvarint(n) n payload bytes
//
// all on one buffered stream, flushed once per message. The tag makes a body
// self-describing: net/rpc asks the codec to discard bodies it has no
// receiver for (an error reply, an unknown sequence number) by passing nil,
// and the stream has to stay framed without a Go type to go by.
//
// 'R' is how StoreArgs.Data and FetchReply.Data travel. The writer hands the
// caller's slice to the conn as it is — bufio copies a payload that fits its
// buffer and passes a larger one straight through — and the reader fills a
// chunk-pool buffer with io.ReadFull, so a chunk is never copied through an
// encoder or allocated by a decoder.
const (
	bodyGob byte = 'G'
	bodyRaw byte = 'R'

	// wireBuf sizes both halves of the stream: a header plus a small chunk
	// (the S3 gateway's 16 KiB objects) leaves in one write and arrives in
	// one read; anything larger moves directly between conn and payload
	// buffer.
	wireBuf = 32 << 10

	// maxPayload rejects a length prefix no chunk can have (chunks are at
	// most a few tens of MiB).
	maxPayload = 1 << 30

	// untrustedStart is the first buffer a payload longer than the pool's
	// largest class gets; see readPayload.
	untrustedStart = 512 << 10
)

// payloader marks the message types whose chunk payload travels raw.
type payloader interface{ payload() *[]byte }

func (a *StoreArgs) payload() *[]byte  { return &a.Data }
func (r *FetchReply) payload() *[]byte { return &r.Data }

// wire is one framed stream. net/rpc serializes writers (the client's
// request mutex, the server's sending mutex) and reads from one goroutine
// per side, so neither half needs a lock of its own.
type wire struct {
	rwc io.ReadWriteCloser
	br  *bufio.Reader
	bw  *bufio.Writer
	dec *gob.Decoder
	enc *gob.Encoder
}

func newWire(rwc io.ReadWriteCloser) *wire {
	w := &wire{
		rwc: rwc,
		br:  bufio.NewReaderSize(rwc, wireBuf),
		bw:  bufio.NewWriterSize(rwc, wireBuf),
	}
	// gob reads exactly one message at a time from an io.ByteReader, so raw
	// frames can sit between its messages on the same buffered reader.
	w.dec = gob.NewDecoder(w.br)
	w.enc = gob.NewEncoder(w.bw)
	return w
}

// writeMsg sends one header and body. release says the body's payload is a
// pool buffer this side owns (a server's Fetch reply): it is donated once
// written. A client's Store payload is the caller's and is only read.
func (w *wire) writeMsg(hdr, body any, release bool) error {
	if err := w.enc.Encode(hdr); err != nil {
		return err
	}
	if err := w.writeBody(body, release); err != nil {
		return err
	}
	return w.bw.Flush()
}

func (w *wire) writeBody(body any, release bool) error {
	p, ok := body.(payloader)
	if !ok {
		if err := w.bw.WriteByte(bodyGob); err != nil {
			return err
		}
		return w.enc.Encode(body)
	}
	// gob omits a nil slice, so clearing the field for the duration of the
	// encode sends the rest of the message without the payload. Nobody else
	// sees the message meanwhile: the client encodes on the calling
	// goroutine, the server owns the reply it is sending.
	ref := p.payload()
	data := *ref
	*ref = nil
	err := w.writeRaw(body, data)
	if release {
		chunk.PutBuf(data)
	} else {
		*ref = data
	}
	return err
}

func (w *wire) writeRaw(head any, data []byte) error {
	if err := w.bw.WriteByte(bodyRaw); err != nil {
		return err
	}
	if err := w.enc.Encode(head); err != nil {
		return err
	}
	var n [binary.MaxVarintLen64]byte
	if _, err := w.bw.Write(n[:binary.PutUvarint(n[:], uint64(len(data)))]); err != nil {
		return err
	}
	_, err := w.bw.Write(data)
	return err
}

// readBody reads one body into body, or past it when body is nil. A raw
// payload lands in a chunk-pool buffer obtained here, at decode time, and
// owned by the message: if the caller has stopped waiting for this reply
// the buffer goes to the GC with it, and no buffer the caller could still
// recycle is ever written to.
func (w *wire) readBody(body any) error {
	tag, err := w.br.ReadByte()
	if err != nil {
		return err
	}
	if tag != bodyGob && tag != bodyRaw {
		return fmt.Errorf("rpc: unknown body tag %#x", tag)
	}
	if err := w.dec.Decode(body); err != nil || tag == bodyGob {
		return err
	}
	n, err := binary.ReadUvarint(w.br)
	if err != nil {
		return err
	}
	if n > maxPayload {
		return fmt.Errorf("rpc: payload of %d bytes exceeds the %d-byte frame limit", n, maxPayload)
	}
	p, ok := body.(payloader)
	if !ok {
		_, err := w.br.Discard(int(n))
		return err
	}
	buf, err := w.readPayload(int(n))
	if err != nil {
		return err
	}
	*p.payload() = buf
	return nil
}

// readPayload fills a chunk-pool buffer with the next n bytes of the stream.
// The length came off the network ahead of the bytes it promises. One the
// pool can serve is taken at its word: all a lying peer gets is a pool
// buffer, which is back in the pool once the read fails. A longer one — a
// chunk can be that long, the default chunk size is 64 MiB — sizes nothing
// before its bytes arrive: the buffer starts small and doubles as it fills,
// so memory follows the bytes received at the price of copying them once
// more.
func (w *wire) readPayload(n int) ([]byte, error) {
	size := n
	if n > chunk.MaxPooled {
		size = untrustedStart
	}
	buf := chunk.GetBuf(size)
	for {
		fill := min(n, cap(buf))
		if _, err := io.ReadFull(w.br, buf[len(buf):fill]); err != nil {
			chunk.PutBuf(buf)
			return nil, err
		}
		buf = buf[:fill]
		if fill == n {
			return buf, nil
		}
		next := chunk.GetBuf(min(n, 2*fill))[:fill]
		copy(next, buf)
		chunk.PutBuf(buf)
		buf = next
	}
}

// clientCodec and serverCodec put the wire under net/rpc.
type clientCodec struct{ *wire }

func (c clientCodec) WriteRequest(r *rpc.Request, body any) error { return c.writeMsg(r, body, false) }
func (c clientCodec) ReadResponseHeader(r *rpc.Response) error    { return c.dec.Decode(r) }
func (c clientCodec) ReadResponseBody(body any) error             { return c.readBody(body) }
func (c clientCodec) Close() error                                { return c.rwc.Close() }

type serverCodec struct{ *wire }

func (c serverCodec) ReadRequestHeader(r *rpc.Request) error { return c.dec.Decode(r) }
func (c serverCodec) ReadRequestBody(body any) error         { return c.readBody(body) }
func (c serverCodec) Close() error                           { return c.rwc.Close() }

// WriteResponse closes the conn on a failed write, as net/rpc's own codec
// does: a half-written frame leaves the peer nothing to resynchronize on.
func (c serverCodec) WriteResponse(r *rpc.Response, body any) error {
	err := c.writeMsg(r, body, true)
	if err != nil {
		_ = c.rwc.Close()
	}
	return err
}
