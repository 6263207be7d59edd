package rpc

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"math"
	"time"

	"blobseer/internal/chunk"
	"blobseer/internal/provider"
)

// The frame. Every message either way is one frame on a buffered stream,
// flushed once per frame:
//
//	header    26 bytes, little-endian
//	  method  u8   the call (mStore …), echoed by its reply
//	  flags   u8   flagOneWay, flagCancel, flagError
//	  seq     u64  matches a reply or a cancel to its call
//	  timeout u64  the caller's deadline as nanoseconds remaining (0 = none)
//	  metaLen u32  length of the metadata that follows
//	  payLen  u32  length of the payload after it
//	metadata  a request's args; a reply's result, or its error text
//	payload   raw bytes: a Store's chunk, a Fetch reply's (the requested range)
//
// A payload is written straight from the caller's slice — bufio copies one
// that fits its buffer and passes a larger one through — and read into a
// chunk-pool buffer, so a chunk is never copied through an encoder.
const (
	headerLen = 26

	// wireBuf sizes both halves of the stream: a header plus a small chunk
	// (the S3 gateway's 16 KiB objects) leaves in one write and arrives in
	// one read; anything larger moves directly between conn and buffer.
	wireBuf = 32 << 10

	// maxPayload rejects a length no chunk or metadata can have (chunks are
	// at most a few tens of MiB).
	maxPayload = 1 << 30

	// untrustedStart is the first buffer a payload longer than the pool's
	// largest class gets; see readPayload.
	untrustedStart = 512 << 10
)

// Header flags. A one-way request gets no reply: the server applies it
// before it reads the next frame, so it is ordered before every later call
// on the conn. A cancel frame carries the seq of a call whose caller gave
// up and ends that call's handler context. An error reply's metadata is
// the error's text.
const (
	flagOneWay byte = 1 << iota
	flagCancel
	flagError
)

// The methods. The data-path calls up to mReleaseLease reply with no
// metadata; the control-plane calls from mListChunks on reply with a
// result. A retired method keeps its number, so the others keep theirs.
const (
	mStore byte = iota + 1
	mFetch
	mLeaseChunks
	mReleaseLease
	mRetired // once Remove; args.decode refuses it
	mListChunks
	mPurge
	mAdvanceEpoch
	mRetiredEpoch // once Epoch; args.decode refuses it
	numMethods
)

type header struct {
	method, flags   byte
	seq             uint64
	timeout         time.Duration
	metaLen, payLen uint32
}

var errTooLong = fmt.Errorf("rpc: frame section exceeds the %d-byte limit", maxPayload)

// writeFrame sends one frame and flushes it. meta is copied into the
// stream buffer behind the header; the payload is written as it is.
func writeFrame(bw *bufio.Writer, h header, meta, payload []byte) error {
	if len(meta) > maxPayload || len(payload) > maxPayload {
		return errTooLong
	}
	b := append(bw.AvailableBuffer(), h.method, h.flags)
	b = binary.LittleEndian.AppendUint64(b, h.seq)
	b = binary.LittleEndian.AppendUint64(b, uint64(h.timeout))
	b = binary.LittleEndian.AppendUint32(b, uint32(len(meta)))
	b = binary.LittleEndian.AppendUint32(b, uint32(len(payload)))
	if _, err := bw.Write(append(b, meta...)); err != nil {
		return err
	}
	if _, err := bw.Write(payload); err != nil {
		return err
	}
	return bw.Flush()
}

// readFrame reads the next frame. Its lengths are the peer's word, checked
// against the limit and trusted by nothing before the bytes they promise
// arrive (readPayload). The metadata and payload land in chunk-pool
// buffers obtained here and owned by the caller.
func readFrame(br *bufio.Reader) (h header, meta, payload []byte, err error) {
	b, err := br.Peek(headerLen)
	if err != nil {
		return h, nil, nil, err
	}
	h = header{
		method:  b[0],
		flags:   b[1],
		seq:     binary.LittleEndian.Uint64(b[2:]),
		timeout: time.Duration(binary.LittleEndian.Uint64(b[10:])),
		metaLen: binary.LittleEndian.Uint32(b[18:]),
		payLen:  binary.LittleEndian.Uint32(b[22:]),
	}
	_, _ = br.Discard(headerLen)
	if h.metaLen > maxPayload || h.payLen > maxPayload {
		return h, nil, nil, errTooLong
	}
	if meta, err = readPayload(br, int(h.metaLen)); err != nil {
		return h, nil, nil, err
	}
	if payload, err = readPayload(br, int(h.payLen)); err != nil {
		chunk.PutBuf(meta)
		return h, nil, nil, err
	}
	return h, meta, payload, nil
}

// readPayload fills a chunk-pool buffer with the next n bytes of the stream.
// The length came off the network ahead of the bytes it promises. One the
// pool can serve is taken at its word: all a lying peer gets is a pool
// buffer, which is back in the pool once the read fails. A longer one — a
// chunk can be that long, the default chunk size is 64 MiB — sizes nothing
// before its bytes arrive: the buffer starts small and doubles as it fills,
// so memory follows the bytes received at the price of copying them once
// more.
func readPayload(r io.Reader, n int) ([]byte, error) {
	size := n
	if n > chunk.MaxPooled {
		size = untrustedStart
	}
	buf := chunk.GetBuf(size)
	for {
		fill := min(n, cap(buf))
		if _, err := io.ReadFull(r, buf[len(buf):fill]); err != nil {
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

// args are a call's arguments, encoded by hand: a method sends the fields
// argFields names for it, in the order of the struct — strings and ID
// lists length-prefixed by a uvarint, an ID as its 32 bytes, a TTL or a
// limit as a varint, a Fetch's byte range as two uvarints.
type args struct {
	User     string
	ID       chunk.ID // the chunk; ListChunks: resume after it
	Lease    chunk.Lease
	Limit    int
	IDs      []chunk.ID
	Off, Len int64 // Fetch: bytes [Off, Off+Len) of the chunk; Len 0 = all of it
}

const (
	fUser = 1 << iota
	fID
	fLeaseID
	fTTL
	fLimit
	fIDs
	fRange
)

var argFields = [256]uint8{ // any method byte indexes it; an unknown one sends nothing
	mStore:        fUser | fID | fLeaseID | fTTL, // an empty lease ID is no lease
	mFetch:        fUser | fID | fRange,
	mLeaseChunks:  fLeaseID | fTTL | fIDs,
	mReleaseLease: fLeaseID,
	mListChunks:   fID | fLimit,
	mPurge:        fIDs,
}

func (a *args) append(b []byte, m byte) []byte {
	f := argFields[m]
	if f&fUser != 0 {
		b = append(binary.AppendUvarint(b, uint64(len(a.User))), a.User...)
	}
	if f&fID != 0 {
		b = append(b, a.ID[:]...)
	}
	if f&fLeaseID != 0 {
		b = append(binary.AppendUvarint(b, uint64(len(a.Lease.ID))), a.Lease.ID...)
	}
	if f&fTTL != 0 {
		b = binary.AppendVarint(b, int64(a.Lease.TTL))
	}
	if f&fLimit != 0 {
		b = binary.AppendVarint(b, int64(a.Limit))
	}
	if f&fIDs != 0 {
		b = binary.AppendUvarint(b, uint64(len(a.IDs)))
		for _, id := range a.IDs {
			b = append(b, id[:]...)
		}
	}
	if f&fRange != 0 {
		b = binary.AppendUvarint(binary.AppendUvarint(b, uint64(a.Off)), uint64(a.Len))
	}
	return b
}

var errMeta = errors.New("rpc: malformed frame metadata")

// decode parses m's arguments from meta. Every length is checked against
// the bytes left before anything is sized by it, and nothing may trail.
func (a *args) decode(m byte, meta []byte) error {
	if m == 0 || m == mRetired || m == mRetiredEpoch || m >= numMethods {
		return fmt.Errorf("rpc: unknown method %d", m)
	}
	const idLen = uint64(len(chunk.ID{}))
	d := decoder{b: meta, ok: true}
	f := argFields[m]
	if f&fUser != 0 {
		a.User = string(d.next(d.uvarint()))
	}
	if f&fID != 0 {
		copy(a.ID[:], d.next(idLen))
	}
	if f&fLeaseID != 0 {
		a.Lease.ID = string(d.next(d.uvarint()))
	}
	if f&fTTL != 0 {
		a.Lease.TTL = time.Duration(d.varint())
	}
	if f&fLimit != 0 {
		a.Limit = int(d.varint())
	}
	if f&fIDs != 0 {
		if n := d.uvarint(); n > uint64(len(d.b))/idLen {
			d.ok = false
		} else if n > 0 {
			a.IDs = make([]chunk.ID, n)
			for i := range a.IDs {
				copy(a.IDs[i][:], d.next(idLen))
			}
		}
	}
	if f&fRange != 0 {
		off, n := d.uvarint(), d.uvarint()
		d.ok = d.ok && off|n <= math.MaxInt64
		a.Off, a.Len = int64(off), int64(n)
	}
	if !d.ok || len(d.b) != 0 {
		return errMeta
	}
	return nil
}

// decoder reads hand-encoded args. The first short or malformed field
// clears ok for good; every later read returns a zero value.
type decoder struct {
	b  []byte
	ok bool
}

// next returns the next n bytes, or nil once the metadata ran short.
func (d *decoder) next(n uint64) []byte {
	if !d.ok || n > uint64(len(d.b)) {
		d.ok = false
		return nil
	}
	v := d.b[:n]
	d.b = d.b[n:]
	return v
}

func (d *decoder) uvarint() uint64 {
	v, n := binary.Uvarint(d.b)
	d.ok = d.ok && n > 0
	d.next(uint64(max(n, 0)))
	return v
}

func (d *decoder) varint() int64 {
	v, n := binary.Varint(d.b)
	d.ok = d.ok && n > 0
	d.next(uint64(max(n, 0)))
	return v
}

// result is the reply metadata of the control-plane calls, gob-encoded
// one message at a time: they are cold, and gob takes fewer lines.
type result struct {
	Epoch  uint64               // AdvanceEpoch
	Chunks []provider.ChunkInfo // ListChunks
	More   bool                 // ListChunks
	Purged int                  // Purge
	Freed  int64                // Purge
}

// encode takes r by value, so that only a call that replies with a result
// puts one on the heap.
func (r result) encode() ([]byte, error) {
	var buf bytes.Buffer
	err := gob.NewEncoder(&buf).Encode(&r)
	return buf.Bytes(), err
}

func (r *result) decode(meta []byte) error {
	return gob.NewDecoder(bytes.NewReader(meta)).Decode(r)
}
