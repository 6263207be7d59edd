package rpc

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"sync"
	"testing"

	"blobseer/internal/blobmeta"
	"blobseer/internal/chunk"
	"blobseer/internal/client"
	"blobseer/internal/pmanager"
	"blobseer/internal/provider"
	"blobseer/internal/vmanager"
)

// rangeRecorder is a client.Conn that notes the byte range each fetch
// asks for before passing it on.
type rangeRecorder struct {
	client.Conn
	mu     *sync.Mutex
	ranges *[][2]int64
}

func (r rangeRecorder) Fetch(ctx context.Context, user string, id chunk.ID) ([]byte, error) {
	off, n := chunk.RangeFrom(ctx)
	r.mu.Lock()
	*r.ranges = append(*r.ranges, [2]int64{off, n})
	r.mu.Unlock()
	return r.Conn.Fetch(ctx, user, id)
}

// readSmall drains r through Read with a buffer smaller than a chunk, so
// that one chunk is served over several calls.
func readSmall(r io.Reader) ([]byte, error) {
	var out []byte
	buf := make([]byte, 7)
	for {
		n, err := r.Read(buf)
		out = append(out, buf[:n]...)
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return out, err
		}
	}
}

// TestRangedReadsMatchModel reads a grid of windows out of a BLOB with
// full chunks, a short chunk inside it, two hole slots and a short last
// chunk, on the in-process plane and over rpc, through Read and WriteTo.
// Every window must match a flat model byte for byte, the providers must
// send exactly the chunk bytes the window overlaps, and a fetch must carry
// a range only when the window leaves part of its chunk out.
func TestRangedReadsMatchModel(t *testing.T) {
	const cs = 64
	// v1 writes slots 0–3 and 20 bytes of slot 4; v2 writes 40 bytes at
	// slot 6. Slot 4 stays a short chunk, slot 5 a hole, slot 6 is short
	// at the BLOB's end.
	head := bytes.Repeat([]byte("0123456789abcdefghij"), 276/20+1)[:276]
	tail := bytes.Repeat([]byte("KLMNOPQRST"), 4)
	model := make([]byte, 424)
	copy(model, head)
	copy(model[384:], tail)
	dataAt := func(off, n int64) (moved int64) { // model bytes a chunk holds in [off, off+n)
		for _, d := range [][2]int64{{0, 276}, {384, 424}} {
			moved += max(0, min(off+n, d[1])-max(off, d[0]))
		}
		return moved
	}

	planes := map[string]func(t *testing.T, ps map[string]*provider.Provider) client.Directory{
		"in-process": func(_ *testing.T, ps map[string]*provider.Provider) client.Directory {
			return client.DirectoryFunc(func(_ context.Context, id string) (client.Conn, error) { return ps[id], nil })
		},
		"rpc": func(t *testing.T, ps map[string]*provider.Provider) client.Directory {
			addrs := map[string]string{}
			for id, p := range ps {
				srv, err := Serve(p, "127.0.0.1:0")
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { srv.Close() })
				addrs[id] = srv.Addr()
			}
			d := NewDirectory(addrs)
			t.Cleanup(func() { d.Close() })
			return d
		},
	}
	for name, plane := range planes {
		t.Run(name, func(t *testing.T) {
			ps := map[string]*provider.Provider{}
			pm := pmanager.New()
			for i := 0; i < 3; i++ {
				id := fmt.Sprintf("p%d", i)
				ps[id] = provider.New(id, "z", 0)
				if err := pm.Register(pmanager.Info{ID: id, Zone: "z"}); err != nil {
					t.Fatal(err)
				}
			}
			inner := plane(t, ps)
			var mu sync.Mutex
			var ranges [][2]int64
			dir := client.DirectoryFunc(func(ctx context.Context, id string) (client.Conn, error) {
				c, err := inner.Lookup(ctx, id)
				return rangeRecorder{Conn: c, mu: &mu, ranges: &ranges}, err
			})
			vm := vmanager.New(blobmeta.NewMemStore("m1", nil, nil))
			cl := client.New("alice", vm, pm, dir, client.WithPrefetch(2))
			info, err := cl.Create(bg, cs)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := cl.Write(bg, info.ID, 0, head); err != nil {
				t.Fatal(err)
			}
			if _, err := cl.Write(bg, info.ID, 384, tail); err != nil {
				t.Fatal(err)
			}
			blob, err := cl.Open(bg, info.ID)
			if err != nil {
				t.Fatal(err)
			}
			sent := func() (n int64) {
				for _, p := range ps {
					n += p.Stats().BytesOut
				}
				return n
			}
			for _, w := range []struct {
				shape  string
				off, n int64
			}{
				{"whole BLOB", 0, 424},
				{"whole chunk", 64, 64},
				{"inside a chunk", 10, 20},
				{"chunk tail", 65, 63},
				{"straddling 2 chunks", 50, 30},
				{"straddling 3 chunks", 50, 100},
				{"ending in the short last chunk", 400, 24},
				{"from a hole to the end", 330, 94},
				{"over a hole", 330, 40},
				{"into, over and out of a hole", 266, 150},
				{"into a short chunk's end", 266, 30},
				{"past a short chunk's data", 286, 20},
			} {
				for _, via := range []string{"WriteTo", "Read"} {
					mu.Lock()
					ranges = ranges[:0]
					mu.Unlock()
					before := sent()
					rd, err := blob.NewReader(bg, 0, w.off, w.n)
					if err != nil {
						t.Fatal(err)
					}
					var got []byte
					if via == "Read" {
						got, err = readSmall(rd)
					} else {
						var buf bytes.Buffer
						_, err = rd.WriteTo(&buf)
						got = buf.Bytes()
					}
					rd.Close()
					if err != nil {
						t.Fatalf("%s via %s: %v", w.shape, via, err)
					}
					if want := model[w.off : w.off+w.n]; !bytes.Equal(got, want) {
						t.Fatalf("%s via %s: got %q, want %q", w.shape, via, got, want)
					}
					if moved, want := sent()-before, dataAt(w.off, w.n); moved != want {
						t.Fatalf("%s via %s: providers sent %d bytes, want the %d the window holds", w.shape, via, moved, want)
					}
					mu.Lock()
					for _, r := range ranges {
						if wholeChunks := w.off%cs == 0 && (w.n%cs == 0 || w.off+w.n == 424); wholeChunks && r != [2]int64{} {
							t.Fatalf("%s via %s: fetch asked for range %v, want none", w.shape, via, r)
						}
					}
					mu.Unlock()
				}
			}
		})
	}
}
