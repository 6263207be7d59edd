package chunk

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSumDeterministic(t *testing.T) {
	a := Sum([]byte("hello"))
	b := Sum([]byte("hello"))
	if a != b {
		t.Fatalf("same payload produced different IDs: %v vs %v", a, b)
	}
	c := Sum([]byte("world"))
	if a == c {
		t.Fatalf("different payloads produced same ID")
	}
}

func TestIDStringRoundTrip(t *testing.T) {
	id := Sum([]byte("payload"))
	got, err := ParseID(id.String())
	if err != nil {
		t.Fatalf("ParseID: %v", err)
	}
	if got != id {
		t.Fatalf("round trip mismatch: %v vs %v", got, id)
	}
}

func TestParseIDErrors(t *testing.T) {
	if _, err := ParseID("zz"); err == nil {
		t.Error("want error for non-hex input")
	}
	if _, err := ParseID("abcd"); err == nil {
		t.Error("want error for short input")
	}
}

func TestIDIsZero(t *testing.T) {
	var id ID
	if !id.IsZero() {
		t.Error("zero ID should report IsZero")
	}
	if Sum(nil).IsZero() {
		t.Error("sha256 of empty input is not the zero ID")
	}
}

func TestSplitAligned(t *testing.T) {
	data := make([]byte, 256)
	for i := range data {
		data[i] = byte(i)
	}
	pieces, err := Split(0, data, 64)
	if err != nil {
		t.Fatal(err)
	}
	if len(pieces) != 4 {
		t.Fatalf("want 4 pieces, got %d", len(pieces))
	}
	for i, p := range pieces {
		if p.Index != int64(i) {
			t.Errorf("piece %d: index %d", i, p.Index)
		}
		if len(p.Data) != 64 {
			t.Errorf("piece %d: len %d", i, len(p.Data))
		}
	}
}

func TestSplitUnaligned(t *testing.T) {
	// write of 100 bytes at offset 50, chunk size 64:
	// slots: [50,64) idx 0, [64,128) idx 1, [128,150) idx 2
	data := make([]byte, 100)
	pieces, err := Split(50, data, 64)
	if err != nil {
		t.Fatal(err)
	}
	if len(pieces) != 3 {
		t.Fatalf("want 3 pieces, got %d", len(pieces))
	}
	wantLens := []int{14, 64, 22}
	wantIdx := []int64{0, 1, 2}
	for i, p := range pieces {
		if len(p.Data) != wantLens[i] || p.Index != wantIdx[i] {
			t.Errorf("piece %d: idx=%d len=%d, want idx=%d len=%d",
				i, p.Index, len(p.Data), wantIdx[i], wantLens[i])
		}
	}
}

func TestSplitEmpty(t *testing.T) {
	pieces, err := Split(0, nil, 64)
	if err != nil || pieces != nil {
		t.Fatalf("empty split: pieces=%v err=%v", pieces, err)
	}
}

func TestSplitErrors(t *testing.T) {
	if _, err := Split(0, []byte{1}, 0); err == nil {
		t.Error("want error for zero chunk size")
	}
	if _, err := Split(-1, []byte{1}, 64); err == nil {
		t.Error("want error for negative offset")
	}
}

// Property: concatenating the pieces reproduces the input, indices are
// increasing, and every piece stays inside its slot.
func TestSplitJoinProperty(t *testing.T) {
	f := func(seed int64, offRaw uint16, nRaw uint16, szRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		off := int64(offRaw)
		n := int(nRaw)%2000 + 1
		size := int64(szRaw)%100 + 1
		data := make([]byte, n)
		rng.Read(data)
		pieces, err := Split(off, data, size)
		if err != nil {
			return false
		}
		var joined []byte
		prev := int64(-1)
		pos := off
		for _, p := range pieces {
			if p.Index <= prev {
				return false
			}
			lo, hi := SlotRange(p.Index, size)
			if pos < lo || pos+int64(len(p.Data)) > hi {
				return false
			}
			pos += int64(len(p.Data))
			prev = p.Index
			joined = append(joined, p.Data...)
		}
		return bytes.Equal(joined, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestNumChunks(t *testing.T) {
	cases := []struct{ blob, chunk, want int64 }{
		{0, 64, 0},
		{1, 64, 1},
		{64, 64, 1},
		{65, 64, 2},
		{128, 64, 2},
		{-5, 64, 0},
	}
	for _, c := range cases {
		if got := NumChunks(c.blob, c.chunk); got != c.want {
			t.Errorf("NumChunks(%d,%d)=%d, want %d", c.blob, c.chunk, got, c.want)
		}
	}
}

func TestDescClone(t *testing.T) {
	d := Desc{ID: Sum([]byte("x")), Size: 10, Providers: []string{"a", "b"}}
	c := d.Clone()
	c.Providers[0] = "mutated"
	if d.Providers[0] != "a" {
		t.Error("Clone shares provider slice")
	}
}

func TestBufPoolClasses(t *testing.T) {
	if GetBuf(0) != nil || GetBuf(-1) != nil {
		t.Error("GetBuf(≤0) should be nil")
	}
	PutBuf(nil) // no-ops, not panics
	PutBuf(make([]byte, 0, 100))
	PutBuf(make([]byte, 0, 1<<maxClassBits+1))

	// cap ≥ n and len 0 across every class boundary, the smallest class,
	// and the oversize fall-through.
	sizes := []int{1, 1<<minClassBits - 1, 1 << minClassBits, 1<<minClassBits + 1}
	for k := minClassBits + 1; k <= maxClassBits; k++ {
		sizes = append(sizes, 1<<k-1, 1<<k, 1<<k+1)
	}
	for _, n := range sizes {
		b := GetBuf(n)
		if len(b) != 0 || cap(b) < n {
			t.Fatalf("GetBuf(%d): len %d cap %d", n, len(b), cap(b))
		}
		PutBuf(b)
	}

	// A donated buffer is filed under the largest class it covers: one of
	// cap 3000 serves requests up to 2048, never the 3000-byte request
	// that rounds up to the 4096 class. sync.Pool may drop any donation
	// (and does, at random, under -race), so reuse is looked for over many
	// rounds while the safety half is asserted on every one.
	reused := false
	for i := 0; i < 200; i++ {
		odd := make([]byte, 3000)
		PutBuf(odd)
		if b := GetBuf(3000); cap(b) < 3000 {
			t.Fatalf("GetBuf(3000) handed out cap %d", cap(b))
		}
		if b := GetBuf(2048)[:1]; &b[0] == &odd[0] {
			reused = true
		}
	}
	if !reused {
		t.Error("a donated buffer was never handed out again")
	}
}
