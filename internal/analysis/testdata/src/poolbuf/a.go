// The poolbuf fixture: a buffer taken from the chunk pool must reach
// putBuf on every return path, unless its ownership demonstrably moves
// elsewhere.
package poolbuf

import "errors"

var errShort = errors.New("short")

func getBuf(n int) []byte { return make([]byte, n) }
func putBuf(b []byte)     {}

// Leak releases on the happy path only.
func Leak(n int) error {
	buf := getBuf(n)
	if n > 10 {
		return errShort // want `pooled buffer buf leaks on this return path`
	}
	putBuf(buf)
	return nil
}

// Deferred is the canonical correct shape.
func Deferred(n int) error {
	buf := getBuf(n)
	defer putBuf(buf)
	if n > 10 {
		return errShort
	}
	buf[0] = 1
	return nil
}

// EarlyAndDefer releases on the error path and defers for the rest —
// the shape the client's replica fetch uses.
func EarlyAndDefer(n int) error {
	buf := getBuf(n)
	if n > 10 {
		putBuf(buf)
		return errShort
	}
	defer putBuf(buf)
	buf[0] = 1
	return nil
}

// Transfer hands the buffer to the caller — the analyzer goes silent,
// the new owner releases.
func Transfer(n int) []byte {
	buf := getBuf(n)
	buf[0] = 1
	return buf
}

// Handoff passes the buffer to another function — ownership moves.
func Handoff(n int) {
	buf := getBuf(n)
	sink(buf)
}

func sink(b []byte) {}

// Uneven releases in one arm and leaks in the other.
func Uneven(n int) int {
	buf := getBuf(n)
	if n > 0 {
		putBuf(buf)
		return n
	}
	return 0 // want `pooled buffer buf leaks on this return path`
}

// Drop falls off the end of the function with the buffer still owned.
func Drop(n int) {
	buf := getBuf(n)
	buf[0] = 1
} // want `pooled buffer buf may leak when Drop returns`

// Borrowed shows the borrowing builtins do not transfer ownership:
// copy reads through the buffer and putBuf still must run.
func Borrowed(src []byte) int {
	buf := getBuf(len(src))
	n := copy(buf, src)
	putBuf(buf)
	return n
}

// BothArmsRelease ends in an if/else whose arms both release and
// return: no path falls off the end.
func BothArmsRelease(n int) int {
	buf := getBuf(n)
	if n > 10 {
		putBuf(buf)
		return n
	} else {
		putBuf(buf)
		return 0
	}
}

// fallible is a pool whose take can fail.
type fallible struct{}

func (fallible) GetBuf(n int) ([]byte, error) { return make([]byte, n), nil }

// ErrArm: the arm of err != nil holds no buffer; the early return past
// it still owes one.
func ErrArm(p fallible, n int) error {
	buf, err := p.GetBuf(n)
	if err != nil {
		return err
	}
	if n > 10 {
		return errShort // want `pooled buffer buf leaks on this return path`
	}
	putBuf(buf)
	return nil
}
