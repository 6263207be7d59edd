// The shared-pool half of the poolbuf fixture: the process-wide pool is
// reached package-qualified (chunk.GetBuf / chunk.PutBuf), and a buffer
// must be donated exactly once.
package poolbuf

import "blobseer/internal/chunk"

// QualifiedLeak is Leak through the package-qualified pool.
func QualifiedLeak(n int) error {
	buf := chunk.GetBuf(n)[:n]
	if n > 10 {
		return errShort // want `pooled buffer buf leaks on this return path`
	}
	chunk.PutBuf(buf)
	return nil
}

// QualifiedDeferred is the correct shape, package-qualified.
func QualifiedDeferred(n int) {
	buf := chunk.GetBuf(n)[:n]
	defer chunk.PutBuf(buf)
	clear(buf)
}

// Twice donates on the error path and then again on the way out.
func Twice(n int) error {
	buf := chunk.GetBuf(n)[:n]
	var err error
	if n > 10 {
		chunk.PutBuf(buf)
		err = errShort
	}
	chunk.PutBuf(buf) // want `pooled buffer buf is released twice on this path`
	return err
}

// TwiceStraight donates, keeps going, and donates again.
func TwiceStraight(n int) {
	buf := chunk.GetBuf(n)[:n]
	chunk.PutBuf(buf)
	chunk.PutBuf(buf) // want `pooled buffer buf is released twice on this path`
}

// DeferThenPut has a deferred release pending and releases by hand too.
func DeferThenPut(n int) {
	buf := chunk.GetBuf(n)[:n]
	defer chunk.PutBuf(buf)
	clear(buf)
	chunk.PutBuf(buf) // want `pooled buffer buf is released twice on this path`
}

// Renewed releases, re-acquires and releases again: two buffers, one
// release each.
func Renewed(n int) {
	buf := chunk.GetBuf(n)[:n]
	chunk.PutBuf(buf)
	buf = chunk.GetBuf(2 * n)[:n]
	chunk.PutBuf(buf)
}

// PerArm releases once on every path: in a loop arm that jumps on, in an
// else arm that returns, and on the way out.
func PerArm(ns []int) {
	for _, n := range ns {
		buf := chunk.GetBuf(n)[:n]
		if n > 10 {
			chunk.PutBuf(buf)
			continue
		}
		if n > 5 {
			clear(buf)
		} else {
			chunk.PutBuf(buf)
			return
		}
		chunk.PutBuf(buf)
	}
}
