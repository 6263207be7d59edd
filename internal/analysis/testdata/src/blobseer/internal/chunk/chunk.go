// Fixture mirror of the real internal/chunk buffer pool. Only the names
// matter: poolbuf recognises GetBuf/PutBuf by name, package-qualified or
// not.
package chunk

// GetBuf mirrors chunk.GetBuf.
func GetBuf(n int) []byte { return make([]byte, 0, n) }

// PutBuf mirrors chunk.PutBuf.
func PutBuf(b []byte) { _ = b }
