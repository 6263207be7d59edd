// The store-read half of the poolbuf fixture: what GetAppend returns may
// be a lent view of the store's memory, which pins it until donated, so it
// owes a PutBuf exactly as a pool buffer does.
package poolbuf

import "blobseer/internal/chunk"

type store struct{}

func (store) GetAppend(id int, dst []byte) ([]byte, error) { return dst, nil }

// ReadLeak checks the payload and drops it on the short path.
func ReadLeak(s store, id int) (int, error) {
	data, err := s.GetAppend(id, nil)
	if err != nil {
		return 0, err
	}
	if len(data) < 8 {
		return 0, errShort // want `pooled buffer data leaks on this return path`
	}
	n := int(data[0])
	chunk.PutBuf(data)
	return n, nil
}

// ReadTwice donates the view on the short path and again on the way out.
func ReadTwice(s store, id int) error {
	data, err := s.GetAppend(id, nil)
	if err != nil {
		return err
	}
	if len(data) < 8 {
		chunk.PutBuf(data)
		err = errShort
	}
	chunk.PutBuf(data) // want `pooled buffer data is released twice on this path`
	return err
}

// ReadDonated is the correct shape: read through it, donate it once.
func ReadDonated(s store, id int) (byte, error) {
	data, err := s.GetAppend(id, nil)
	if err != nil {
		return 0, err
	}
	defer chunk.PutBuf(data)
	return data[0], nil
}

// ReadHandedOn returns what it read: the caller owns it now.
func ReadHandedOn(s store, id int) ([]byte, error) {
	data, err := s.GetAppend(id, nil)
	return data, err
}
