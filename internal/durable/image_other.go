//go:build !linux

package durable

import (
	"io"
	"os"
)

// load reads the segment file f, size bytes long, whole into rp.image, which
// keeps the largest segment's size for the next.
func (rp *replayer) load(f *os.File, size int) ([]byte, error) {
	if cap(rp.image) < size {
		rp.image = make([]byte, size)
	}
	data := rp.image[:size]
	_, err := io.ReadFull(f, data)
	return data, err
}

// unload is a no-op: the buffer is reused for the next segment.
func (rp *replayer) unload() error { return nil }
