//go:build !linux

package durable

import (
	"io"
	"os"
)

// Preallocate is a no-op where there is no fallocate: segments grow by
// append.
func (osFile) Preallocate(int64) error { return nil }

// LoadImage reads the file at path whole into scratch, grown if it is too
// small.
func (osFS) LoadImage(path string, scratch []byte) ([]byte, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	if cap(scratch) < int(st.Size()) {
		scratch = make([]byte, st.Size())
	}
	data := scratch[:st.Size()]
	_, err = io.ReadFull(f, data)
	return data, err
}

// ReleaseImage hands img back as the next LoadImage's buffer.
func (osFS) ReleaseImage(img []byte) ([]byte, error) { return img, nil }
