package durable

import (
	"os"
	"syscall"
)

// Preallocate is fallocate mode 0: it reserves size bytes and sets the file
// size up front, so that later appends and their fsyncs write data blocks
// without committing a new file size each time.
func (f osFile) Preallocate(size int64) error {
	return syscall.Fallocate(int(f.Fd()), 0, 0, size)
}

// LoadImage maps the file at path read-only, so replay reads it in place
// from the page cache: no copy and no heap buffer, whose allocation would
// start a garbage collection beside the replay workers. scratch is unused.
func (osFS) LoadImage(path string, _ []byte) ([]byte, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil || st.Size() == 0 {
		return nil, err // nothing to map
	}
	return syscall.Mmap(int(f.Fd()), 0, int(st.Size()), syscall.PROT_READ, syscall.MAP_SHARED)
}

// ReleaseImage unmaps img, if LoadImage mapped one; nothing is kept for reuse.
func (osFS) ReleaseImage(img []byte) ([]byte, error) {
	if img == nil {
		return nil, nil
	}
	return nil, syscall.Munmap(img)
}
