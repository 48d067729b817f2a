package durable

import (
	"os"
	"syscall"
)

// load maps the segment file f, size bytes long, read-only, so replay reads
// it in place from the page cache: no copy and no heap buffer, whose
// allocation would start a garbage collection beside the replay workers.
// unload unmaps it; recovery calls it before it truncates the file and
// before it returns, and decoded values share no bytes with the mapping.
func (rp *replayer) load(f *os.File, size int) ([]byte, error) {
	if size == 0 {
		return nil, nil // nothing to map
	}
	data, err := syscall.Mmap(int(f.Fd()), 0, size, syscall.PROT_READ, syscall.MAP_SHARED)
	if err != nil {
		return nil, err
	}
	rp.image = data
	return data, nil
}

// unload unmaps the image load mapped, if any.
func (rp *replayer) unload() error {
	if rp.image == nil {
		return nil
	}
	err := syscall.Munmap(rp.image)
	rp.image = nil
	return err
}
