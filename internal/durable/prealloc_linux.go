package durable

import (
	"os"
	"syscall"
)

// preallocate reserves size bytes for a new segment and sets its file size
// up front (fallocate mode 0), so that later appends and their fsyncs write
// data blocks without committing a new file size each time.
func preallocate(f *os.File, size int64) error {
	return syscall.Fallocate(int(f.Fd()), 0, 0, size)
}
