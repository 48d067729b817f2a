// The file seam: every operation the WAL makes on its directory goes through
// a fileSystem, so that a test can watch, delay or fail any one of them.
// osFS, the one Wrap uses, is the operating system's; its preallocation and
// its segment images are per OS (fs_linux.go, fs_other.go).
package durable

import (
	"io"
	"os"
)

// fileSystem is every file operation of the WAL: the append side's segments
// and snapshots, and recovery's scan.
type fileSystem interface {
	MkdirAll(dir string) error
	// Create opens path write-only, made or emptied.
	Create(path string) (file, error)
	// OpenWrite opens the existing file at path write-only.
	OpenWrite(path string) (file, error)
	Rename(from, to string) error
	Remove(path string) error
	// SyncDir forces dir's entries, the names in it, to stable storage.
	SyncDir(dir string) error
	// List returns the names in dir.
	List(dir string) ([]string, error)
	ReadFile(path string) ([]byte, error)
	// LoadImage returns the whole file at path, to be read and not written,
	// until ReleaseImage ends it. It may reuse scratch, a buffer an earlier
	// ReleaseImage returned; ReleaseImage returns the buffer the next
	// LoadImage may reuse.
	LoadImage(path string, scratch []byte) ([]byte, error)
	ReleaseImage(img []byte) ([]byte, error)
}

// file is an open file of a fileSystem.
type file interface {
	io.Writer
	Sync() error
	Truncate(size int64) error
	// Preallocate reserves size bytes for the file on disk and makes that
	// its size, where the system can; elsewhere it does nothing.
	Preallocate(size int64) error
	Close() error
}

// osFS is the operating system's file system.
type osFS struct{}

// osFile is an *os.File with the per-OS Preallocate.
type osFile struct{ *os.File }

func (osFS) MkdirAll(dir string) error { return os.MkdirAll(dir, 0o755) }

func (osFS) Create(path string) (file, error) {
	return openOS(path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY)
}

func (osFS) OpenWrite(path string) (file, error) { return openOS(path, os.O_WRONLY) }

func openOS(path string, flag int) (file, error) {
	f, err := os.OpenFile(path, flag, 0o644)
	if err != nil {
		return nil, err
	}
	return osFile{f}, nil
}

func (osFS) Rename(from, to string) error { return os.Rename(from, to) }

func (osFS) Remove(path string) error { return os.Remove(path) }

func (osFS) SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

func (osFS) List(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	names := make([]string, len(entries))
	for i, e := range entries {
		names[i] = e.Name()
	}
	return names, err
}

func (osFS) ReadFile(path string) ([]byte, error) { return os.ReadFile(path) }
