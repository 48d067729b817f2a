//go:build !linux

package durable

import "os"

// preallocate is a no-op where there is no fallocate: segments grow by
// append.
func preallocate(*os.File, int64) error { return nil }
