package main

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"syscall"
)

// stamp says where and how a result or trace file was produced.
type stamp struct {
	Workload        string  `json:"workload"`
	Seed            int64   `json:"seed"`
	Traced          bool    `json:"traced"`
	NProc           int     `json:"nproc"`
	GOMAXPROCS      int     `json:"gomaxprocs"`
	GoVersion       string  `json:"go_version"`
	Commit          string  `json:"commit"`
	WALDir          string  `json:"wal_dir"`
	WALFilesystem   string  `json:"wal_filesystem"`
	Setups          int     `json:"setups"`
	MeasuredSeconds float64 `json:"measured_seconds"`
	Slices          int     `json:"slices"`
	LatencySamples  int     `json:"latency_samples"`
}

func newStamp(workload string, seed int64, scratch string) stamp {
	return stamp{
		Workload:      workload,
		Seed:          seed,
		NProc:         runtime.NumCPU(),
		GOMAXPROCS:    runtime.GOMAXPROCS(0),
		GoVersion:     runtime.Version(),
		Commit:        buildCommit(),
		WALDir:        scratch,
		WALFilesystem: filesystemOf(scratch),
	}
}

// buildCommit reads the commit the toolchain stamped into the binary; a
// checkout that is not a git repository has none.
func buildCommit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", ""
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			if s.Value == "true" {
				dirty = "+dirty"
			}
		}
	}
	return rev + dirty
}

// filesystemOf names the filesystem under dir: on tmpfs an fsync is free and
// the program alone is measured, elsewhere the device is in the numbers.
func filesystemOf(dir string) string {
	var fs syscall.Statfs_t
	if err := syscall.Statfs(dir, &fs); err != nil {
		return "unknown"
	}
	switch uint32(fs.Type) {
	case 0x01021994:
		return "tmpfs"
	case 0xef53:
		return "ext"
	case 0x58465342:
		return "xfs"
	case 0x9123683e:
		return "btrfs"
	case 0x794c7630:
		return "overlayfs"
	}
	return fmt.Sprintf("0x%x", uint32(fs.Type))
}
