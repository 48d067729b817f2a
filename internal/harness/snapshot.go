package harness

import (
	"encoding/json"
	"fmt"
	"runtime"
)

// HostInfo records the machine shape a bench snapshot was taken on. The
// ROADMAP carries a standing caveat that checked-in numbers come from a
// 1-core host where concurrency effects collapse; embedding the core count
// in the snapshot makes that caveat machine-checkable instead of tribal
// knowledge.
type HostInfo struct {
	// NumCPU is runtime.NumCPU() at snapshot time — the usable logical CPUs.
	NumCPU int `json:"num_cpu"`
	// GOMAXPROCS is the scheduler's parallelism limit during the runs.
	GOMAXPROCS int `json:"gomaxprocs"`
}

// Validate rejects host records no real machine produces.
func (h HostInfo) Validate() error {
	if h.NumCPU < 1 {
		return fmt.Errorf("harness: host record with %d CPUs", h.NumCPU)
	}
	if h.GOMAXPROCS < 1 {
		return fmt.Errorf("harness: host record with GOMAXPROCS %d", h.GOMAXPROCS)
	}
	return nil
}

// CurrentHost describes the running process's machine.
func CurrentHost() HostInfo {
	return HostInfo{NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0)}
}

// Snapshot is the on-disk bench snapshot format: a host header plus the
// result records.
type Snapshot struct {
	Host    *HostInfo `json:"host,omitempty"`
	Results []Result  `json:"results"`
}

// ParseSnapshot decodes a bench snapshot ({"host": ..., "results": [...]});
// the host header is required and validated. A bare result array — the
// format before host records existed — fails to decode.
func ParseSnapshot(data []byte) (Snapshot, error) {
	var s Snapshot
	if err := json.Unmarshal(data, &s); err != nil {
		return Snapshot{}, fmt.Errorf("harness: malformed snapshot: %w", err)
	}
	if s.Host == nil {
		return Snapshot{}, fmt.Errorf("harness: snapshot header lacks the host record (rewrite with a current lsabench)")
	}
	if err := s.Host.Validate(); err != nil {
		return Snapshot{}, err
	}
	return s, nil
}
