package engine

import (
	"flag"
	"fmt"
	"sort"
	"strings"
	"sync"
)

// Options parameterize backend construction. Every field has a usable
// default; backends ignore fields that do not apply to them (each backend's
// registry Info lists the tunables it consumes, by the same names BindFlags
// registers). New rejects values no backend can honor — see Validate.
type Options struct {
	// Nodes sizes per-node time bases (one clock register per worker node).
	// Default 8. Thread ids are taken modulo Nodes, so a smaller value than
	// the worker count only shares clock registers, it never fails.
	Nodes int
	// MaxVersions is the LSA core's per-object history depth (0 = engine
	// default). 1 yields a single-version STM.
	MaxVersions int
	// Deviation is the advertised clock deviation bound in ticks for
	// "lsa/extsync" (1 GHz device, so ticks are nanoseconds). Default 2000.
	Deviation int64
	// Words is the transactional memory size of the word-based backend.
	// Default 1<<20. Dynamic cell allocation (e.g. linked-list inserts)
	// consumes words permanently, so size generously for long runs.
	Words int
	// WALDir is the write-ahead-log directory for the "durable/*" backends.
	// Empty selects an engine-managed temp directory (durability within the
	// process run only — benches and tests); recovery-on-boot needs a real
	// path that survives restarts.
	WALDir string
	// Fsync is the durable backends' sync policy: "always" (one fsync per
	// commit, before its acknowledgment), "group" (concurrent commits share
	// one fsync; an acknowledgment waits for the fsync that covers its
	// record — the default) or "never" (buffered writes, no fsync;
	// acknowledged commits can be lost).
	Fsync string
	// SnapshotBytes is the live-log size that triggers background snapshot
	// compaction in the durable backends. 0 selects the default (8 MiB);
	// negative disables automatic compaction.
	SnapshotBytes int64
}

// fsyncPolicies are the recognized Options.Fsync values ("" selects the
// durable backends' default, group).
var fsyncPolicies = []string{"always", "group", "never"}

// Validate rejects option values no backend can honor, with an error naming
// the field and the constraint. Zero values always pass (they select
// defaults); New runs this before construction so a bad tunable surfaces as
// one descriptive error instead of a panic or a silent clamp deep inside a
// backend.
func (o Options) Validate() error {
	if o.Nodes < 0 {
		return fmt.Errorf("engine: Nodes = %d, must be ≥ 1 (or 0 for the default)", o.Nodes)
	}
	if o.MaxVersions < 0 {
		return fmt.Errorf("engine: MaxVersions = %d, must be ≥ 1 (or 0 for the engine default)", o.MaxVersions)
	}
	if o.Deviation < 0 {
		return fmt.Errorf("engine: Deviation = %d ticks, must be ≥ 0 (0 selects the default)", o.Deviation)
	}
	if o.Words < 0 {
		return fmt.Errorf("engine: Words = %d, must be ≥ 1 (or 0 for the default)", o.Words)
	}
	if o.Fsync != "" {
		known := false
		for _, n := range fsyncPolicies {
			if n == o.Fsync {
				known = true
				break
			}
		}
		if !known {
			return fmt.Errorf("engine: unknown fsync policy %q (known: %s)",
				o.Fsync, strings.Join(fsyncPolicies, ", "))
		}
	}
	return nil
}

func (o Options) withDefaults() Options {
	if o.Nodes <= 0 {
		o.Nodes = 8
	}
	if o.Deviation <= 0 {
		o.Deviation = 2000
	}
	if o.Words <= 0 {
		o.Words = 1 << 20
	}
	return o
}

// BindFlags registers every backend tunable on fs, parsing into o. Flag
// names match the Tunables lists in the registry's capability Infos, so
// `-engine X` plus Describe(X).Capabilities.Tunables tells a user exactly
// which of these flags matter. The four cmd drivers (lsabench, stmstress,
// stmserve, stmload) all bind the same surface, so a new Options field added
// here reaches every binary at once. Defaults are o's current field values;
// the conventional 0 means "engine default" (for Nodes: the worker count —
// drivers resolve that before calling New).
func (o *Options) BindFlags(fs *flag.FlagSet) {
	fs.IntVar(&o.Nodes, "nodes", o.Nodes, "per-node time-base clock registers (0 = match the worker count)")
	fs.IntVar(&o.MaxVersions, "max-versions", o.MaxVersions, "LSA per-object history depth (0 = engine default; 1 = single-version)")
	fs.Int64Var(&o.Deviation, "deviation", o.Deviation, "advertised ext-sync clock deviation bound, ticks (0 = default 2000)")
	fs.IntVar(&o.Words, "words", o.Words, "word-based backend memory size in words (0 = default 1<<20)")
	fs.StringVar(&o.WALDir, "wal", o.WALDir, "durable/* write-ahead-log directory (empty = temp dir, no cross-restart recovery)")
	fs.StringVar(&o.Fsync, "fsync", o.Fsync, "durable/* sync policy: "+strings.Join(fsyncPolicies, "|")+" (empty = group)")
	fs.Int64Var(&o.SnapshotBytes, "snapshot", o.SnapshotBytes, "durable/* live-log bytes that trigger snapshot compaction (0 = default 8 MiB, < 0 disables)")
}

// Capabilities declares, at registration time, what an engine offers beyond
// the Engine/Thread/Txn contract — the introspection surface behind
// Describe, `lsabench -list-engines`, and stmserve's /engines endpoint,
// replacing ad-hoc type assertions scattered through callers. The unboxed
// int lane is not listed: every Txn carries it (see IntTxn).
type Capabilities struct {
	// MultiVersion: read-only transactions may be served from older
	// versions, so long scans do not abort concurrent updates.
	MultiVersion bool `json:"multi_version"`
	// Durable: the engine implements the Durable interface — committed
	// writes are journaled to a write-ahead log and the engine recovers
	// state from log + snapshot at construction. Durable engines only
	// accept WAL-serializable payloads (the int lane, nil, bool, string,
	// float64, []byte); arbitrary boxed structs fail the write.
	Durable bool `json:"durable,omitempty"`
	// Tunables are the Options fields the backend consumes, named as the
	// BindFlags flags ("nodes", "max-versions", "deviation", "words", and
	// the durable backends' "wal", "fsync", "snapshot").
	Tunables []string `json:"tunables,omitempty"`
}

// Info describes one registered backend: its registry name, a one-line
// summary, and its declared capabilities. The capability claims are gated by
// the engine conformance suite (TestCapabilityClaims), so Describe's answers
// stay truthful as backends evolve.
type Info struct {
	Name         string       `json:"name"`
	Summary      string       `json:"summary,omitempty"`
	Capabilities Capabilities `json:"capabilities"`
}

// Factory builds an engine instance from options.
type Factory func(Options) (Engine, error)

type registration struct {
	info    Info
	factory Factory
}

var (
	registryMu sync.RWMutex
	registry   = map[string]registration{}
)

// Register adds a backend under name with its capability Info (info.Name is
// overwritten with name). It panics on duplicates — backends register from
// init functions, so a collision is a programming error.
func Register(name string, info Info, f Factory) {
	registryMu.Lock()
	defer registryMu.Unlock()
	if _, dup := registry[name]; dup {
		panic(fmt.Sprintf("engine: duplicate backend %q", name))
	}
	info.Name = name
	registry[name] = registration{info: info, factory: f}
}

// Names returns the registered backend names, sorted.
func Names() []string {
	registryMu.RLock()
	defer registryMu.RUnlock()
	names := make([]string, 0, len(registry))
	for n := range registry {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Describe returns the named backend's registration-time Info. ok is false
// for unknown names.
func Describe(name string) (info Info, ok bool) {
	registryMu.RLock()
	defer registryMu.RUnlock()
	r, ok := registry[name]
	return r.info, ok
}

// Infos returns every registered backend's Info, sorted by name — the
// capability matrix behind `lsabench -list-engines` and stmserve's /engines.
func Infos() []Info {
	registryMu.RLock()
	defer registryMu.RUnlock()
	infos := make([]Info, 0, len(registry))
	for _, r := range registry {
		infos = append(infos, r.info)
	}
	sort.Slice(infos, func(i, j int) bool { return infos[i].Name < infos[j].Name })
	return infos
}

// New builds the named backend, validating opt first (see Options.Validate).
func New(name string, opt Options) (Engine, error) {
	registryMu.RLock()
	r, ok := registry[name]
	registryMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("engine: unknown backend %q (registered: %s)",
			name, strings.Join(Names(), ", "))
	}
	if err := opt.Validate(); err != nil {
		return nil, fmt.Errorf("%w (backend %q)", err, name)
	}
	return r.factory(opt.withDefaults())
}

// MustNew is New for static configurations; it panics on error.
func MustNew(name string, opt Options) Engine {
	e, err := New(name, opt)
	if err != nil {
		panic(err)
	}
	return e
}
