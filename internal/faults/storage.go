package faults

import (
	"fmt"
	"sync"
	"syscall"
	"time"

	"repro/internal/sim"
)

// DefaultSlowIODelayMS is the stall length applied to a slow-I/O
// injection when StorageConfig.SlowIODelayMS is zero.
const DefaultSlowIODelayMS = 5

// StorageConfig sets the per-class rates for host-side storage faults
// injected into the persistence layer (the disk result store and the
// job journal). These are the failure modes a production checkpoint
// path actually meets: a full disk, a torn write exposed by a crash,
// an fsync the kernel refuses, a device that stalls, and bytes that
// rot at rest. The zero value disables injection entirely.
//
// Unlike Config, storage faults never reach a simulation: they decide
// whether artifacts persist, not what bytes they hold, so they are
// deliberately excluded from the result-cache content address.
type StorageConfig struct {
	// WriteErrorRate is the per-write probability that storing an
	// entry fails outright with ENOSPC before any bytes land.
	WriteErrorRate float64 `json:"write_error_rate,omitempty"`
	// TornWriteRate is the per-write probability that only a prefix of
	// the entry reaches the disk while the write still reports
	// success — the on-disk shape a power cut leaves behind. The read
	// path must catch it by verification, never serve it.
	TornWriteRate float64 `json:"torn_write_rate,omitempty"`
	// SyncErrorRate is the per-sync probability that fsync fails; the
	// write is then treated as never durable and must be abandoned.
	SyncErrorRate float64 `json:"sync_error_rate,omitempty"`
	// BitRotRate is the per-read probability that one stored byte
	// flips before verification — media rot at rest. A verified read
	// path quarantines the entry instead of serving it.
	BitRotRate float64 `json:"bit_rot_rate,omitempty"`
	// SlowIORate is the per-operation probability that the device
	// stalls for SlowIODelayMS before responding.
	SlowIORate float64 `json:"slow_io_rate,omitempty"`
	// SlowIODelayMS is the stall length in milliseconds (0 means
	// DefaultSlowIODelayMS).
	SlowIODelayMS int `json:"slow_io_delay_ms,omitempty"`
}

// Enabled reports whether any storage-fault class can fire.
func (c StorageConfig) Enabled() bool {
	return c.WriteErrorRate > 0 || c.TornWriteRate > 0 || c.SyncErrorRate > 0 ||
		c.BitRotRate > 0 || c.SlowIORate > 0
}

// Validate reports configuration errors.
func (c StorageConfig) Validate() error {
	for _, r := range []struct {
		name string
		v    float64
	}{
		{"write error", c.WriteErrorRate},
		{"torn write", c.TornWriteRate},
		{"sync error", c.SyncErrorRate},
		{"bit rot", c.BitRotRate},
		{"slow io", c.SlowIORate},
	} {
		if r.v < 0 || r.v > 1 {
			return fmt.Errorf("faults: storage %s rate %v outside [0,1]", r.name, r.v)
		}
	}
	if c.SlowIODelayMS < 0 {
		return fmt.Errorf("faults: storage slow io delay %dms", c.SlowIODelayMS)
	}
	return nil
}

// Storage-fault stream labels: above the simulator's (101, 102) and
// the device fault classes (201-204), so adding the persistence layer
// never perturbs another component's draws.
const (
	streamStoreWrite = 211
	streamStoreTorn  = 212
	streamStoreSync  = 213
	streamStoreRot   = 214
	streamStoreSlow  = 215
)

// StorageInjector answers the persistence layer's fault queries. Every
// decision is a pure function of (seed, fault config, query order). One
// injector is shared by the store and the journal, which query it under
// their own, different locks, so the injector serializes its draws
// itself. A nil StorageInjector is valid and never injects.
type StorageInjector struct {
	cfg   StorageConfig
	mu    sync.Mutex // guards the streams
	write *sim.RNG
	torn  *sim.RNG
	sync  *sim.RNG
	rot   *sim.RNG
	slow  *sim.RNG
}

// NewStorage builds a storage injector whose every stream derives from
// the seed. It returns nil when cfg injects nothing, so callers can
// hang it off a struct field and query unconditionally.
func NewStorage(cfg StorageConfig, seed uint64) *StorageInjector {
	if !cfg.Enabled() {
		return nil
	}
	return &StorageInjector{
		cfg:   cfg,
		write: sim.NewRNG(seed, streamStoreWrite),
		torn:  sim.NewRNG(seed, streamStoreTorn),
		sync:  sim.NewRNG(seed, streamStoreSync),
		rot:   sim.NewRNG(seed, streamStoreRot),
		slow:  sim.NewRNG(seed, streamStoreSlow),
	}
}

// ErrInjectedWrite is the synthetic out-of-space failure WriteError
// reports; it wraps syscall.ENOSPC so callers matching on errno treat
// injected and organic exhaustion identically.
var ErrInjectedWrite = fmt.Errorf("faults: injected store write failure: %w", syscall.ENOSPC)

// ErrInjectedSync is the synthetic fsync failure SyncError reports;
// it wraps syscall.EIO like a real device would surface one.
var ErrInjectedSync = fmt.Errorf("faults: injected fsync failure: %w", syscall.EIO)

// WriteError draws whether one entry write fails with ENOSPC.
func (i *StorageInjector) WriteError() bool {
	if i == nil || i.cfg.WriteErrorRate <= 0 {
		return false
	}
	i.mu.Lock()
	defer i.mu.Unlock()
	return i.write.Bernoulli(i.cfg.WriteErrorRate)
}

// TornWrite draws whether one entry write is torn, and if so, the
// fraction of its bytes (in (0,1)) that actually reach the disk.
func (i *StorageInjector) TornWrite() (bool, float64) {
	if i == nil || i.cfg.TornWriteRate <= 0 {
		return false, 0
	}
	i.mu.Lock()
	defer i.mu.Unlock()
	if !i.torn.Bernoulli(i.cfg.TornWriteRate) {
		return false, 0
	}
	// Keep at least one byte and lose at least one, so a torn write is
	// always distinguishable both from an empty file and a whole one.
	return true, 0.05 + 0.9*i.torn.Float64()
}

// SyncError draws whether one fsync fails.
func (i *StorageInjector) SyncError() bool {
	if i == nil || i.cfg.SyncErrorRate <= 0 {
		return false
	}
	i.mu.Lock()
	defer i.mu.Unlock()
	return i.sync.Bernoulli(i.cfg.SyncErrorRate)
}

// BitRot draws whether one read of n stored bytes observes rot, and if
// so, which byte index flipped. n <= 0 never rots.
func (i *StorageInjector) BitRot(n int) (int, bool) {
	if i == nil || i.cfg.BitRotRate <= 0 || n <= 0 {
		return 0, false
	}
	i.mu.Lock()
	defer i.mu.Unlock()
	if !i.rot.Bernoulli(i.cfg.BitRotRate) {
		return 0, false
	}
	return i.rot.IntN(n), true
}

// SlowIO draws the stall to apply before one storage operation
// (0 when the class is off or the device responds promptly).
func (i *StorageInjector) SlowIO() time.Duration {
	if i == nil || i.cfg.SlowIORate <= 0 {
		return 0
	}
	i.mu.Lock()
	slow := i.slow.Bernoulli(i.cfg.SlowIORate)
	i.mu.Unlock()
	if !slow {
		return 0
	}
	ms := i.cfg.SlowIODelayMS
	if ms <= 0 {
		ms = DefaultSlowIODelayMS
	}
	return time.Duration(ms) * time.Millisecond
}
