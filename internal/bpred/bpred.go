// Package bpred implements the paper's decoupled branch architecture:
//
//   - a set-associative Branch Target Buffer (BTB) holding the targets of
//     recently taken branches, updated speculatively at decode time, and
//   - a Pattern History Table (PHT) of 2-bit saturating counters indexed by
//     the XOR of a global history register and the branch address
//     (McFarling's gshare), updated only when branches resolve.
//
// The baseline configuration matches the paper: 64-entry 4-way BTB,
// 512-entry PHT. A coupled-BTB variant (prediction bits attached to BTB
// entries, Pentium-style) is provided for the ablation study.
package bpred

import (
	"fmt"
	"math/bits"

	"specfetch/internal/isa"
)

// Counter2 is a 2-bit saturating counter. States 0,1 predict not taken;
// 2,3 predict taken.
type Counter2 uint8

// Predict reports the counter's current direction prediction.
func (c Counter2) Predict() bool { return c >= 2 }

// Update nudges the counter toward the observed outcome.
func (c Counter2) Update(taken bool) Counter2 {
	if taken {
		if c < 3 {
			return c + 1
		}
		return c
	}
	if c > 0 {
		return c - 1
	}
	return c
}

// WeaklyTaken is the conventional initial counter state.
const WeaklyTaken Counter2 = 2

// PHTConfig sizes the pattern history table.
type PHTConfig struct {
	// Entries is the number of 2-bit counters; must be a power of two.
	Entries int
}

// DefaultPHTConfig is the paper's 512-entry table.
func DefaultPHTConfig() PHTConfig { return PHTConfig{Entries: 512} }

// PHT is a gshare direction predictor. The global history register holds
// log2(Entries) outcome bits and, following the paper, is updated only at
// branch resolution — predictions made while earlier branches are still
// unresolved therefore see stale history, which is exactly the effect the
// paper measures when deepening speculation.
type PHT struct {
	counters []Counter2
	history  uint32
	mask     uint32
	bits     uint
}

// NewPHT builds the table; all counters start weakly taken.
func NewPHT(cfg PHTConfig) (*PHT, error) {
	if cfg.Entries <= 0 || cfg.Entries&(cfg.Entries-1) != 0 {
		return nil, fmt.Errorf("bpred: PHT entries %d not a positive power of two", cfg.Entries)
	}
	p := &PHT{
		counters: make([]Counter2, cfg.Entries),
		mask:     uint32(cfg.Entries - 1),
	}
	for n := cfg.Entries; n > 1; n >>= 1 {
		p.bits++
	}
	for i := range p.counters {
		p.counters[i] = WeaklyTaken
	}
	return p, nil
}

// index computes the gshare index for a branch at pc: the instruction-word
// address XORed with the global history.
func (p *PHT) index(pc isa.Addr) uint32 {
	return (uint32(uint64(pc)/isa.InstBytes) ^ p.history) & p.mask
}

// Predict returns the predicted direction for the conditional branch at pc
// using current (possibly stale) history.
func (p *PHT) Predict(pc isa.Addr) bool {
	return p.counters[p.index(pc)].Predict()
}

// Resolve records the actual outcome of the conditional branch at pc:
// the counter indexed with the history the update-time table sees is
// trained, and the outcome shifts into the global history register.
func (p *PHT) Resolve(pc isa.Addr, taken bool) {
	i := p.index(pc)
	p.counters[i] = p.counters[i].Update(taken)
	p.history <<= 1
	if taken {
		p.history |= 1
	}
	p.history &= p.mask
}

// BTBConfig sizes the branch target buffer.
type BTBConfig struct {
	// Entries is the total entry count; must be a positive multiple of Assoc.
	Entries int
	// Assoc is the set associativity.
	Assoc int
}

// DefaultBTBConfig is the paper's 64-entry 4-way buffer.
func DefaultBTBConfig() BTBConfig { return BTBConfig{Entries: 64, Assoc: 4} }

type btbEntry struct {
	valid  bool
	tag    uint64
	target isa.Addr
	// counter is used only by the coupled variant.
	counter Counter2
	// lru is a per-set timestamp; larger is more recent.
	lru uint64
}

// BTB is a set-associative cache of branch targets with true-LRU
// replacement. Following the paper, only taken branches are inserted, and
// insertion happens speculatively at decode (wrong-path decodes included).
type BTB struct {
	sets     [][]btbEntry
	nsets    uint64
	setMask  uint64
	tagShift uint
	clock    uint64
}

// NewBTB builds the buffer.
func NewBTB(cfg BTBConfig) (*BTB, error) {
	if cfg.Entries <= 0 || cfg.Assoc <= 0 || cfg.Entries%cfg.Assoc != 0 {
		return nil, fmt.Errorf("bpred: bad BTB config %d entries / %d-way", cfg.Entries, cfg.Assoc)
	}
	nsets := cfg.Entries / cfg.Assoc
	if nsets&(nsets-1) != 0 {
		return nil, fmt.Errorf("bpred: BTB set count %d not a power of two", nsets)
	}
	sets := make([][]btbEntry, nsets)
	for i := range sets {
		sets[i] = make([]btbEntry, cfg.Assoc)
	}
	return &BTB{
		sets: sets, nsets: uint64(nsets),
		setMask:  uint64(nsets) - 1,
		tagShift: uint(bits.TrailingZeros64(uint64(nsets))),
	}, nil
}

// setTag splits a branch address into set index and tag. The set count is a
// power of two (validated), so the split is mask-and-shift.
func (b *BTB) setTag(pc isa.Addr) (uint64, uint64) {
	word := uint64(pc) / isa.InstBytes
	return word & b.setMask, word >> b.tagShift
}

// Lookup returns the stored target for the branch at pc, if present.
func (b *BTB) Lookup(pc isa.Addr) (isa.Addr, bool) {
	set, tag := b.setTag(pc)
	for i := range b.sets[set] {
		e := &b.sets[set][i]
		if e.valid && e.tag == tag {
			b.clock++
			e.lru = b.clock
			return e.target, true
		}
	}
	return 0, false
}

// Insert records (or refreshes) the target of a taken branch at pc.
func (b *BTB) Insert(pc, target isa.Addr) {
	set, tag := b.setTag(pc)
	b.clock++
	victim := 0
	for i := range b.sets[set] {
		e := &b.sets[set][i]
		if e.valid && e.tag == tag {
			e.target = target
			e.lru = b.clock
			return
		}
		if !e.valid {
			victim = i
			break
		}
		if e.lru < b.sets[set][victim].lru {
			victim = i
		}
	}
	b.sets[set][victim] = btbEntry{valid: true, tag: tag, target: target, lru: b.clock}
}
