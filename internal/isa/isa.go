// Package isa defines the minimal instruction-set abstractions shared by the
// whole simulator: addresses, instruction kinds, and cache-line geometry.
//
// The paper traces Alpha AXP binaries, so the model assumes a fixed 4-byte
// instruction encoding; a 32-byte cache line therefore holds 8 instructions.
package isa

import (
	"fmt"
	"math/bits"
)

// InstBytes is the size of one instruction in bytes (Alpha AXP fixed width).
const InstBytes = 4

// Addr is a byte address in the simulated instruction address space.
type Addr uint64

// Next returns the address of the sequentially following instruction.
func (a Addr) Next() Addr { return a + InstBytes }

// Plus returns the address n instructions after a.
func (a Addr) Plus(n int) Addr { return a + Addr(n)*InstBytes }

// String renders the address in hex, matching trace-file conventions.
func (a Addr) String() string { return fmt.Sprintf("0x%x", uint64(a)) }

// Kind classifies an instruction for the fetch and branch architecture.
type Kind uint8

const (
	// Plain is any non-control-transfer instruction.
	Plain Kind = iota
	// CondBranch is a conditional direct branch (PC-relative target).
	CondBranch
	// Jump is an unconditional direct branch.
	Jump
	// Call is a direct subroutine call (unconditionally taken).
	Call
	// Return transfers control to a dynamically determined return address.
	Return
	// IndirectJump is a computed jump (e.g. switch table, virtual dispatch).
	IndirectJump
	// IndirectCall is a computed subroutine call (virtual dispatch).
	IndirectCall

	numKinds
)

var kindNames = [numKinds]string{
	Plain:        "plain",
	CondBranch:   "cond",
	Jump:         "jump",
	Call:         "call",
	Return:       "ret",
	IndirectJump: "ijmp",
	IndirectCall: "icall",
}

// String returns the short mnemonic for the kind.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// ParseKind is the inverse of Kind.String. It reports false for unknown names.
func ParseKind(s string) (Kind, bool) {
	for k, name := range kindNames {
		if name == s {
			return Kind(k), true
		}
	}
	return 0, false
}

// IsBranch reports whether the kind is any control transfer.
func (k Kind) IsBranch() bool { return k != Plain }

// IsConditional reports whether the transfer depends on a condition.
func (k Kind) IsConditional() bool { return k == CondBranch }

// IsUnconditional reports whether the transfer always redirects fetch.
func (k Kind) IsUnconditional() bool { return k.IsBranch() && k != CondBranch }

// IsIndirect reports whether the target is computed at run time, so a BTB
// entry for it can hold a stale (wrong) target.
func (k Kind) IsIndirect() bool {
	return k == Return || k == IndirectJump || k == IndirectCall
}

// IsCall reports whether the instruction pushes a return address.
func (k Kind) IsCall() bool { return k == Call || k == IndirectCall }

// LineGeom describes cache-line geometry and provides the address arithmetic
// used by the cache, prefetcher, and fetch engine.
type LineGeom struct {
	// LineBytes is the line size in bytes; it must be a power of two and a
	// multiple of InstBytes.
	LineBytes int
}

// DefaultLineBytes matches the paper's 32-byte instruction cache lines.
const DefaultLineBytes = 32

// NewLineGeom validates sz and returns the geometry.
func NewLineGeom(sz int) (LineGeom, error) {
	switch {
	case sz <= 0 || sz&(sz-1) != 0:
		return LineGeom{}, fmt.Errorf("isa: line size %d is not a positive power of two", sz)
	case sz%InstBytes != 0:
		return LineGeom{}, fmt.Errorf("isa: line size %d is not a multiple of the %d-byte instruction size", sz, InstBytes)
	}
	return LineGeom{LineBytes: sz}, nil
}

// MustLineGeom is NewLineGeom for known-good constants.
func MustLineGeom(sz int) LineGeom {
	g, err := NewLineGeom(sz)
	if err != nil {
		panic(err)
	}
	return g
}

// shift returns log2(LineBytes). LineBytes is a power of two by contract,
// so line arithmetic compiles to shifts and masks rather than the hardware
// divide a variable divisor would force in the simulator's hottest loops.
func (g LineGeom) shift() uint { return uint(bits.TrailingZeros64(uint64(g.LineBytes))) }

// Line returns the line number containing a.
func (g LineGeom) Line(a Addr) uint64 { return uint64(a) >> g.shift() }

// LineAddr returns the first byte address of the line containing a.
func (g LineGeom) LineAddr(a Addr) Addr {
	return a &^ Addr(g.LineBytes-1)
}

// InstPerLine returns how many instructions one line holds.
func (g LineGeom) InstPerLine() int { return g.LineBytes / InstBytes }

// InstsLeftInLine returns how many instructions, including the one at a,
// remain before the end of a's line.
func (g LineGeom) InstsLeftInLine(a Addr) int {
	off := int(uint64(a) & uint64(g.LineBytes-1))
	return (g.LineBytes - off) / InstBytes
}
