// Package program models a static instruction image: every instruction in
// the simulated binary, addressable by byte address. The speculative fetch
// engine walks this image when it runs down a wrong path, because the
// dynamic trace only covers the correct path.
package program

import (
	"fmt"
	"math"
	"sort"

	"specfetch/internal/isa"
)

// Inst describes one static instruction.
type Inst struct {
	// Kind classifies the instruction for the branch architecture.
	Kind isa.Kind
	// Target is the statically-known destination for direct control
	// transfers (CondBranch, Jump, Call). It is zero for Plain and for
	// indirect transfers, whose destinations are only known dynamically;
	// Build rejects a non-zero Target there.
	Target isa.Addr
}

// Image is an immutable static code image. Addresses run from Base to
// End = Base + 4*NumInsts; every slot holds an instruction.
//
// Each slot is stored as one 32-bit word: the kind in the low kindBits
// bits and a payload above it.
//   - Plain: the length of the run of consecutive Plain instructions that
//     starts at the slot, minus one. Trace generators and the wrong-path
//     fetch use it to consume whole basic-block prefixes at once.
//   - CondBranch, Jump, Call: the target's slot index, so the target is
//     Base + 4*index.
//   - Return, IndirectJump, IndirectCall: 0.
//
// The payload has 32-kindBits bits, so an image holds at most maxSlots
// (2^29) instructions, and Build also rejects an image whose end would
// wrap past 2^64. The 13 stock profiles' images take 1.3 MB.
type Image struct {
	base  isa.Addr
	words []uint32
	// funcs records function entry addresses, sorted, for tooling.
	funcs []Func
}

const (
	kindBits = 3
	kindMask = 1<<kindBits - 1
	maxSlots = 1 << (32 - kindBits)
)

// direct reports whether k carries a static target. CondBranch, Jump and
// Call are consecutive kinds, so one unsigned compare decides it, and At
// can select the target without a branch.
func direct(k isa.Kind) bool {
	return k-isa.CondBranch <= isa.Call-isa.CondBranch
}

// Func names a function's extent inside the image.
type Func struct {
	Name  string
	Entry isa.Addr
	// NumInsts is the function length in instructions.
	NumInsts int
}

// Builder accumulates instructions for an Image, staged in the packed word
// form (plain runs are filled in by Build).
type Builder struct {
	base  isa.Addr
	words []uint32
	// over counts instructions appended past maxSlots. They are not
	// stored, so an oversized image costs no memory; Build rejects it.
	over int
	// bad lists, in address order, the appended instructions a word cannot
	// hold: an unknown kind, a Target on a kind that has none, or a direct
	// target that is misaligned, below the base or maxSlots or more slots
	// away. Build reports the first bad instruction.
	bad   []badInst
	funcs []Func
}

type badInst struct {
	slot int
	in   Inst
}

// NewBuilder starts an image at the given base address. The base must be
// instruction aligned.
func NewBuilder(base isa.Addr) (*Builder, error) {
	if uint64(base)%isa.InstBytes != 0 {
		return nil, fmt.Errorf("program: base %s is not %d-byte aligned", base, isa.InstBytes)
	}
	return &Builder{base: base}, nil
}

// n returns the number of instructions appended so far.
func (b *Builder) n() int { return len(b.words) + b.over }

// PC returns the address the next appended instruction will occupy.
func (b *Builder) PC() isa.Addr { return b.base.Plus(b.n()) }

// Append adds one instruction and returns its address.
func (b *Builder) Append(in Inst) isa.Addr {
	pc := b.PC()
	slot := b.n()
	if slot >= maxSlots {
		b.over++
		return pc
	}
	w, ok := b.encode(in)
	if !ok {
		b.bad = append(b.bad, badInst{slot, in})
	}
	b.words = append(b.words, w)
	return pc
}

// encode packs in as a staged word. It reports false for an instruction
// the word cannot hold; the word is then a placeholder.
func (b *Builder) encode(in Inst) (uint32, bool) {
	switch in.Kind {
	case isa.CondBranch, isa.Jump, isa.Call:
		off := uint64(in.Target) - uint64(b.base)
		if in.Target < b.base || off%isa.InstBytes != 0 || off/isa.InstBytes >= maxSlots {
			return uint32(in.Kind), false
		}
		return uint32(off/isa.InstBytes)<<kindBits | uint32(in.Kind), true
	case isa.Plain, isa.Return, isa.IndirectJump, isa.IndirectCall:
		return uint32(in.Kind), in.Target == 0
	}
	return 0, false
}

// AppendPlain adds n plain instructions.
func (b *Builder) AppendPlain(n int) {
	if n <= 0 {
		return
	}
	if n > maxSlots-b.n() {
		b.over += n
		return
	}
	b.words = append(b.words, make([]uint32, n)...)
}

// MarkFunc records a function entry at the current PC.
func (b *Builder) MarkFunc(name string) {
	b.funcs = append(b.funcs, Func{Name: name, Entry: b.PC()})
}

// Build finalizes the image. Function lengths are derived from the next
// function's entry (or the image end). It rejects an image of more than
// maxSlots instructions or whose end wraps past 2^64, and reports the first
// instruction, in address order, with an unknown kind, a Target on a kind
// that has none, or a direct target that is misaligned or outside the
// image.
func (b *Builder) Build() (*Image, error) {
	n := b.n()
	if n > maxSlots {
		return nil, fmt.Errorf("program: image has %d instructions, more than %d", n, maxSlots)
	}
	if uint64(n) > (math.MaxUint64-uint64(b.base))/isa.InstBytes {
		return nil, fmt.Errorf("program: image of %d instructions at base %s wraps past the end of the address space", n, b.base)
	}
	img := &Image{base: b.base, words: make([]uint32, n), funcs: b.funcs}
	// One backward pass fills in the plain runs (each word holds its run's
	// length minus one) and finds the lowest direct target past the end.
	firstOut := n
	run := uint32(0)
	for i := n - 1; i >= 0; i-- {
		w := b.words[i]
		if k := isa.Kind(w & kindMask); k == isa.Plain {
			w = run << kindBits
			run++
		} else {
			run = 0
			if direct(k) && int(w>>kindBits) >= n {
				firstOut = i
			}
		}
		img.words[i] = w
	}
	if len(b.bad) > 0 && b.bad[0].slot < firstOut {
		return nil, img.badInst(b.bad[0].slot, b.bad[0].in)
	}
	if firstOut < n {
		return nil, img.badInst(firstOut, img.At(img.base.Plus(firstOut)))
	}
	sort.Slice(img.funcs, func(i, j int) bool { return img.funcs[i].Entry < img.funcs[j].Entry })
	for i := range img.funcs {
		end := img.End()
		if i+1 < len(img.funcs) {
			end = img.funcs[i+1].Entry
		}
		img.funcs[i].NumInsts = int(end-img.funcs[i].Entry) / isa.InstBytes
	}
	return img, nil
}

// badInst describes why in, at the given slot, cannot be in the image.
func (img *Image) badInst(slot int, in Inst) error {
	pc := img.base.Plus(slot)
	switch {
	case in.Kind > isa.IndirectCall:
		return fmt.Errorf("program: instruction %s has unknown kind %s", pc, in.Kind)
	case !direct(in.Kind):
		return fmt.Errorf("program: instruction %s is %s with target %s; only direct transfers have one", pc, in.Kind, in.Target)
	case uint64(in.Target)%isa.InstBytes != 0:
		return fmt.Errorf("program: instruction %s has misaligned target %s", pc, in.Target)
	}
	return fmt.Errorf("program: instruction %s has target %s outside image [%s,%s)", pc, in.Target, img.base, img.End())
}

// Base returns the lowest instruction address.
func (img *Image) Base() isa.Addr { return img.base }

// End returns the first address past the image.
func (img *Image) End() isa.Addr { return img.base.Plus(len(img.words)) }

// NumInsts returns the static instruction count.
func (img *Image) NumInsts() int { return len(img.words) }

// SizeBytes returns the code footprint in bytes.
func (img *Image) SizeBytes() int { return len(img.words) * isa.InstBytes }

// Contains reports whether a is a valid instruction address in the image.
func (img *Image) Contains(a isa.Addr) bool {
	return a >= img.base && a < img.End() && uint64(a)%isa.InstBytes == 0
}

// At returns the instruction at address a. It panics if a is outside the
// image; callers on speculative paths should check Contains first. At is
// too large to inline (the compiler costs it above its budget of 80), so
// each call is one function call; the panic construction lives in a
// separate function to keep that call cheap.
func (img *Image) At(a isa.Addr) Inst {
	if !img.Contains(a) {
		img.atPanic(a)
	}
	w := img.words[(a-img.base)/isa.InstBytes]
	// The target is computed unconditionally and then cleared, which
	// compiles to a conditional move instead of a branch on the kind.
	k := isa.Kind(w & kindMask)
	t := img.base + isa.Addr(w>>kindBits)*isa.InstBytes
	if !direct(k) {
		t = 0
	}
	return Inst{Kind: k, Target: t}
}

// PlainRunLen returns the number of consecutive Plain instructions starting
// at address a (0 when a holds a control transfer). a must be inside the
// image.
func (img *Image) PlainRunLen(a isa.Addr) int {
	if !img.Contains(a) {
		img.atPanic(a)
	}
	w := img.words[(a-img.base)/isa.InstBytes]
	run := int(w>>kindBits) + 1 // cleared below without a branch, as in At
	if w&kindMask != uint32(isa.Plain) {
		run = 0
	}
	return run
}

func (img *Image) atPanic(a isa.Addr) {
	panic(fmt.Sprintf("program: address %s outside image [%s,%s)", a, img.base, img.End()))
}

// Funcs returns the recorded functions, sorted by entry address.
func (img *Image) Funcs() []Func { return img.funcs }

// FuncAt returns the function containing address a, if any.
func (img *Image) FuncAt(a isa.Addr) (Func, bool) {
	i := sort.Search(len(img.funcs), func(i int) bool { return img.funcs[i].Entry > a })
	if i == 0 {
		return Func{}, false
	}
	f := img.funcs[i-1]
	if a >= f.Entry && a < f.Entry.Plus(f.NumInsts) {
		return f, true
	}
	return Func{}, false
}

// Stats summarizes the static mix of the image.
type Stats struct {
	Insts       int
	Branches    int
	Conditional int
	Indirect    int
	Calls       int
	Returns     int
}

// Stats computes the static instruction mix.
func (img *Image) Stats() Stats {
	var s Stats
	s.Insts = len(img.words)
	for _, w := range img.words {
		k := isa.Kind(w & kindMask)
		if !k.IsBranch() {
			continue
		}
		s.Branches++
		switch {
		case k.IsConditional():
			s.Conditional++
		case k.IsIndirect():
			s.Indirect++
		}
		if k.IsCall() {
			s.Calls++
		}
		if k == isa.Return {
			s.Returns++
		}
	}
	return s
}
