package synth

import (
	"errors"
	"fmt"
	"math/bits"

	"specfetch/internal/isa"
	"specfetch/internal/program"
	"specfetch/internal/xrand"
)

// condClass tags a conditional site's generation origin. The zero value
// means no class was set.
type condClass uint8

const (
	classBias condClass = iota + 1
	classPattern
	classHard
	classLoop
	classGuard
)

// String names the class for diagnostics.
func (c condClass) String() string {
	switch c {
	case classBias:
		return "bias"
	case classPattern:
		return "pattern"
	case classHard:
		return "hard"
	case classLoop:
		return "loop"
	case classGuard:
		return "guard"
	}
	return ""
}

// condMeta is the dynamic behaviour of one conditional-branch site. It
// holds no pointers and takes 16 bytes.
type condMeta struct {
	// takenP is the per-execution probability the branch is taken, used
	// when patLen is 0.
	takenP float64
	// guard is a driver guard's call-site index, for phased execution.
	guard int32
	class condClass
	// patLen, when non-zero, is the length of a deterministic periodic
	// outcome sequence the site cycles through (history-predictable
	// behaviour); bit i of pat is outcome i.
	patLen uint8
	pat    uint8
}

// indirectMeta is the dynamic behaviour of one indirect-transfer site.
type indirectMeta struct {
	targets []isa.Addr
	zipf    *xrand.Zipf
}

// siteList collects a benchmark's sites, in ascending address order, as
// its image is emitted.
type siteList struct {
	condPCs  []isa.Addr
	conds    []condMeta
	indirPCs []isa.Addr
	indirs   []indirectMeta
}

func (l *siteList) cond(pc isa.Addr, m condMeta) {
	l.condPCs = append(l.condPCs, pc)
	l.conds = append(l.conds, m)
}

func (l *siteList) indirect(pc isa.Addr, m indirectMeta) {
	l.indirPCs = append(l.indirPCs, pc)
	l.indirs = append(l.indirs, m)
}

// errSiteMismatch reports sites that are not exactly the image's
// conditional and indirect slots.
var errSiteMismatch = errors.New("synth: sites do not match the image's conditional and indirect slots")

// newBench assembles a benchmark from its image and sites. It checks that
// the sites are exactly the image's conditional and indirect slots, so the
// walker finds metadata for every such slot it reaches.
func newBench(p Profile, img *program.Image, entry, loopStart isa.Addr, l *siteList) (*Bench, error) {
	condAt, err := newSiteIndex(img.Base(), img.NumInsts(), l.condPCs)
	if err != nil {
		return nil, err
	}
	indirAt, err := newSiteIndex(img.Base(), img.NumInsts(), l.indirPCs)
	if err != nil {
		return nil, err
	}
	// The sites are distinct instruction addresses of the image, so if every
	// conditional and indirect slot has one and the counts agree, they are
	// exactly those slots.
	nCond, nIndir := 0, 0
	for pc := img.Base(); pc < img.End(); {
		in, run, _ := img.Slot(pc)
		if run > 0 {
			pc = pc.Plus(run)
			continue
		}
		switch in.Kind {
		case isa.CondBranch:
			if condAt.index(pc) < 0 {
				return nil, errSiteMismatch
			}
			nCond++
		case isa.IndirectJump, isa.IndirectCall:
			if indirAt.index(pc) < 0 {
				return nil, errSiteMismatch
			}
			nIndir++
		default:
		}
		pc = pc.Next()
	}
	if nCond != len(l.condPCs) || nIndir != len(l.indirPCs) {
		return nil, errSiteMismatch
	}
	return &Bench{
		profile: p, img: img, entry: entry, loopStart: loopStart,
		conds:  l.conds,
		indirs: l.indirs,
		condAt: condAt, indirAt: indirAt,
	}, nil
}

// siteIndex maps an instruction address to its site's table index: bit s
// of set marks a site at slot s, and rank[w] counts the sites in the
// words before w, so a lookup is two loads and one popcount. It takes 1.5
// bits per slot.
type siteIndex struct {
	base isa.Addr
	set  []uint64
	rank []uint32
}

// newSiteIndex indexes the sites at pcs, which must be instruction
// addresses inside the n-slot image at base, in strictly ascending order.
func newSiteIndex(base isa.Addr, n int, pcs []isa.Addr) (siteIndex, error) {
	words := (n + 63) / 64
	x := siteIndex{base: base, set: make([]uint64, words), rank: make([]uint32, words)}
	for i, pc := range pcs {
		off := uint64(pc - base)
		if pc < base || off%isa.InstBytes != 0 || off/isa.InstBytes >= uint64(n) {
			return siteIndex{}, fmt.Errorf("synth: site %s is not an instruction of the image [%s,%s)", pc, base, base.Plus(n))
		}
		if i > 0 && pc <= pcs[i-1] {
			return siteIndex{}, fmt.Errorf("synth: site %s follows site %s; sites must be in ascending address order", pc, pcs[i-1])
		}
		s := off / isa.InstBytes
		x.set[s/64] |= 1 << (s % 64)
	}
	count := uint32(0)
	for w, m := range x.set {
		x.rank[w] = count
		count += uint32(bits.OnesCount64(m))
	}
	return x, nil
}

// index returns the table index of the site at a, or -1 when a holds none.
func (x *siteIndex) index(a isa.Addr) int {
	off := uint64(a - x.base) // wraps past every slot when a < base
	s := off / isa.InstBytes
	w := s / 64
	if off%isa.InstBytes != 0 || w >= uint64(len(x.set)) {
		return -1
	}
	m, bit := x.set[w], uint64(1)<<(s%64)
	if m&bit == 0 {
		return -1
	}
	return int(x.rank[w]) + bits.OnesCount64(m&(bit-1))
}
