package synth

import (
	"math"
	"strings"
	"testing"

	"specfetch/internal/isa"
	"specfetch/internal/program"
)

// FuzzSiteIndex checks index against a map from each site's address to its
// rank, at the sites, around them, off the image, misaligned and past its
// end.
func FuzzSiteIndex(f *testing.F) {
	f.Add(uint64(0x10000), uint16(100), []byte{0, 3, 7, 1, 60, 200}, uint64(0x10010))
	f.Add(uint64(0), uint16(64), []byte{62, 0}, uint64(0xfc))
	f.Add(uint64(math.MaxUint64), uint16(129), []byte{63, 63, 0, 0}, uint64(3))
	f.Add(uint64(0x40), uint16(0), []byte{}, uint64(0x40))
	f.Fuzz(func(t *testing.T, base uint64, n uint16, gaps []byte, probe uint64) {
		// Like a program.Image, the n slots at base must not wrap past 2^64.
		size := uint64(n) * isa.InstBytes
		if base > math.MaxUint64-size {
			base -= size
		}
		base &^= isa.InstBytes - 1
		b := isa.Addr(base)

		var pcs []isa.Addr
		want := map[isa.Addr]int{}
		for slot, i := -1, 0; i < len(gaps); i++ {
			if slot += 1 + int(gaps[i]); slot >= int(n) {
				break
			}
			want[b.Plus(slot)] = len(pcs)
			pcs = append(pcs, b.Plus(slot))
		}
		x, err := newSiteIndex(b, int(n), pcs)
		if err != nil {
			t.Fatalf("sites %v in %d slots at %s: %v", pcs, n, b, err)
		}

		end := b.Plus(int(n))
		probes := []isa.Addr{0, isa.Addr(probe), b + isa.Addr(probe)*isa.InstBytes, b.Plus(-1), b, b + 2,
			end.Plus(-1), end, end.Plus(1), end.Plus(64), isa.Addr(math.MaxUint64 &^ 3)}
		for _, pc := range pcs {
			probes = append(probes, pc.Plus(-1), pc, pc+1, pc+2, pc.Plus(1))
		}
		for _, a := range probes {
			wi, ok := want[a]
			if !ok {
				wi = -1
			}
			if got := x.index(a); got != wi {
				t.Fatalf("index(%s) = %d, want %d (sites %v in %d slots at %s)", a, got, wi, pcs, n, b)
			}
		}
	})
}

// TestNewBenchChecksSites: the sites handed to newBench must be exactly the
// image's conditional and indirect slots.
func TestNewBenchChecksSites(t *testing.T) {
	b, err := program.NewBuilder(0x100)
	if err != nil {
		t.Fatal(err)
	}
	b.MarkFunc("f")
	p0 := b.Append(program.Inst{Kind: isa.Plain})
	c1 := b.Append(program.Inst{Kind: isa.CondBranch, Target: 0x100})
	c2 := b.Append(program.Inst{Kind: isa.CondBranch, Target: 0x100})
	ij := b.Append(program.Inst{Kind: isa.IndirectJump})
	img, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	ind := indirectMeta{targets: []isa.Addr{0x100}}
	sites := func(conds []isa.Addr, indirs []isa.Addr) *siteList {
		var l siteList
		for _, pc := range conds {
			l.cond(pc, condMeta{takenP: 0.5})
		}
		for _, pc := range indirs {
			l.indirect(pc, ind)
		}
		return &l
	}
	if _, err := newBench(kernelProfile("sites"), img, p0, p0, sites([]isa.Addr{c1, c2}, []isa.Addr{ij})); err != nil {
		t.Fatalf("matching sites rejected: %v", err)
	}
	for _, c := range []struct {
		name          string
		conds, indirs []isa.Addr
		want          string
	}{
		{"out of order", []isa.Addr{c2, c1}, []isa.Addr{ij}, "ascending"},
		{"duplicate", []isa.Addr{c1, c1, c2}, []isa.Addr{ij}, "ascending"},
		{"off the image", []isa.Addr{c1, c2, img.End()}, []isa.Addr{ij}, "not an instruction"},
		{"below the image", []isa.Addr{img.Base() - isa.InstBytes, c1, c2}, []isa.Addr{ij}, "not an instruction"},
		{"misaligned", []isa.Addr{c1, c1 + 2, c2}, []isa.Addr{ij}, "not an instruction"},
		{"conditional without a site", []isa.Addr{c1}, []isa.Addr{ij}, errSiteMismatch.Error()},
		{"indirect without a site", []isa.Addr{c1, c2}, nil, errSiteMismatch.Error()},
		{"site on a plain slot", []isa.Addr{p0, c1, c2}, []isa.Addr{ij}, errSiteMismatch.Error()},
		{"indirect site on a conditional", []isa.Addr{c1, c2}, []isa.Addr{c2, ij}, errSiteMismatch.Error()},
	} {
		_, err := newBench(kernelProfile("sites"), img, p0, p0, sites(c.conds, c.indirs))
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: newBench = %v, want an error containing %q", c.name, err, c.want)
		}
	}
}
