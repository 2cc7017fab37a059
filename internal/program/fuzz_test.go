package program

import (
	"bytes"
	"fmt"
	"math"
	"math/bits"
	"sort"
	"strings"
	"testing"

	"specfetch/internal/isa"
)

// FuzzReadImage feeds arbitrary text to the image parser: no panics, and
// any accepted image must round-trip identically.
func FuzzReadImage(f *testing.F) {
	var good bytes.Buffer
	img := buildSample(&testing.T{})
	if err := WriteImage(&good, img); err != nil {
		f.Fatal(err)
	}
	f.Add(good.String())
	f.Add("image v1 base 0x0\nplain 3\nret\n")
	f.Add("image v1 base 0x0\nfunc f 0x100\n")
	f.Add("garbage")
	f.Add("image v1 base 0x0\nplain 4000000000\n")                    // past the file bound
	f.Add("image v1 base 0x0\nplain 4194304\nret\n")                  // one past it
	f.Add("image v1 base 0xfffffffffffffff8\nplain 3\nret\n")         // end wraps past 2^64
	f.Add("image v1 base 0xfffffffffffffff8\nret\n")                  // ends just below it
	f.Add("image v1 base 0x0\nplain 1\nijmp 0x0\nkind(7)\n")          // target on indirect, unknown kind
	f.Add("image v1 base 0x1000\ncall 0x80001000\nplain 536870913\n") // 2^29 slots away, too many slots
	f.Fuzz(func(t *testing.T, in string) {
		img, err := ReadImage(strings.NewReader(in))
		if err != nil {
			return
		}
		if img.NumInsts() > maxFileInsts {
			t.Fatalf("accepted an image of %d instructions", img.NumInsts())
		}
		if img.NumInsts() > 0 && (img.End() <= img.Base() || !img.Contains(img.Base())) {
			t.Fatalf("accepted image [%s,%s) wraps", img.Base(), img.End())
		}
		var out bytes.Buffer
		if err := WriteImage(&out, img); err != nil {
			t.Fatalf("accepted image failed to serialize: %v", err)
		}
		img2, err := ReadImage(&out)
		if err != nil {
			t.Fatalf("serialized image failed to re-parse: %v", err)
		}
		if img2.NumInsts() != img.NumInsts() || img2.Base() != img.Base() {
			t.Fatalf("round trip changed shape: %d@%s vs %d@%s",
				img.NumInsts(), img.Base(), img2.NumInsts(), img2.Base())
		}
		for pc := img.Base(); pc < img.End(); pc = pc.Next() {
			if img.At(pc) != img2.At(pc) {
				t.Fatalf("round trip changed instruction at %s", pc)
			}
		}
	})
}

// refImage is the image representation before the packed form, kept here
// as the oracle for FuzzImageBuild: the appended []Inst, a plain-run table
// filled by a second pass, and Build's checks one instruction at a time.
type refImage struct {
	base     isa.Addr
	code     []Inst
	plainRun []int32
	funcs    []Func
}

func refBuild(base isa.Addr, code []Inst, funcs []Func) (*refImage, error) {
	n := len(code)
	if n > maxSlots {
		return nil, fmt.Errorf("program: image has %d instructions, more than %d", n, maxSlots)
	}
	hi, lo := bits.Mul64(uint64(n), isa.InstBytes)
	if _, carry := bits.Add64(lo, uint64(base), 0); hi != 0 || carry != 0 {
		return nil, fmt.Errorf("program: image of %d instructions at base %s wraps past the end of the address space", n, base)
	}
	img := &refImage{base: base, code: code, funcs: funcs}
	end := base.Plus(n)
	for i, in := range code {
		pc := base.Plus(i)
		switch in.Kind {
		case isa.CondBranch, isa.Jump, isa.Call:
			if uint64(in.Target)%isa.InstBytes != 0 {
				return nil, fmt.Errorf("program: instruction %s has misaligned target %s", pc, in.Target)
			}
			if in.Target < base || in.Target >= end {
				return nil, fmt.Errorf("program: instruction %s has target %s outside image [%s,%s)", pc, in.Target, base, end)
			}
		case isa.Plain, isa.Return, isa.IndirectJump, isa.IndirectCall:
			if in.Target != 0 {
				return nil, fmt.Errorf("program: instruction %s is %s with target %s; only direct transfers have one", pc, in.Kind, in.Target)
			}
		default:
			return nil, fmt.Errorf("program: instruction %s has unknown kind %s", pc, in.Kind)
		}
	}
	sort.Slice(img.funcs, func(i, j int) bool { return img.funcs[i].Entry < img.funcs[j].Entry })
	for i := range img.funcs {
		fend := end
		if i+1 < len(img.funcs) {
			fend = img.funcs[i+1].Entry
		}
		img.funcs[i].NumInsts = int(fend-img.funcs[i].Entry) / isa.InstBytes
	}
	img.plainRun = make([]int32, n)
	for i := n - 1; i >= 0; i-- {
		if code[i].Kind != isa.Plain {
			continue
		}
		run := int32(1)
		if i+1 < n {
			run += img.plainRun[i+1]
		}
		img.plainRun[i] = run
	}
	return img, nil
}

func panics(f func()) (p bool) {
	defer func() { p = recover() != nil }()
	f()
	return false
}

// FuzzImageBuild drives a Builder with arbitrary appends (plain runs of any
// length, any kind with targets inside, past, below, misaligned and far
// from the image, function marks) at bases up to the top of the address
// space. Build must fail exactly when refBuild does, with the same
// message, and otherwise agree with it at every slot and one slot past
// each end.
func FuzzImageBuild(f *testing.F) {
	f.Add(uint8(0), []byte{0, 12, 1, 1, 1, 3, 2, 3, 0, 2, 1, 4, 0})
	f.Add(uint8(1), []byte{0, 10, 3, 0, 3, 1, 17, 0, 9, 3, 2, 0})
	f.Add(uint8(2), []byte{1, 7, 0, 0, 1, 0, 5, 1, 0, 0, 20})
	f.Add(uint8(3), []byte{0, 255, 0, 255, 1, 4, 0, 0})
	f.Add(uint8(4), []byte{1, 1, 3, 2, 0, 9})
	f.Fuzz(func(t *testing.T, baseSel uint8, prog []byte) {
		bases := []isa.Addr{0, 0x1000, 0x10000, math.MaxUint64 - 0x3ff, math.MaxUint64 - 7}
		base := bases[int(baseSel)%len(bases)]
		pos := 0
		next := func() int {
			if pos >= len(prog) {
				return 0
			}
			pos++
			return int(prog[pos-1])
		}
		target := func(mode, v int) isa.Addr {
			switch mode % 6 {
			case 1:
				return base.Plus(v)
			case 2:
				return base.Plus(v) + isa.Addr(1+v%3)
			case 3:
				return base - isa.Addr(4*(v+1))
			case 4:
				return base.Plus(maxSlots + v)
			case 5:
				return isa.Addr(v * isa.InstBytes)
			}
			return 0
		}

		b, err := NewBuilder(base)
		if err != nil {
			t.Fatal(err)
		}
		var code []Inst
		var funcs []Func
		for pos < len(prog) {
			switch next() % 4 {
			case 0:
				n := next() - 8
				b.AppendPlain(n)
				for i := 0; i < n; i++ {
					code = append(code, Inst{Kind: isa.Plain})
				}
			case 1:
				in := Inst{Kind: isa.Kind(next() % 9)}
				in.Target = target(next(), next())
				b.Append(in)
				code = append(code, in)
			case 2:
				name := fmt.Sprintf("f%d", len(funcs))
				funcs = append(funcs, Func{Name: name, Entry: base.Plus(len(code))})
				b.MarkFunc(name)
			case 3:
				in := Inst{Kind: isa.CondBranch + isa.Kind(next()%3), Target: base.Plus(next())}
				b.Append(in)
				code = append(code, in)
			}
		}
		if b.PC() != base.Plus(len(code)) {
			t.Fatalf("PC %s after %d instructions from %s", b.PC(), len(code), base)
		}

		img, err := b.Build()
		ref, refErr := refBuild(base, code, funcs)
		if (err == nil) != (refErr == nil) || (err != nil && err.Error() != refErr.Error()) {
			t.Fatalf("Build error %v, reference %v", err, refErr)
		}
		if err != nil {
			return
		}
		if img.Base() != base || img.NumInsts() != len(code) || img.End() != base.Plus(len(code)) {
			t.Fatalf("shape %d@%s end %s, want %d@%s", img.NumInsts(), img.Base(), img.End(), len(code), base)
		}
		for i, in := range code {
			pc := base.Plus(i)
			got, run, ok := img.Slot(pc)
			if !ok || !img.Contains(pc) || got != in || img.At(pc) != in || run != int(ref.plainRun[i]) {
				t.Fatalf("slot %d (%s): Slot %+v run %d ok %v, Contains %v At %+v; want %+v run %d",
					i, pc, got, run, ok, img.Contains(pc), img.At(pc), in, ref.plainRun[i])
			}
			if _, _, ok := img.Slot(pc + 2); ok || img.Contains(pc+2) {
				t.Fatalf("misaligned %s is addressable", pc+2)
			}
		}
		for _, pc := range []isa.Addr{base - isa.InstBytes, img.End()} {
			in, run, ok := img.Slot(pc)
			if ok || in != (Inst{}) || run != 0 || img.Contains(pc) || !panics(func() { img.At(pc) }) {
				t.Fatalf("address %s one slot past the image [%s,%s) is addressable", pc, base, img.End())
			}
		}
		gf := img.Funcs()
		if len(gf) != len(ref.funcs) {
			t.Fatalf("%d funcs, want %d", len(gf), len(ref.funcs))
		}
		for i := range gf {
			if gf[i] != ref.funcs[i] {
				t.Fatalf("func %d: %+v, want %+v", i, gf[i], ref.funcs[i])
			}
		}
	})
}
