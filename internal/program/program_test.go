package program

import (
	"runtime"
	"strings"
	"testing"
	"unsafe"

	"specfetch/internal/isa"
)

func TestBuilderBasics(t *testing.T) {
	b, err := NewBuilder(0x1000)
	if err != nil {
		t.Fatal(err)
	}
	if b.PC() != 0x1000 {
		t.Fatalf("initial PC = %s", b.PC())
	}
	b.MarkFunc("f")
	b.AppendPlain(3)
	pc := b.Append(Inst{Kind: isa.CondBranch, Target: 0x1000})
	if pc != 0x100c {
		t.Fatalf("branch PC = %s", pc)
	}
	b.MarkFunc("g")
	b.AppendPlain(2)
	b.Append(Inst{Kind: isa.Return})

	img, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if img.Base() != 0x1000 || img.NumInsts() != 7 {
		t.Fatalf("base %s insts %d", img.Base(), img.NumInsts())
	}
	if img.SizeBytes() != 28 {
		t.Fatalf("size %d", img.SizeBytes())
	}
	if img.End() != 0x101c {
		t.Fatalf("end %s", img.End())
	}
}

func TestBuilderMisalignedBase(t *testing.T) {
	if _, err := NewBuilder(0x1001); err == nil {
		t.Error("misaligned base accepted")
	}
}

func TestBuildRejectsBadTargets(t *testing.T) {
	b, _ := NewBuilder(0)
	b.AppendPlain(2)
	b.Append(Inst{Kind: isa.Jump, Target: 0x8000}) // outside image
	if _, err := b.Build(); err == nil || !strings.Contains(err.Error(), "outside image") {
		t.Errorf("out-of-image target not rejected: %v", err)
	}

	b2, _ := NewBuilder(0)
	b2.AppendPlain(2)
	b2.Append(Inst{Kind: isa.Jump, Target: 0x2}) // misaligned
	if _, err := b2.Build(); err == nil || !strings.Contains(err.Error(), "misaligned") {
		t.Errorf("misaligned target not rejected: %v", err)
	}
}

func TestContainsAndAt(t *testing.T) {
	b, _ := NewBuilder(0x100)
	b.AppendPlain(1)
	b.Append(Inst{Kind: isa.Call, Target: 0x100})
	img, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}

	if img.Contains(0xfc) || img.Contains(0x108) || img.Contains(0x102) {
		t.Error("Contains accepts out-of-image or misaligned addresses")
	}
	if !img.Contains(0x100) || !img.Contains(0x104) {
		t.Error("Contains rejects valid addresses")
	}
	if img.At(0x104).Kind != isa.Call {
		t.Errorf("At(0x104) = %v", img.At(0x104))
	}
	defer func() {
		if recover() == nil {
			t.Error("At outside image did not panic")
		}
	}()
	img.At(0x108)
}

func TestFuncAt(t *testing.T) {
	b, _ := NewBuilder(0)
	b.MarkFunc("a")
	b.AppendPlain(4)
	b.MarkFunc("b")
	b.AppendPlain(4)
	img, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}

	fs := img.Funcs()
	if len(fs) != 2 || fs[0].Name != "a" || fs[1].Name != "b" {
		t.Fatalf("funcs = %+v", fs)
	}
	if fs[0].NumInsts != 4 || fs[1].NumInsts != 4 {
		t.Fatalf("func lengths = %d, %d", fs[0].NumInsts, fs[1].NumInsts)
	}
	f, ok := img.FuncAt(0x8)
	if !ok || f.Name != "a" {
		t.Errorf("FuncAt(0x8) = %+v, %v", f, ok)
	}
	f, ok = img.FuncAt(0x10)
	if !ok || f.Name != "b" {
		t.Errorf("FuncAt(0x10) = %+v, %v", f, ok)
	}
}

func TestStats(t *testing.T) {
	b, _ := NewBuilder(0)
	b.AppendPlain(10)
	b.Append(Inst{Kind: isa.CondBranch, Target: 0})
	b.Append(Inst{Kind: isa.Call, Target: 0})
	b.Append(Inst{Kind: isa.IndirectCall})
	b.Append(Inst{Kind: isa.Return})
	b.Append(Inst{Kind: isa.Jump, Target: 0})
	img, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	s := img.Stats()
	want := Stats{Insts: 15, Branches: 5, Conditional: 1, Indirect: 2, Calls: 2, Returns: 1}
	if s != want {
		t.Errorf("stats = %+v, want %+v", s, want)
	}
}

// TestBuildRejectsBadInsts: Build refuses what a packed word cannot hold
// and the Inst contract forbids: unknown kinds, and a Target on a kind
// that has none.
func TestBuildRejectsBadInsts(t *testing.T) {
	cases := []struct {
		in   Inst
		want string
	}{
		{Inst{Kind: isa.Kind(7)}, "instruction 0x4 has unknown kind kind(7)"},
		{Inst{Kind: isa.Kind(200), Target: 0x4}, "instruction 0x4 has unknown kind kind(200)"},
		{Inst{Kind: isa.Plain, Target: 0x4}, "instruction 0x4 is plain with target 0x4"},
		{Inst{Kind: isa.Return, Target: 0x4}, "instruction 0x4 is ret with target 0x4"},
		{Inst{Kind: isa.IndirectJump, Target: 0x8}, "instruction 0x4 is ijmp with target 0x8"},
		{Inst{Kind: isa.IndirectCall, Target: 0x4}, "instruction 0x4 is icall with target 0x4"},
	}
	for _, c := range cases {
		b, _ := NewBuilder(0)
		b.AppendPlain(1)
		b.Append(c.in)
		b.AppendPlain(1)
		if _, err := b.Build(); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%+v: err = %v, want %q", c.in, err, c.want)
		}
	}
}

// TestDirectKinds: direct's range compare relies on CondBranch, Jump and
// Call being consecutive kinds.
func TestDirectKinds(t *testing.T) {
	for k := 0; k < 256; k++ {
		kind := isa.Kind(k)
		want := kind == isa.CondBranch || kind == isa.Jump || kind == isa.Call
		if direct(kind) != want {
			t.Errorf("direct(%s) = %v, want %v", kind, !want, want)
		}
	}
}

// TestBuildReportsFirstBadTarget: targets a word cannot hold (below the
// base, or maxSlots or more slots away) and targets past the image end are
// reported in address order, with the image bounds.
func TestBuildReportsFirstBadTarget(t *testing.T) {
	const far = 0x1000 + 4*maxSlots
	cases := []struct {
		first, second isa.Addr
		want          string
	}{
		{0x0, 0x2000, "instruction 0x1004 has target 0x0 outside image [0x1000,0x1010)"},
		{0x2000, 0x0, "instruction 0x1004 has target 0x2000 outside image [0x1000,0x1010)"},
		{far, 0x2000, "instruction 0x1004 has target 0x80001000 outside image [0x1000,0x1010)"},
		{0x1010, 0x1001, "instruction 0x1004 has target 0x1010 outside image [0x1000,0x1010)"},
		{0x1006, 0x2000, "instruction 0x1004 has misaligned target 0x1006"},
	}
	for _, c := range cases {
		b, _ := NewBuilder(0x1000)
		b.AppendPlain(1)
		b.Append(Inst{Kind: isa.Jump, Target: c.first})
		b.Append(Inst{Kind: isa.CondBranch, Target: c.second})
		b.Append(Inst{Kind: isa.Return})
		if _, err := b.Build(); err == nil || err.Error() != "program: "+c.want {
			t.Errorf("targets %s, %s: err = %v, want %q", c.first, c.second, err, c.want)
		}
	}
}

// TestBuildRejectsTooManySlots: past maxSlots instructions the builder
// stores nothing more (so the test costs no memory), keeps counting PCs,
// and Build rejects the image.
func TestBuildRejectsTooManySlots(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b, _ := NewBuilder(0x1000)
	b.AppendPlain(10)
	b.AppendPlain(maxSlots)
	pc := b.Append(Inst{Kind: isa.Return})
	_, err := b.Build()
	runtime.ReadMemStats(&after)
	if want := isa.Addr(0x1000).Plus(10 + maxSlots); pc != want {
		t.Errorf("PC past the bound = %s, want %s", pc, want)
	}
	if err == nil || !strings.Contains(err.Error(), "more than 536870912") {
		t.Errorf("oversized image: err = %v", err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20 {
		t.Errorf("oversized builder allocated %d bytes", got)
	}
}

// TestPackedBoundaries covers the edges of the packed form: targets at the
// first and last slot, a plain run that ends the image, and one-instruction
// images.
func TestPackedBoundaries(t *testing.T) {
	b, _ := NewBuilder(0x40)
	b.Append(Inst{Kind: isa.Jump, Target: 0x58})
	b.AppendPlain(2)
	b.Append(Inst{Kind: isa.Call, Target: 0x40})
	b.AppendPlain(3)
	img, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if got := img.At(0x40); got != (Inst{Kind: isa.Jump, Target: 0x58}) {
		t.Errorf("At(first) = %+v", got)
	}
	if got := img.At(0x4c); got != (Inst{Kind: isa.Call, Target: 0x40}) {
		t.Errorf("At(0x4c) = %+v", got)
	}
	for a, want := range map[isa.Addr]int{0x40: 0, 0x44: 2, 0x48: 1, 0x4c: 0, 0x50: 3, 0x54: 2, 0x58: 1} {
		if got := img.PlainRunLen(a); got != want {
			t.Errorf("PlainRunLen(%s) = %d, want %d", a, got, want)
		}
	}
	if got := img.At(0x58); got != (Inst{Kind: isa.Plain}) {
		t.Errorf("At(last) = %+v", got)
	}

	for _, in := range []Inst{{Kind: isa.Plain}, {Kind: isa.Return}, {Kind: isa.Jump, Target: 0x40}} {
		b, _ := NewBuilder(0x40)
		b.Append(in)
		img, err := b.Build()
		if err != nil {
			t.Fatalf("one-instruction image %+v: %v", in, err)
		}
		if img.NumInsts() != 1 || img.End() != 0x44 || img.At(0x40) != in {
			t.Errorf("one-instruction image %+v: %d insts, end %s, At %+v", in, img.NumInsts(), img.End(), img.At(0x40))
		}
		wantRun := 0
		if in.Kind == isa.Plain {
			wantRun = 1
		}
		if got := img.PlainRunLen(0x40); got != wantRun {
			t.Errorf("one-instruction image %+v: PlainRunLen = %d", in, got)
		}
	}
}

// TestImageWordsExact: an image keeps exactly one 4-byte word per
// instruction, with no spare capacity from staging.
func TestImageWordsExact(t *testing.T) {
	b, _ := NewBuilder(0x10000)
	for i := 0; i < 1000; i++ {
		b.AppendPlain(i % 7)
		b.Append(Inst{Kind: isa.CondBranch, Target: 0x10000})
	}
	img, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if len(img.words) != img.NumInsts() || cap(img.words) != len(img.words) {
		t.Errorf("words len %d cap %d, want %d", len(img.words), cap(img.words), img.NumInsts())
	}
	if sz := unsafe.Sizeof(img.words[0]); sz != 4 {
		t.Errorf("word size %d bytes, want 4", sz)
	}
}
