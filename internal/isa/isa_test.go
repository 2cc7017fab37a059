package isa

import (
	"testing"
	"testing/quick"
)

func TestKindClassification(t *testing.T) {
	cases := []struct {
		k                                 Kind
		branch, cond, uncond, indir, call bool
	}{
		{Plain, false, false, false, false, false},
		{CondBranch, true, true, false, false, false},
		{Jump, true, false, true, false, false},
		{Call, true, false, true, false, true},
		{Return, true, false, true, true, false},
		{IndirectJump, true, false, true, true, false},
		{IndirectCall, true, false, true, true, true},
	}
	for _, c := range cases {
		if got := c.k.IsBranch(); got != c.branch {
			t.Errorf("%s.IsBranch() = %v, want %v", c.k, got, c.branch)
		}
		if got := c.k.IsConditional(); got != c.cond {
			t.Errorf("%s.IsConditional() = %v, want %v", c.k, got, c.cond)
		}
		if got := c.k.IsUnconditional(); got != c.uncond {
			t.Errorf("%s.IsUnconditional() = %v, want %v", c.k, got, c.uncond)
		}
		if got := c.k.IsIndirect(); got != c.indir {
			t.Errorf("%s.IsIndirect() = %v, want %v", c.k, got, c.indir)
		}
		if got := c.k.IsCall(); got != c.call {
			t.Errorf("%s.IsCall() = %v, want %v", c.k, got, c.call)
		}
	}
}

func TestKindStringRoundTrip(t *testing.T) {
	for k := Plain; k < numKinds; k++ {
		got, ok := ParseKind(k.String())
		if !ok || got != k {
			t.Errorf("ParseKind(%q) = %v, %v; want %v, true", k.String(), got, ok, k)
		}
	}
	if _, ok := ParseKind("bogus"); ok {
		t.Error("ParseKind accepted bogus name")
	}
}

func TestAddrArithmetic(t *testing.T) {
	a := Addr(0x1000)
	if a.Next() != 0x1004 {
		t.Errorf("Next = %s", a.Next())
	}
	if a.Plus(3) != 0x100c {
		t.Errorf("Plus(3) = %s", a.Plus(3))
	}
	if s := a.String(); s != "0x1000" {
		t.Errorf("String = %q", s)
	}
}

func TestNewLineGeomValidation(t *testing.T) {
	for _, sz := range []int{0, -32, 3, 6, 1 << 1} {
		if _, err := NewLineGeom(sz); err == nil {
			t.Errorf("NewLineGeom(%d) accepted", sz)
		}
	}
	for _, sz := range []int{4, 8, 16, 32, 64, 128} {
		if _, err := NewLineGeom(sz); err != nil {
			t.Errorf("NewLineGeom(%d): %v", sz, err)
		}
	}
}

func TestLineGeometry(t *testing.T) {
	g := MustLineGeom(32)
	if g.InstPerLine() != 8 {
		t.Errorf("InstPerLine = %d", g.InstPerLine())
	}
	if g.Line(0x1000) != 0x80 {
		t.Errorf("Line(0x1000) = %d", g.Line(0x1000))
	}
	if g.LineAddr(0x101c) != 0x1000 {
		t.Errorf("LineAddr = %s", g.LineAddr(0x101c))
	}
	if g.InstsLeftInLine(0x1000) != 8 {
		t.Errorf("InstsLeftInLine(start) = %d", g.InstsLeftInLine(0x1000))
	}
	if g.InstsLeftInLine(0x101c) != 1 {
		t.Errorf("InstsLeftInLine(last) = %d", g.InstsLeftInLine(0x101c))
	}
}

// TestLineGeomProperties checks structural invariants over random addresses.
func TestLineGeomProperties(t *testing.T) {
	g := MustLineGeom(32)
	prop := func(raw uint32) bool {
		a := Addr(raw &^ 3) // aligned
		la := g.LineAddr(a)
		return la <= a &&
			uint64(a)-uint64(la) < uint64(g.LineBytes) &&
			g.Line(la) == g.Line(a) &&
			g.InstsLeftInLine(a) >= 1 &&
			g.InstsLeftInLine(a) <= g.InstPerLine()
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}
