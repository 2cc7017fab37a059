package program

import (
	"bytes"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"specfetch/internal/isa"
)

func buildSample(t *testing.T) *Image {
	t.Helper()
	b, _ := NewBuilder(0x1000)
	b.MarkFunc("alpha")
	b.AppendPlain(5)
	b.Append(Inst{Kind: isa.CondBranch, Target: 0x1000})
	b.Append(Inst{Kind: isa.Call, Target: 0x1020})
	b.Append(Inst{Kind: isa.Return})
	b.MarkFunc("beta")
	b.AppendPlain(2)
	b.Append(Inst{Kind: isa.IndirectCall})
	b.Append(Inst{Kind: isa.Jump, Target: 0x1000})
	img, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return img
}

func TestImageRoundTrip(t *testing.T) {
	img := buildSample(t)
	var buf bytes.Buffer
	if err := WriteImage(&buf, img); err != nil {
		t.Fatal(err)
	}
	got, err := ReadImage(&buf)
	if err != nil {
		t.Fatalf("read: %v\n", err)
	}
	if got.Base() != img.Base() || got.NumInsts() != img.NumInsts() {
		t.Fatalf("shape: base %s insts %d, want %s %d",
			got.Base(), got.NumInsts(), img.Base(), img.NumInsts())
	}
	for pc := img.Base(); pc < img.End(); pc = pc.Next() {
		if got.At(pc) != img.At(pc) {
			t.Errorf("instruction at %s differs: %+v vs %+v", pc, got.At(pc), img.At(pc))
		}
	}
	gf, wf := got.Funcs(), img.Funcs()
	if len(gf) != len(wf) {
		t.Fatalf("func count %d, want %d", len(gf), len(wf))
	}
	for i := range gf {
		if gf[i] != wf[i] {
			t.Errorf("func %d: %+v vs %+v", i, gf[i], wf[i])
		}
	}
}

func TestImageFormatReadable(t *testing.T) {
	img := buildSample(t)
	var buf bytes.Buffer
	if err := WriteImage(&buf, img); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"image v1 base 0x1000", "func alpha 0x1000",
		"plain 5", "cond 0x1000", "call 0x1020", "ret", "icall", "jump 0x1000"} {
		if !strings.Contains(out, want) {
			t.Errorf("serialized image missing %q:\n%s", want, out)
		}
	}
}

func TestReadImageErrors(t *testing.T) {
	cases := []string{
		"",                                // empty
		"bogus header",                    // bad header
		"image v2 base 0x0\nplain 1",      // wrong version
		"image v1 base zz\nplain 1",       // bad base
		"image v1 base 0x0\nplain x",      // bad count
		"image v1 base 0x0\nplain 0",      // zero count
		"image v1 base 0x0\nfrob",         // unknown directive
		"image v1 base 0x0\ncond",         // missing target
		"image v1 base 0x0\nret 0x4",      // operand on ret
		"image v1 base 0x0\nfunc f 0x100", // func not at emission point
		"image v1 base 0x0\njump 0x800",   // target outside image
	}
	for _, in := range cases {
		if _, err := ReadImage(strings.NewReader(in)); err == nil {
			t.Errorf("input %q accepted", in)
		}
	}
}

func TestImageRoundTripComments(t *testing.T) {
	in := "# leading comment\nimage v1 base 0x0\nplain 2 # trailing\n\n# mid\nret\n"
	img, err := ReadImage(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if img.NumInsts() != 3 || img.At(8).Kind != isa.Return {
		t.Errorf("parsed image wrong: %d insts", img.NumInsts())
	}
}

// TestReadImageSizeBound: a `plain N` beyond the file bound is rejected,
// naming its line, before anything is allocated for it; an image of
// exactly maxFileInsts instructions is accepted.
func TestReadImageSizeBound(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := ReadImage(strings.NewReader("image v1 base 0x0\nplain 4000000000\n"))
	runtime.ReadMemStats(&after)
	if err == nil || !strings.Contains(err.Error(), "line 2: image exceeds") {
		t.Fatalf("plain 4000000000: err = %v", err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20 {
		t.Errorf("rejecting plain 4000000000 allocated %d bytes", got)
	}

	atBound := fmt.Sprintf("image v1 base 0x0\nplain %d\n", maxFileInsts)
	img, err := ReadImage(strings.NewReader(atBound))
	if err != nil {
		t.Fatalf("image of %d instructions rejected: %v", maxFileInsts, err)
	}
	if img.NumInsts() != maxFileInsts {
		t.Errorf("NumInsts = %d, want %d", img.NumInsts(), maxFileInsts)
	}
	_, err = ReadImage(strings.NewReader(atBound + "# one more\nret\n"))
	if err == nil || !strings.Contains(err.Error(), "line 4: image exceeds") {
		t.Errorf("image of %d instructions: err = %v", maxFileInsts+1, err)
	}
}

// TestReadImageRejectsWrap: an image whose end would pass 2^64 is
// rejected; one that ends just below it round-trips.
func TestReadImageRejectsWrap(t *testing.T) {
	_, err := ReadImage(strings.NewReader("image v1 base 0xfffffffffffffff8\nplain 3\nret\n"))
	if err == nil || !strings.Contains(err.Error(), "wraps past the end") {
		t.Fatalf("wrapping image: err = %v", err)
	}

	img, err := ReadImage(strings.NewReader("image v1 base 0xfffffffffffffff8\nret\n"))
	if err != nil {
		t.Fatal(err)
	}
	if img.End() != 0xfffffffffffffffc || !img.Contains(img.Base()) {
		t.Errorf("top-of-space image: end %s, contains base %v", img.End(), img.Contains(img.Base()))
	}
	var buf bytes.Buffer
	if err := WriteImage(&buf, img); err != nil {
		t.Fatal(err)
	}
	if got, want := buf.String(), "image v1 base 0xfffffffffffffff8\nret\n"; got != want {
		t.Errorf("WriteImage = %q, want %q", got, want)
	}
}
