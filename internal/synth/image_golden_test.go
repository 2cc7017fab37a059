package synth

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"specfetch/internal/program"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// TestImageGolden pins the serialized static image of every benchmark the
// repository builds: the 13 paper profiles, the modern-footprint profiles,
// the three kernels and one profile-guided relayout. Each line is the
// SHA-256 of program.WriteImage's output, so any change to how an image is
// built or stored that moves an instruction shows up as a diff.
func TestImageGolden(t *testing.T) {
	type named struct {
		name  string
		bench func() (*Bench, error)
	}
	var all []named
	for _, p := range append(Profiles(), ModernProfiles()...) {
		p := p
		all = append(all, named{p.Name, func() (*Bench, error) { return Build(p) }})
	}
	all = append(all,
		named{"kernel-loop", func() (*Bench, error) { return LoopKernel(64, 8) }},
		named{"kernel-call", func() (*Bench, error) { return CallKernel(3, 8) }},
		named{"kernel-dispatch", func() (*Bench, error) { return DispatchKernel(4, 6) }},
		named{"li-reordered", func() (*Bench, error) { return ReorderByProfile(MustBuild(Li()), 100_000, 1) }},
	)

	var got bytes.Buffer
	for _, n := range all {
		b, err := n.bench()
		if err != nil {
			t.Fatalf("%s: %v", n.name, err)
		}
		h := sha256.New()
		if err := program.WriteImage(h, b.Image()); err != nil {
			t.Fatalf("%s: %v", n.name, err)
		}
		fmt.Fprintf(&got, "%s %d %x\n", n.name, b.Image().NumInsts(), h.Sum(nil))
	}

	path := filepath.Join("testdata", "images.golden")
	if *updateGolden {
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run `go test -run ImageGolden -update` to regenerate)", err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("image digests diverged from %s:\n got:\n%s\nwant:\n%s", path, got.Bytes(), want)
	}
}
