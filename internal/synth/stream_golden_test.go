package synth

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"

	"specfetch/internal/trace"
)

// streamGoldenInsts is how much of each walker stream TestStreamGolden
// digests.
const streamGoldenInsts = 200_000

// TestStreamGolden pins the correct-path stream of every benchmark the
// repository builds: the 16 profiles at two stream seeds, the three kernels
// and a profile-guided gcc relayout. Each line is the SHA-256 of the first
// streamGoldenInsts instructions of walker records, so any change to how a
// site is stored or decided that moves a single outcome shows up as a diff.
func TestStreamGolden(t *testing.T) {
	type named struct {
		name  string
		seed  uint64
		bench func() (*Bench, error)
	}
	var all []named
	for _, p := range append(Profiles(), ModernProfiles()...) {
		p := p
		for _, seed := range []uint64{1, 2} {
			all = append(all, named{p.Name, seed, func() (*Bench, error) { return Build(p) }})
		}
	}
	all = append(all,
		named{"kernel-loop", 1, func() (*Bench, error) { return LoopKernel(64, 8) }},
		named{"kernel-call", 1, func() (*Bench, error) { return CallKernel(3, 8) }},
		named{"kernel-dispatch", 1, func() (*Bench, error) { return DispatchKernel(4, 6) }},
		named{"gcc-reordered", 1, func() (*Bench, error) { return ReorderByProfile(MustBuild(GCC()), 100_000, 1) }},
	)

	var got bytes.Buffer
	for _, n := range all {
		b, err := n.bench()
		if err != nil {
			t.Fatalf("%s: %v", n.name, err)
		}
		sum, recs, err := streamDigest(b.NewReader(n.seed, streamGoldenInsts))
		if err != nil {
			t.Fatalf("%s seed %d: %v", n.name, n.seed, err)
		}
		fmt.Fprintf(&got, "%s %d %d %x\n", n.name, n.seed, recs, sum)
	}

	path := filepath.Join("testdata", "streams.golden")
	if *updateGolden {
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run `go test -run StreamGolden -update` to regenerate)", err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("stream digests diverged from %s:\n got:\n%s\nwant:\n%s", path, got.Bytes(), want)
	}
}

// streamDigest hashes every record rd yields until io.EOF, each as its
// fixed-width little-endian fields, and counts them.
func streamDigest(rd trace.Reader) ([]byte, int, error) {
	h := sha256.New()
	var buf [26]byte
	recs := 0
	for {
		rec, err := rd.Next()
		if err != nil {
			if errors.Is(err, io.EOF) {
				return h.Sum(nil), recs, nil
			}
			return nil, recs, err
		}
		binary.LittleEndian.PutUint64(buf[0:], uint64(rec.Start))
		binary.LittleEndian.PutUint64(buf[8:], uint64(rec.N))
		buf[16] = byte(rec.BrKind)
		buf[17] = 0
		if rec.Taken {
			buf[17] = 1
		}
		binary.LittleEndian.PutUint64(buf[18:], uint64(rec.Target))
		h.Write(buf[:])
		recs++
	}
}
