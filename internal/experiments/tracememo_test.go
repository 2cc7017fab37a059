package experiments

import (
	"encoding/binary"
	"errors"
	"io"
	"runtime"
	"sync"
	"testing"
	"unsafe"

	"specfetch/internal/isa"
	"specfetch/internal/synth"
	"specfetch/internal/trace"
)

// buildBench builds one named benchmark profile.
func buildBench(t testing.TB, name string) *synth.Bench {
	t.Helper()
	p, ok := synth.ProfileByName(name)
	if !ok {
		t.Fatalf("no profile %q", name)
	}
	b, err := synth.Build(p)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// newShared makes a shared stream for the given number of readers.
func newShared(key traceKey, readers int) *sharedTrace {
	s := &sharedTrace{key: key}
	s.readers.Store(int64(readers))
	return s
}

// freshStream is what a fresh bounded walker yields for key: the records,
// then the terminal error.
func freshStream(key traceKey) ([]trace.Record, error) {
	return drain(trace.NewLimitReader(key.bench.NewWalker(key.seed), traceLimit(key.insts)), nil)
}

// drain reads rd to its terminal error, calling each (when non-nil) with
// the count of records read so far, and checks that the terminal error
// repeats.
func drain(rd trace.Reader, each func(n int)) ([]trace.Record, error) {
	var recs []trace.Record
	for {
		rec, err := rd.Next()
		if err != nil {
			if _, again := rd.Next(); again != err {
				return recs, errors.New("terminal error did not repeat")
			}
			return recs, err
		}
		recs = append(recs, rec)
		if each != nil {
			each(len(recs))
		}
	}
}

// sameStream reports the first difference between a cursor's stream and
// the fresh walker's.
func sameStream(t *testing.T, who string, got []trace.Record, gotErr error, want []trace.Record, wantErr error) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: %d records, fresh walker yields %d", who, len(got), len(want))
		return
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("%s: record %d is %+v, fresh walker yields %+v", who, i, got[i], want[i])
			return
		}
	}
	if gotErr != wantErr {
		t.Errorf("%s: terminal error %v, fresh walker ends with %v", who, gotErr, wantErr)
	}
}

// boundaryInsts returns an instruction budget whose bounded stream of key's
// bench and seed holds exactly chunks full chunks.
func boundaryInsts(t *testing.T, b *synth.Bench, seed uint64, chunks int) int64 {
	t.Helper()
	n := chunks * chunkRecords
	w := b.NewWalker(seed)
	cum := make([]int64, n)
	var seen int64
	for i := range cum {
		rec, err := w.Next()
		if err != nil {
			t.Fatal(err)
		}
		seen += int64(rec.N)
		cum[i] = seen
	}
	// The limit reader yields record i while the instructions before it
	// fall short of the limit: exactly n records for a limit in
	// (cum[n-2], cum[n-1]].
	for insts := cum[n-1] * 4 / 5; traceLimit(insts) <= cum[n-1]+8; insts++ {
		if l := traceLimit(insts); l > cum[n-2] && l <= cum[n-1] {
			return insts
		}
	}
	t.Fatalf("no budget ends the stream on a chunk boundary")
	return 0
}

// TestSharedTraceReplaysFreshWalker: cursors on several goroutines, made at
// different times and reading at different paces, plus cursors made after
// the stream is complete, each yield exactly the fresh bounded walker's
// records and its terminal io.EOF — for a stream of many chunks, one
// shorter than a chunk, and one ending exactly on a chunk boundary.
func TestSharedTraceReplaysFreshWalker(t *testing.T) {
	t.Parallel()
	b := buildBench(t, "gcc")
	const seed = defaultStreamSeed
	cases := []struct {
		name  string
		insts int64
	}{
		{"many-chunks", 200_000},
		{"sub-chunk", 2_000},
		{"chunk-boundary", boundaryInsts(t, b, seed, 3)},
	}
	for _, tc := range cases {
		key := traceKey{bench: b, seed: seed, insts: tc.insts}
		want, wantErr := freshStream(key)
		if wantErr != io.EOF {
			t.Fatalf("%s: fresh walker ends with %v", tc.name, wantErr)
		}
		switch n := len(want); tc.name {
		case "many-chunks":
			if n < 8*chunkRecords {
				t.Fatalf("%s: only %d records", tc.name, n)
			}
		case "sub-chunk":
			if n >= chunkRecords {
				t.Fatalf("%s: %d records fill a chunk", tc.name, n)
			}
		case "chunk-boundary":
			if n != 3*chunkRecords {
				t.Fatalf("%s: %d records, want %d", tc.name, n, 3*chunkRecords)
			}
		}

		// Reader g makes its cursor once reader 0 has read g quarters of
		// the stream, and yields the processor every pace[g] records.
		const early, late = 4, 2
		pace := [early]int{0, 1, 7, 49}
		var gates [early]chan struct{}
		for g := range gates {
			gates[g] = make(chan struct{})
		}
		close(gates[0])
		s := newShared(key, early+late)
		var wg sync.WaitGroup
		results := make([][]trace.Record, early)
		errs := make([]error, early)
		for g := 0; g < early; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				<-gates[g]
				opened := 1
				results[g], errs[g] = drain(s.reader(), func(n int) {
					if g == 0 && opened < early && n == opened*len(want)/early {
						close(gates[opened])
						opened++
					}
					if pace[g] > 0 && n%pace[g] == 0 {
						runtime.Gosched()
					}
				})
				for ; g == 0 && opened < early; opened++ {
					close(gates[opened]) // a short stream must not strand the others
				}
				s.release()
			}(g)
		}
		wg.Wait()
		for g := 0; g < early; g++ {
			sameStream(t, tc.name+"/concurrent", results[g], errs[g], want, wantErr)
		}
		for g := 0; g < late; g++ {
			rd := s.reader()
			if !rd.(trace.PreValidated).PreValidatedTrace() {
				t.Errorf("%s: cursor made after completion does not vouch", tc.name)
			}
			got, err := drain(rd, nil)
			sameStream(t, tc.name+"/after-completion", got, err, want, wantErr)
			s.release()
		}
	}
}

// faultReader yields its records, then err forever: a walker that faults
// mid-stream.
type faultReader struct {
	recs []trace.Record
	i    int
	err  error
}

func (f *faultReader) Next() (trace.Record, error) {
	if f.i < len(f.recs) {
		f.i++
		return f.recs[f.i-1], nil
	}
	return trace.Record{}, f.err
}

// TestSharedTraceWalkerFault: a walker error mid-stream (past the first
// chunk) reaches every cursor after exactly the records before it, and
// repeats.
func TestSharedTraceWalkerFault(t *testing.T) {
	t.Parallel()
	b := buildBench(t, "gcc")
	want, _ := freshStream(traceKey{bench: b, seed: 1, insts: 100_000})
	want = want[:chunkRecords+100]
	fault := errors.New("walker left the image")

	s := newShared(traceKey{}, 2)
	s.src = &faultReader{recs: want, err: fault}
	first := s.reader()
	got, err := drain(first, nil)
	sameStream(t, "first", got, err, want, fault)
	if first.(trace.PreValidated).PreValidatedTrace() {
		t.Error("a cursor made before completion vouches for its stream")
	}
	got, err = drain(s.reader(), nil)
	sameStream(t, "after-fault", got, err, want, fault)
}

// TestSharedTracePreValidated: a cursor vouches only when the stream was
// complete at its making and every record passed Validate.
func TestSharedTracePreValidated(t *testing.T) {
	t.Parallel()
	b := buildBench(t, "gcc")
	valid, _ := freshStream(traceKey{bench: b, seed: 1, insts: 30_000})
	vouches := func(rd trace.Reader) bool { return rd.(trace.PreValidated).PreValidatedTrace() }

	s := newShared(traceKey{}, 3)
	s.src = trace.NewSliceReader(valid)
	before := s.reader()
	if _, err := before.Next(); err != nil {
		t.Fatal(err)
	}
	during := s.reader()
	if _, err := drain(before, nil); err != io.EOF {
		t.Fatal(err)
	}
	after := s.reader()
	if vouches(before) || vouches(during) {
		t.Error("a cursor made before completion vouches for its stream")
	}
	if !vouches(after) {
		t.Error("a cursor made after completion of an all-valid stream does not vouch")
	}

	invalid := append([]trace.Record(nil), valid...)
	invalid[len(invalid)/2].N = 0
	s = newShared(traceKey{}, 2)
	s.src = trace.NewSliceReader(invalid)
	if _, err := drain(s.reader(), nil); err != io.EOF {
		t.Fatal(err)
	}
	rd := s.reader()
	if vouches(rd) {
		t.Error("a cursor over a stream with an invalid record vouches for it")
	}
	got, err := drain(rd, nil)
	sameStream(t, "invalid", got, err, invalid, io.EOF)
}

// TestSharedTraceReleaseDropsChunks: the chunks stay while a reader is
// outstanding and go with the last release.
func TestSharedTraceReleaseDropsChunks(t *testing.T) {
	t.Parallel()
	key := traceKey{bench: buildBench(t, "gcc"), seed: 1, insts: 20_000}
	s := newShared(key, 2)
	if _, err := drain(s.reader(), nil); err != io.EOF {
		t.Fatal(err)
	}
	s.release()
	if len(s.chunks) == 0 {
		t.Fatal("chunks dropped while a reader is outstanding")
	}
	if _, err := drain(s.reader(), nil); err != io.EOF {
		t.Fatal(err)
	}
	s.release()
	if s.chunks != nil || s.src != nil {
		t.Error("last release kept the chunks")
	}
}

// TestSharedTraceAllocBound: generating and reading the 2M-instruction
// porky stream allocates at most 12 bytes per record (the packed record)
// plus 256 KiB — no slice-growth copies, no growth slack beyond the last
// chunk, no 32-byte copy of the stream.
func TestSharedTraceAllocBound(t *testing.T) {
	key := traceKey{bench: buildBench(t, "porky"), seed: defaultStreamSeed, insts: 2_000_000}
	s := newShared(key, 1)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	rd := s.reader()
	var n int64
	for {
		if _, err := rd.Next(); err != nil {
			break
		}
		n++
	}
	runtime.ReadMemStats(&after)
	alloc := after.TotalAlloc - before.TotalAlloc
	recBytes := uint64(n) * uint64(unsafe.Sizeof(trace.Record{}))
	t.Logf("%d records, %d record bytes, %d allocated (%.3fx)",
		n, recBytes, alloc, float64(alloc)/float64(recBytes))
	if limit := uint64(n)*12 + 256<<10; alloc > limit {
		t.Errorf("generating %d records allocated %d bytes, bound %d", n, alloc, limit)
	}
	s.release()
}

// TestSharedTraceUnpackable: records a packed chunk cannot hold (addresses
// of 2^32 and up, lengths outside [0, 2^28)) and odd records it can (zero
// length, kind 7, a misaligned start, a target on a plain or not-taken
// record) come back exactly, in the first chunk and past it, through
// cursors made before, during and after completion; a chunk keeps its
// records wide only when one of them does not fit, and vouching follows
// Validate as for any stream.
func TestSharedTraceUnpackable(t *testing.T) {
	t.Parallel()
	b := buildBench(t, "gcc")
	valid, _ := freshStream(traceKey{bench: b, seed: 1, insts: 100_000})
	if len(valid) < 3*chunkRecords {
		t.Fatalf("only %d records", len(valid))
	}
	valid = valid[:3*chunkRecords]
	var cond, taken trace.Record
	for _, r := range valid {
		switch {
		case r.BrKind == isa.CondBranch && !r.Taken:
			cond = r
		case r.BrKind.IsUnconditional():
			taken = r
		}
	}
	if cond.N == 0 || taken.N == 0 {
		t.Fatal("stream lacks a not-taken conditional or an unconditional record")
	}
	plain := trace.Record{Start: cond.Start, N: cond.N, BrKind: isa.Plain}
	with := func(r trace.Record, f func(*trace.Record)) trace.Record { f(&r); return r }
	cases := []struct {
		name string
		rec  trace.Record
		wide bool
	}{
		{"start-2^32", with(taken, func(r *trace.Record) { r.Start = 1 << 32 }), true},
		{"target-2^40", with(taken, func(r *trace.Record) { r.Target = 1 << 40 }), true},
		{"n-2^28", with(plain, func(r *trace.Record) { r.N = 1 << 28 }), true},
		{"n-negative", with(plain, func(r *trace.Record) { r.N = -1 }), true},
		{"n-zero", with(plain, func(r *trace.Record) { r.N = 0 }), false},
		{"kind-7", with(taken, func(r *trace.Record) { r.BrKind = 7 }), false},
		{"misaligned-start", with(plain, func(r *trace.Record) { r.Start++ }), false},
		{"plain-target", with(plain, func(r *trace.Record) { r.Target = 0x4000 }), false},
		{"not-taken-target", with(cond, func(r *trace.Record) { r.Target = 0x4000 }), false},
	}
	for _, tc := range cases {
		want := append([]trace.Record(nil), valid...)
		want[100], want[chunkRecords+200] = tc.rec, tc.rec
		s := newShared(traceKey{}, 3)
		s.src = trace.NewSliceReader(want)
		before := s.reader()
		first, err := before.Next()
		if err != nil {
			t.Fatal(err)
		}
		during := s.reader()
		got, err := drain(before, nil)
		sameStream(t, tc.name+"/before", append([]trace.Record{first}, got...), err, want, io.EOF)
		after := s.reader()
		for who, rd := range map[string]trace.Reader{"during": during, "after": after} {
			got, err := drain(rd, nil)
			sameStream(t, tc.name+"/"+who, got, err, want, io.EOF)
		}
		for i, c := range s.chunks {
			if wide := i < 2 && tc.wide; (c.wide != nil) != wide || (c.packed != nil) == wide {
				t.Errorf("%s: chunk %d wide %t packed %t, want wide %t", tc.name, i, c.wide != nil, c.packed != nil, wide)
			}
		}
		vouch := func(rd trace.Reader) bool { return rd.(trace.PreValidated).PreValidatedTrace() }
		if vouch(before) || vouch(during) {
			t.Errorf("%s: a cursor made before completion vouches for its stream", tc.name)
		}
		if valid := tc.rec.Validate() == nil; vouch(after) != valid {
			t.Errorf("%s: cursor made after completion vouches %t, record valid %t", tc.name, vouch(after), valid)
		}
	}
}

// FuzzSharedTrace: any records put through a shared stream, followed by
// io.EOF or a walker fault, come back identical with the same terminal
// error, through a cursor made before the stream is generated and one made
// after it is complete; the latter vouches exactly when every record passes
// Validate. The input is a record pattern cycled to a length that can span
// several chunks.
func FuzzSharedTrace(f *testing.F) {
	const recBytes = 8 + 8 + 8 + 1 + 1
	f.Add(uint16(5000), false, make([]byte, recBytes))
	// A valid jump, then a record with start 2^32, target 2^40, N 2^28
	// and kind 7, ending in a fault.
	f.Add(uint16(chunkRecords), true, []byte{
		0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 3, 0, 0, 0, 0, 0, 0, 0, 2, 1,
		0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 16, 0, 0, 0, 0, 7, 0})
	f.Fuzz(func(t *testing.T, n uint16, fault bool, pattern []byte) {
		var pat []trace.Record
		for ; len(pattern) >= recBytes; pattern = pattern[recBytes:] {
			pat = append(pat, trace.Record{
				Start:  isa.Addr(binary.LittleEndian.Uint64(pattern)),
				Target: isa.Addr(binary.LittleEndian.Uint64(pattern[8:])),
				N:      int(int64(binary.LittleEndian.Uint64(pattern[16:]))),
				BrKind: isa.Kind(pattern[24]),
				Taken:  pattern[25]&1 != 0,
			})
		}
		var want []trace.Record
		for i := 0; len(pat) > 0 && i < int(n)%(3*chunkRecords); i++ {
			want = append(want, pat[i%len(pat)])
		}
		wantErr := io.EOF
		if fault {
			wantErr = errors.New("walker fault")
		}
		s := newShared(traceKey{}, 2)
		s.src = &faultReader{recs: want, err: wantErr}
		first := s.reader()
		got, err := drain(first, nil)
		sameStream(t, "first", got, err, want, wantErr)
		after := s.reader()
		valid := true
		for _, r := range want {
			valid = valid && r.Validate() == nil
		}
		if got := after.(trace.PreValidated).PreValidatedTrace(); got != valid {
			t.Errorf("cursor made after completion vouches %t, records valid %t", got, valid)
		}
		got, err = drain(after, nil)
		sameStream(t, "after", got, err, want, wantErr)
	})
}

// benchSink keeps the replay loop's reads live.
var benchSink int

// BenchmarkSharedTraceReplay: replay through a cursor over the completed
// 2M-instruction porky stream, in records per second.
func BenchmarkSharedTraceReplay(b *testing.B) {
	key := traceKey{bench: buildBench(b, "porky"), seed: defaultStreamSeed, insts: 2_000_000}
	s := newShared(key, 1)
	rd := s.reader()
	var recs int
	for {
		if _, err := rd.Next(); err != nil {
			break
		}
		recs++
	}
	b.ResetTimer()
	sum := 0
	for i := 0; i < b.N; i++ {
		rd := s.reader()
		for {
			rec, err := rd.Next()
			if err != nil {
				break
			}
			sum += rec.N
		}
	}
	benchSink = sum
	b.ReportMetric(float64(recs)*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mrecords/s")
	s.release()
}
