package experiments

import (
	"sync"
	"sync/atomic"

	"specfetch/internal/isa"
	"specfetch/internal/synth"
	"specfetch/internal/trace"
)

// Trace memoization. Most sweeps simulate the same benchmark under many
// configurations, and every one of those cells walks the identical
// correct-path stream: the walker is seeded per (benchmark, stream seed),
// and the dynamic path never depends on the fetch configuration. Generating
// the stream is a fifth or more of a low-miss-rate cell's wall time, so the
// local executor shares each stream that more than one cell of a work-list
// reads, and hands the cells replay cursors over it.
//
// A shared stream is an append-only list of fixed-size record chunks,
// generated on demand by its readers (pull-through). A cursor reads the
// chunks published when it last looked without any lock; when it runs past
// them it takes the stream's mutex and, unless another reader got there
// first, advances the one shared bounded walker by one chunk and publishes
// it. So a bench's first cells start simulating after one chunk rather than
// after the whole stream, generation is spread over the pool workers that
// need it, and no record is ever copied by slice growth or held in growth
// slack. The chunks are dropped when the last reader releases the stream.
//
// The memo holds a stream whole from its first chunk until its last reader
// releases it (readers run at pool width, so the slowest still needs chunk
// 0), so a chunk stores its records packed, 12 bytes each instead of the 32
// of a trace.Record: start, target and the header word N<<4 | kind<<1 |
// taken of trace.BinaryWriter, as uint32s. Walker streams always fit: the
// synthetic image starts at 0x10000 and a block is a few dozen
// instructions. A chunk with any record that does not fit keeps its records
// as they are, so the memo reproduces any stream, out-of-range and invalid
// records included, and never clamps or drops one.
//
// Replay is bit-identical by construction: the records handed out, their
// order, and the terminal error (io.EOF from the instruction limit, or a
// walker fault mid-stream) are exactly what a fresh bounded walker yields.
// A cursor vouches for its records (trace.PreValidated) only if, when it was
// made, the stream was complete and every record had passed Validate; an
// earlier cursor does not, so its engine validates per record and fails
// exactly as it would on a fresh walker.

// chunkRecords is the number of records in one stream chunk (48 KiB
// packed): large enough that the mutex is taken rarely, small enough that
// a cell starts after a sliver of its stream and the short final chunk
// wastes little.
const chunkRecords = 4096

// traceKey identifies one dynamic stream at one instruction budget. It keys
// on the built benchmark, not the profile name: a relaid-out bench keeps its
// source profile but walks a different address stream.
type traceKey struct {
	bench *synth.Bench
	seed  uint64
	insts int64
}

// sharedTrace is one shared stream: the chunks of records a bounded walker
// yields, generated as its readers need them, then the error it ends with.
type sharedTrace struct {
	key traceKey
	// readers counts the cells still to read the stream; the last one to
	// finish drops the chunks, so a bench-major work-list holds only the
	// streams of the benches in flight rather than every bench's at once.
	readers atomic.Int64

	mu sync.Mutex
	// chunks is the published stream, append-only: a published chunk is
	// full (chunkRecords records) unless it is the last, and is never
	// written again, so cursors read their snapshot of the list unlocked.
	chunks []chunk
	// src is the shared bounded walker: made from key by the first pull
	// unless already set, and dropped once it has returned its terminal
	// error.
	src trace.Reader
	// scratch receives each chunk from src before it is packed; dropped
	// with src.
	scratch []trace.Record
	// done reports that src returned err: chunks hold the whole stream.
	done bool
	err  error
	// invalid reports that a generated record failed Validate.
	invalid bool
}

// reader returns a fresh replay cursor over the stream.
func (s *sharedTrace) reader() trace.Reader {
	s.mu.Lock()
	defer s.mu.Unlock()
	return &replayReader{s: s, chunks: s.chunks, done: s.done, err: s.err,
		pre: s.done && !s.invalid}
}

// pull returns the published chunks, the completion flag and the terminal
// error, first generating one more chunk if the caller has already seen all
// have published chunks and the stream is not complete.
func (s *sharedTrace) pull(have int) ([]chunk, bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if have == len(s.chunks) && !s.done {
		s.generate()
	}
	return s.chunks, s.done, s.err
}

// generate advances the walker by up to one chunk and publishes what it
// yielded. Called with s.mu held.
func (s *sharedTrace) generate() {
	if s.src == nil {
		s.src = trace.NewLimitReader(s.key.bench.NewWalker(s.key.seed), traceLimit(s.key.insts))
	}
	if s.scratch == nil {
		s.scratch = make([]trace.Record, 0, chunkRecords)
	}
	c := s.scratch[:0]
	for len(c) < chunkRecords {
		rec, err := s.src.Next()
		if err != nil {
			s.done, s.err, s.src, s.scratch = true, err, nil, nil
			break
		}
		if rec.Validate() != nil {
			s.invalid = true
		}
		c = append(c, rec)
	}
	if len(c) > 0 {
		s.chunks = append(s.chunks, packChunk(c))
	}
}

// packedRec is one record in 12 bytes: nk = N<<4 | BrKind<<1 | Taken.
type packedRec struct {
	start, target, nk uint32
}

// chunk is one published run of records: packed, or wide when one of them
// does not fit a packedRec. Exactly one of the two is set.
type chunk struct {
	packed []packedRec
	wide   []trace.Record
}

// packChunk returns recs in memory of their own: packed if every record fits
// a packedRec, else copied as they are.
func packChunk(recs []trace.Record) chunk {
	p := make([]packedRec, len(recs))
	for i, r := range recs {
		if r.Start >= 1<<32 || r.Target >= 1<<32 || r.N < 0 || r.N >= 1<<28 || r.BrKind >= 8 {
			return chunk{wide: append([]trace.Record(nil), recs...)}
		}
		nk := uint32(r.N)<<4 | uint32(r.BrKind)<<1
		if r.Taken {
			nk |= 1
		}
		p[i] = packedRec{start: uint32(r.Start), target: uint32(r.Target), nk: nk}
	}
	return chunk{packed: p}
}

// release records that one reader has finished with the stream.
func (s *sharedTrace) release() {
	if s.readers.Add(-1) == 0 {
		s.mu.Lock()
		s.chunks, s.src, s.scratch = nil, nil, nil
		s.mu.Unlock()
	}
}

// replayReader is a cursor over a shared stream. After the records are
// exhausted it reports the stream's terminal error forever, like the
// exhausted LimitReader it stands in for.
type replayReader struct {
	// cur is the chunk being read when it is packed, wide when it is not;
	// i is the next record's index in it.
	cur  []packedRec
	wide []trace.Record
	i    int
	// chunks is the cursor's snapshot of the published chunks, next the
	// index of the chunk after the one being read.
	chunks []chunk
	next   int
	s      *sharedTrace
	// done reports that chunks is the whole stream, which ends with err.
	done bool
	err  error
	pre  bool
}

// Next implements trace.Reader. The record is built in the return statement
// from a pointer into the chunk: decoding into a local first and returning
// that compiles to narrow stores re-read by wide moves, and replayed at
// about half the speed (BenchmarkSharedTraceReplay).
func (r *replayReader) Next() (trace.Record, error) {
	if r.i < len(r.cur) {
		p := &r.cur[r.i]
		r.i++
		return trace.Record{Start: isa.Addr(p.start), N: int(p.nk >> 4),
			BrKind: isa.Kind(p.nk >> 1 & 7), Taken: p.nk&1 != 0, Target: isa.Addr(p.target)}, nil
	}
	return r.advance()
}

// advance returns the next record of a wide chunk, or moves the cursor to
// the next chunk, pulling the stream when the snapshot is exhausted, and
// returns that chunk's first record.
func (r *replayReader) advance() (trace.Record, error) {
	if r.i < len(r.wide) {
		r.i++
		return r.wide[r.i-1], nil
	}
	for r.next == len(r.chunks) {
		if r.done {
			return trace.Record{}, r.err
		}
		r.chunks, r.done, r.err = r.s.pull(len(r.chunks))
	}
	c := r.chunks[r.next]
	r.cur, r.wide, r.i = c.packed, c.wide, 0
	r.next++
	return r.Next()
}

// PreValidatedTrace implements trace.PreValidated: true when the stream was
// complete when the cursor was made and every record passed Validate.
func (r *replayReader) PreValidatedTrace() bool { return r.pre }

// traceLimit is the stream length simulateCell feeds an engine with an
// instruction budget of insts: headroom for the wrong-path consistency
// checks at the final records, same as a direct walker run.
func traceLimit(insts int64) int64 { return insts + insts/4 }

// sharedTraces pre-plans memoization for a work-list: streams read by two or
// more cells are shared, streams unique to one cell stay on the lazy walker
// (memoizing those would only add memory). Generation itself is deferred to
// the readers, so a work-list that fails early generates nothing extra.
func sharedTraces(opt Options, cells []runCell) map[traceKey]*sharedTrace {
	counts := make(map[traceKey]int, len(cells))
	for _, c := range cells {
		counts[cellTraceKey(c, opt)]++
	}
	var shared map[traceKey]*sharedTrace
	for _, c := range cells {
		k := cellTraceKey(c, opt)
		if counts[k] < 2 {
			continue
		}
		if shared == nil {
			shared = make(map[traceKey]*sharedTrace)
		}
		if _, ok := shared[k]; !ok {
			shared[k] = &sharedTrace{key: k}
			shared[k].readers.Store(int64(counts[k]))
		}
	}
	return shared
}

// cellTraceKey names the stream a cell reads.
func cellTraceKey(c runCell, opt Options) traceKey {
	return traceKey{bench: c.bench, seed: c.seed, insts: opt.Insts}
}
