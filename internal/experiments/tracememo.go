package experiments

import (
	"sync"
	"sync/atomic"

	"specfetch/internal/synth"
	"specfetch/internal/trace"
)

// Trace memoization. Most sweeps simulate the same benchmark under many
// configurations, and every one of those cells walks the identical
// correct-path stream: the walker is seeded per (benchmark, stream seed),
// and the dynamic path never depends on the fetch configuration. Generating
// the stream is a fifth or more of a low-miss-rate cell's wall time, so the
// local executor pre-generates each stream that more than one cell of a
// work-list reads and hands the cells replay cursors over the shared record
// slice. Replay is bit-identical by construction: the records handed out,
// their order, and the terminal error (io.EOF from the instruction limit, or
// a walker fault mid-stream) are exactly what a fresh bounded walker yields.

// traceKey identifies one dynamic stream at one instruction budget. It keys
// on the built benchmark, not the profile name: a relaid-out bench keeps its
// source profile but walks a different address stream.
type traceKey struct {
	bench *synth.Bench
	seed  uint64
	insts int64
}

// sharedTrace is one pre-generated stream: the records a bounded walker
// yields, then the error it ends with.
type sharedTrace struct {
	once sync.Once
	key  traceKey
	recs []trace.Record
	err  error
	// readers counts the cells still to read the stream; the last one to
	// finish drops the records, so a bench-major work-list holds only the
	// streams of the benches in flight rather than every bench's at once.
	readers atomic.Int64
	// valid reports that every record passed Validate at generation time, so
	// replay cursors may vouch for the stream (trace.PreValidated) and spare
	// each cell the per-record re-check. A stream with an invalid record is
	// replayed without the vouching: each engine then validates per record
	// and fails exactly as it would on a fresh walker.
	valid bool
}

// generate materializes the stream on first use (sync.Once so concurrent
// pool workers needing the same stream generate it exactly once).
func (s *sharedTrace) generate() {
	s.once.Do(func() {
		s.valid = true
		rd := trace.NewLimitReader(s.key.bench.NewWalker(s.key.seed), traceLimit(s.key.insts))
		for {
			rec, err := rd.Next()
			if err != nil {
				s.err = err
				return
			}
			if rec.Validate() != nil {
				s.valid = false
			}
			s.recs = append(s.recs, rec)
		}
	})
}

// reader returns a fresh replay cursor over the stream.
func (s *sharedTrace) reader() trace.Reader {
	s.generate()
	return &replayReader{recs: s.recs, err: s.err, pre: s.valid}
}

// release records that one reader has finished with the stream.
func (s *sharedTrace) release() {
	if s.readers.Add(-1) == 0 {
		s.recs = nil
	}
}

// replayReader is a cursor over a pre-generated stream. After the records
// are exhausted it reports the stream's terminal error forever, like the
// exhausted LimitReader it stands in for.
type replayReader struct {
	recs []trace.Record
	i    int
	err  error
	pre  bool
}

// Next implements trace.Reader.
func (r *replayReader) Next() (trace.Record, error) {
	if r.i < len(r.recs) {
		rec := r.recs[r.i]
		r.i++
		return rec, nil
	}
	return trace.Record{}, r.err
}

// PreValidatedTrace implements trace.PreValidated: true when every replayed
// record passed Validate at generation time.
func (r *replayReader) PreValidatedTrace() bool { return r.pre }

// traceLimit is the stream length simulateCell feeds an engine with an
// instruction budget of insts: headroom for the wrong-path consistency
// checks at the final records, same as a direct walker run.
func traceLimit(insts int64) int64 { return insts + insts/4 }

// sharedTraces pre-plans memoization for a work-list: streams read by two or
// more cells are shared, streams unique to one cell stay on the lazy walker
// (memoizing those would only add memory). Generation itself is deferred to
// first use so a work-list that fails early generates nothing extra.
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
