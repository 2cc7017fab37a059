package main

import (
	"fmt"
	"io"
	"net"
	"net/http"
	"reflect"
	"sync"
	"sync/atomic"
	"time"

	"specfetch/internal/core"
	"specfetch/internal/distsweep"
	"specfetch/internal/experiments"
	"specfetch/internal/synth"
	"specfetch/internal/xrand"
)

// fleet-seeds runs the Fortran profiles under every static policy over
// several stream seeds through distsweep.Coordinator.Run to two loopback
// sweep workers hosted in this process — the code cmd/sweepworker and
// -remote-workers use.
const (
	fleetWorkers = 2
	// fleetSeedsPerRun streams are drawn per run from a pool of
	// fleetSeedPool, all of whose results are committed.
	fleetSeedsPerRun = 6
	fleetSeedPool    = 32
)

// fleetProfiles are the Fortran codes: the fastest cells, so the walker,
// the skip-ahead bulk path and the wire carry much of the run.
func fleetProfiles() []synth.Profile {
	return []synth.Profile{synth.Doduc(), synth.Fpppp(), synth.Su2cor()}
}

// poolSeed is the stream seed of pool entry i.
func poolSeed(i int) uint64 { return paperStreamSeed + 1 + uint64(i) }

// streamSeeds derives the run's stream seeds from the workload seed:
// fleetSeedsPerRun consecutive pool entries from a seed-dependent start.
func streamSeeds(seed uint64) []uint64 {
	start := int(xrand.New(seed).Uint64n(fleetSeedPool))
	out := make([]uint64, fleetSeedsPerRun)
	for k := range out {
		out[k] = poolSeed((start + k) % fleetSeedPool)
	}
	return out
}

// fleetSpecs lists the cells: bench x seed x policy at the baseline machine.
func fleetSpecs(seeds []uint64, insts int64) ([]distsweep.JobSpec, error) {
	var out []distsweep.JobSpec
	for _, p := range fleetProfiles() {
		for _, s := range seeds {
			for _, pol := range core.Policies() {
				cfg := core.DefaultConfig()
				cfg.Policy = pol
				wc, err := distsweep.FromConfig(cfg)
				if err != nil {
					return nil, err
				}
				out = append(out, distsweep.JobSpec{Profile: p, Config: wc, Seed: s, Insts: insts})
			}
		}
	}
	return out, nil
}

// jobID names a fleet cell.
func jobID(s distsweep.JobSpec) string {
	return fmt.Sprintf("%s/s%d/%s", s.Profile.Name, s.Seed, s.Config.Policy)
}

// sweepWorker is one loopback sweep worker.
type sweepWorker struct {
	url  string
	srv  *http.Server
	done chan struct{}
}

func (w *sweepWorker) close() {
	_ = w.srv.Close() // a loopback listener going away has nothing to report
	<-w.done
}

type fleetSeeds struct {
	insts   int64
	seeds   []uint64
	specs   []distsweep.JobSpec
	benches map[string]*synth.Bench
	workers []*sweepWorker
	client  *http.Client
	// local runs the batches the fleet cannot and the post-run reference.
	local *experiments.JobRunner
	probe atomic.Pointer[fleetProbe]
	last  []distsweep.JobResult
}

func newFleetSeeds(o options) *fleetSeeds {
	f := &fleetSeeds{insts: o.insts, seeds: streamSeeds(o.seed), local: experiments.NewJobRunner(nil)}
	f.client = &http.Client{Transport: &probeTransport{base: http.DefaultTransport.(*http.Transport).Clone(), probe: &f.probe}}
	return f
}

func (f *fleetSeeds) close() {
	for _, w := range f.workers {
		w.close()
	}
	f.workers = nil
	f.client.CloseIdleConnections()
}

// setup builds the profiles, starts the two workers, builds the profiles
// on each worker (one short job per profile) and waits for /healthz.
func (f *fleetSeeds) setup(tr *tracer) (time.Duration, error) {
	f.close()
	specs, err := fleetSpecs(f.seeds, f.insts)
	if err != nil {
		return 0, err
	}
	f.specs = specs
	benches, build, err := buildProfiles(tr, 0, fleetProfiles())
	if err != nil {
		return 0, err
	}
	f.benches = map[string]*synth.Bench{}
	for _, b := range benches {
		f.benches[b.Profile().Name] = b
	}
	for i := 0; i < fleetWorkers; i++ {
		w, err := f.startWorker(i)
		if err != nil {
			return 0, err
		}
		f.workers = append(f.workers, w)
	}
	for _, w := range f.workers {
		sp := tr.start("distsweep", "GET /healthz", w.url, 0, 0)
		err := waitHealthy(f.client, w.url)
		sp.end()
		if err != nil {
			return 0, err
		}
	}
	return build, nil
}

// startWorker serves distsweep.NewServer around a fresh
// experiments.NewJobRunner on a loopback port.
func (f *fleetSeeds) startWorker(idx int) (*sweepWorker, error) {
	runner := experiments.NewJobRunner(nil)
	for _, p := range fleetProfiles() {
		// A short job builds the profile on the worker, as the first job of
		// a sweep would.
		cfg, err := distsweep.FromConfig(core.DefaultConfig())
		if err != nil {
			return nil, err
		}
		if _, err := runner.Run(distsweep.JobSpec{Profile: p, Config: cfg, Seed: paperStreamSeed, Insts: 1000}); err != nil {
			return nil, fmt.Errorf("warming worker %d: %w", idx, err)
		}
	}
	run := func(spec distsweep.JobSpec) (distsweep.JobResult, error) {
		if p := f.probe.Load(); p != nil {
			return p.runJob(idx, spec, runner.Run)
		}
		return runner.Run(spec)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	w := &sweepWorker{
		url:  "http://" + ln.Addr().String(),
		srv:  &http.Server{Handler: distsweep.NewServer(distsweep.ServerOptions{Runner: run}).Handler()},
		done: make(chan struct{}),
	}
	go func() {
		defer close(w.done)
		_ = w.srv.Serve(ln) // returns http.ErrServerClosed once close runs
	}()
	return w, nil
}

// waitHealthy polls url/healthz until it answers 200.
func waitHealthy(c *http.Client, url string) error {
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := c.Get(url + "/healthz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body) // drained only so the connection is reused
			_ = resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("worker %s not healthy: %v", url, err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func (f *fleetSeeds) urls() []string {
	var out []string
	for _, w := range f.workers {
		out = append(out, w.url)
	}
	return out
}

// runLocal runs jobs through the local JobRunner on poolWorkers goroutines.
func (f *fleetSeeds) runLocal(jobs []distsweep.JobSpec) ([]distsweep.JobResult, error) {
	out := make([]distsweep.JobResult, len(jobs))
	errs := make([]error, len(jobs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < poolWorkers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(jobs) {
					return
				}
				out[i], errs[i] = f.local.Run(jobs[i])
			}
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("%s: %w", jobID(jobs[i]), err)
		}
	}
	return out, nil
}

func (f *fleetSeeds) pass(tr *tracer, parent int) (passOut, error) {
	coord := distsweep.New(distsweep.CoordinatorOptions{Workers: f.urls(), Client: f.client})
	var p *fleetProbe
	if tr != nil {
		p = newFleetProbe(tr, f.urls())
		f.probe.Store(p)
		defer f.probe.Store(nil)
	}
	sp := tr.start("distsweep", "distsweep.Coordinator.Run", "", parent, 0)
	if p != nil {
		p.runSpan = sp.id()
	}
	local := func(_ int, jobs []distsweep.JobSpec) ([]distsweep.JobResult, error) {
		return f.runLocal(jobs)
	}
	res, err := coord.Run(f.specs, local, nil)
	sp.end()
	if err != nil {
		return passOut{}, err
	}
	f.last = res
	out := passOut{}
	for i, r := range res {
		out.insts += r.Result.Insts
		out.cells = append(out.cells, fromResult(jobID(f.specs[i]), r.Result))
	}
	if p != nil {
		st := coord.Status()
		out.fleet = p.finish(st)
		out.cellDurs = out.fleet.jobDurs
	}
	return out, nil
}

// verify reruns the last pass's JobSpecs locally through JobRunner.Run and
// counts the cells whose fleet result differs.
func (f *fleetSeeds) verify() (int64, error) {
	want, err := f.runLocal(f.specs)
	if err != nil {
		return 0, err
	}
	var failed int64
	for i := range want {
		if i >= len(f.last) || !reflect.DeepEqual(want[i].Result, f.last[i].Result) {
			failed++
		}
	}
	return failed, nil
}

func (f *fleetSeeds) cells() []replayCell {
	out := make([]replayCell, len(f.specs))
	for i, s := range f.specs {
		out[i] = replayCell{id: jobID(s), bench: f.benches[s.Profile.Name], seed: s.Seed, cfg: s.Config.ToConfig()}
	}
	return out
}

// reference runs every pool seed's cells locally through JobRunner.Run.
func (f *fleetSeeds) reference() ([]cellResult, error) {
	var seeds []uint64
	for i := 0; i < fleetSeedPool; i++ {
		seeds = append(seeds, poolSeed(i))
	}
	specs, err := fleetSpecs(seeds, f.insts)
	if err != nil {
		return nil, err
	}
	res, err := f.runLocal(specs)
	if err != nil {
		return nil, err
	}
	out := make([]cellResult, len(res))
	for i, r := range res {
		out[i] = fromResult(jobID(specs[i]), r.Result)
	}
	return out, nil
}

// ---- distsweep tracing ---------------------------------------------------

// fleetPass is one traced fleet pass's distsweep figures.
type fleetPass struct {
	// rtt and exec hold one entry per remote batch.
	rtt, exec       []time.Duration
	wireBytes       int64
	retries, locals int64
	jobDurs         []time.Duration
}

// fleetProbe records one traced pass: batch round trips from the client
// transport and job times from the workers' Runners. The coordinator keeps
// at most one batch in flight per worker, so a worker's job time since its
// batch was posted belongs to that batch.
type fleetProbe struct {
	tr      *tracer
	runSpan int
	index   map[string]int // worker host:port -> worker index
	batch   []atomic.Int64 // open batch span id per worker
	exec    []atomic.Int64 // job nanoseconds of the open batch per worker

	mu  sync.Mutex
	out fleetPass
}

func newFleetProbe(tr *tracer, urls []string) *fleetProbe {
	p := &fleetProbe{tr: tr, index: map[string]int{},
		batch: make([]atomic.Int64, len(urls)), exec: make([]atomic.Int64, len(urls))}
	for i, u := range urls {
		p.index[u[len("http://"):]] = i
	}
	return p
}

// workerTid is the trace track of worker i's batches and jobs.
func workerTid(i int) int { return 11 + i }

func (p *fleetProbe) runJob(idx int, spec distsweep.JobSpec, run distsweep.Runner) (distsweep.JobResult, error) {
	sp := p.tr.start("experiments", "JobRunner.Run", jobID(spec), int(p.batch[idx].Load()), workerTid(idx))
	res, err := run(spec)
	d := sp.end()
	p.exec[idx].Add(int64(d))
	p.mu.Lock()
	p.out.jobDurs = append(p.out.jobDurs, d)
	p.mu.Unlock()
	return res, err
}

// batchDone records one completed round trip to worker idx.
func (p *fleetProbe) batchDone(idx int, rtt time.Duration, bytes int64) {
	exec := time.Duration(p.exec[idx].Swap(0))
	p.mu.Lock()
	defer p.mu.Unlock()
	p.out.rtt = append(p.out.rtt, rtt)
	p.out.exec = append(p.out.exec, exec)
	p.out.wireBytes += bytes
}

func (p *fleetProbe) finish(st distsweep.Status) *fleetPass {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := p.out
	out.retries = st.Retries
	out.locals = st.LocalBatches
	return &out
}

// probeTransport times POST /v1/run round trips while a probe is set.
type probeTransport struct {
	base  http.RoundTripper
	probe *atomic.Pointer[fleetProbe]
}

func (t *probeTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	p := t.probe.Load()
	idx, ok := 0, false
	if p != nil && req.URL.Path == "/v1/run" {
		idx, ok = p.index[req.URL.Host]
	}
	if !ok {
		return t.base.RoundTrip(req)
	}
	sp := p.tr.start("distsweep", "POST /v1/run", req.URL.Host, p.runSpan, workerTid(idx))
	p.batch[idx].Store(int64(sp.id()))
	resp, err := t.base.RoundTrip(req)
	if err != nil {
		sp.end()
		return nil, err
	}
	sent := req.ContentLength
	resp.Body = &countingBody{rc: resp.Body, done: func(n int64) {
		p.batchDone(idx, sp.end(), sent+n)
	}}
	return resp, nil
}

// countingBody counts a response body's bytes; Close drains the rest and
// reports the total once.
type countingBody struct {
	rc   io.ReadCloser
	n    int64
	once sync.Once
	done func(n int64)
}

func (b *countingBody) Read(p []byte) (int, error) {
	n, err := b.rc.Read(p)
	b.n += int64(n)
	return n, err
}

func (b *countingBody) Close() error {
	rest, _ := io.Copy(io.Discard, b.rc) // the decoder is done; the rest only counts toward wire bytes
	b.n += rest
	b.once.Do(func() { b.done(b.n) })
	return b.rc.Close()
}
