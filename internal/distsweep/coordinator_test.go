package distsweep

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"specfetch/internal/core"
	"specfetch/internal/obs"
	"specfetch/internal/sweeplog"
)

// fakeResult derives a deterministic JobResult from a spec, standing in
// for a real simulation in protocol tests.
func fakeResult(spec JobSpec) JobResult {
	res := fixtureBatchResult().Results[0].Result
	res.Insts = spec.Insts
	res.Cycles = core.Cycles(int64(spec.Seed) + spec.Insts)
	res.Lost[0] = core.Slots(spec.Seed)
	return JobResult{Result: res, Audit: res.AuditFinal()}
}

func fakeRunner(spec JobSpec) (JobResult, error) { return fakeResult(spec), nil }

// testJobs builds n valid specs distinguished by seed.
func testJobs(n int) []JobSpec {
	jobs := make([]JobSpec, n)
	for i := range jobs {
		jobs[i] = fixtureBatch().Jobs[1]
		jobs[i].Seed = uint64(1000 + i)
	}
	return jobs
}

// wantResults is what any correct execution of testJobs must produce.
func wantResults(jobs []JobSpec) []JobResult {
	out := make([]JobResult, len(jobs))
	for i, j := range jobs {
		out[i] = fakeResult(j)
	}
	return out
}

// localRunner returns a LocalRunner computing fakeResult in-process and
// counting invocations.
func localRunner(calls *atomic.Int64) LocalRunner {
	return func(offset int, jobs []JobSpec) ([]JobResult, error) {
		calls.Add(1)
		out := make([]JobResult, len(jobs))
		for i, j := range jobs {
			out[i] = fakeResult(j)
		}
		return out, nil
	}
}

// newWorker spins up a real protocol server over fakeRunner. perJob > 0
// slows each job down, so tests can keep a worker busy long enough for a
// peer to participate.
func newWorker(t *testing.T, perJob time.Duration) *httptest.Server {
	t.Helper()
	runner := fakeRunner
	if perJob > 0 {
		runner = func(spec JobSpec) (JobResult, error) {
			time.Sleep(perJob)
			return fakeResult(spec), nil
		}
	}
	srv := httptest.NewServer(NewServer(ServerOptions{Runner: runner}).Handler())
	t.Cleanup(srv.Close)
	return srv
}

func fastOptions(workers ...string) CoordinatorOptions {
	return CoordinatorOptions{
		Workers:     workers,
		BatchSize:   3,
		Timeout:     2 * time.Second,
		Retries:     3,
		BackoffBase: time.Millisecond,
		BackoffMax:  4 * time.Millisecond,
		EvictAfter:  2,
	}
}

// TestCoordinatorHappyPath: every batch completes remotely; the local
// runner is never consulted; results land at their indexes.
func TestCoordinatorHappyPath(t *testing.T) {
	w1, w2 := newWorker(t, 0), newWorker(t, 0)
	reg := obs.NewRegistry()
	opt := fastOptions(w1.URL, w2.URL)
	opt.Metrics = reg
	c := New(opt)

	jobs := testJobs(10)
	var localCalls atomic.Int64
	var remoted atomic.Int64
	got, err := c.Run(jobs, localRunner(&localCalls), func(offset int, res []JobResult) {
		remoted.Add(int64(len(res)))
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !reflect.DeepEqual(got, wantResults(jobs)) {
		t.Error("remote results differ from direct computation")
	}
	if localCalls.Load() != 0 {
		t.Errorf("local runner called %d times on the happy path", localCalls.Load())
	}
	if remoted.Load() != int64(len(jobs)) {
		t.Errorf("onRemote saw %d jobs, want %d", remoted.Load(), len(jobs))
	}
	if v := reg.Counter("specfetch_dispatch_jobs_total", "").Value(); v != int64(len(jobs)) {
		t.Errorf("dispatch jobs counter = %d, want %d", v, len(jobs))
	}
}

// flakyHandler wraps a healthy worker and misbehaves in a configurable way
// for the first `bad` requests.
type flakyHandler struct {
	inner http.Handler
	bad   atomic.Int64
	mode  string // "drop", "corrupt", "delay", "tamper"
}

func (f *flakyHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if !strings.HasPrefix(r.URL.Path, "/v1/") || f.bad.Add(-1) < 0 {
		f.inner.ServeHTTP(w, r)
		return
	}
	switch f.mode {
	case "drop":
		w.WriteHeader(http.StatusInternalServerError)
	case "corrupt":
		_, _ = w.Write([]byte(`{"version":1,"id":`)) // truncated JSON
	case "delay":
		time.Sleep(500 * time.Millisecond)
		w.WriteHeader(http.StatusInternalServerError)
	case "tamper":
		rec := httptest.NewRecorder()
		f.inner.ServeHTTP(rec, r)
		var br BatchResult
		if err := json.Unmarshal(rec.Body.Bytes(), &br); err != nil || len(br.Results) == 0 {
			w.WriteHeader(http.StatusInternalServerError)
			return
		}
		// Claim fewer cycles than the audited run: the self-check identity
		// no longer holds.
		br.Results[0].Result.Cycles -= 17
		_ = json.NewEncoder(w).Encode(br)
	default:
		panic("unknown mode " + f.mode)
	}
}

// TestCoordinatorFaultInjection: a worker that drops, corrupts, delays, or
// tampers with batches mid-sweep never changes the reduced results — the
// batches are retried on the healthy worker without any local fallback.
func TestCoordinatorFaultInjection(t *testing.T) {
	for _, mode := range []string{"drop", "corrupt", "delay", "tamper"} {
		t.Run(mode, func(t *testing.T) {
			// The healthy worker is slowed so the flaky one keeps pulling
			// batches instead of watching the queue drain.
			healthy := newWorker(t, 5*time.Millisecond)
			flaky := &flakyHandler{inner: NewServer(ServerOptions{Runner: fakeRunner}).Handler(), mode: mode}
			flaky.bad.Store(1 << 30) // misbehave forever
			flakySrv := httptest.NewServer(flaky)
			t.Cleanup(flakySrv.Close)

			reg := obs.NewRegistry()
			opt := fastOptions(healthy.URL, flakySrv.URL)
			if mode == "delay" {
				opt.Timeout = 100 * time.Millisecond
			}
			opt.Metrics = reg
			c := New(opt)

			jobs := testJobs(18)
			var localCalls atomic.Int64
			got, err := c.Run(jobs, localRunner(&localCalls), nil)
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			if !reflect.DeepEqual(got, wantResults(jobs)) {
				t.Error("results differ with a faulty worker in the fleet")
			}
			if localCalls.Load() != 0 {
				t.Errorf("local fallback ran %d times; survivors should have absorbed the batches", localCalls.Load())
			}
			if v := reg.Counter("specfetch_dispatch_retries_total", "").Value(); v < 1 {
				t.Errorf("retries = %d, want >= 1", v)
			}
			if mode == "tamper" {
				if v := reg.Counter("specfetch_dispatch_audit_rejects_total", "").Value(); v < 1 {
					t.Errorf("audit rejects = %d, want >= 1", v)
				}
			}
		})
	}
}

// TestCoordinatorEviction: a lone worker failing every batch is evicted
// after exactly EvictAfter consecutive failures, and the whole sweep
// completes through local fallback.
func TestCoordinatorEviction(t *testing.T) {
	flaky := &flakyHandler{inner: NewServer(ServerOptions{Runner: fakeRunner}).Handler(), mode: "drop"}
	flaky.bad.Store(1 << 30)
	srv := httptest.NewServer(flaky)
	t.Cleanup(srv.Close)

	reg := obs.NewRegistry()
	opt := fastOptions(srv.URL)
	opt.Metrics = reg
	c := New(opt)

	jobs := testJobs(12)
	var localCalls atomic.Int64
	got, err := c.Run(jobs, localRunner(&localCalls), nil)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !reflect.DeepEqual(got, wantResults(jobs)) {
		t.Error("results differ after eviction + local fallback")
	}
	if len(c.Alive()) != 0 {
		t.Errorf("failing worker still alive: %v", c.Alive())
	}
	if v := reg.Counter("specfetch_dispatch_evictions_total", "").Value(); v != 1 {
		t.Errorf("evictions = %d, want 1", v)
	}
	if v := reg.Counter("specfetch_dispatch_retries_total", "").Value(); v != int64(fastOptions().EvictAfter) {
		t.Errorf("retries = %d, want exactly EvictAfter (%d)", v, fastOptions().EvictAfter)
	}
	if localCalls.Load() == 0 {
		t.Error("no local fallback after the only worker was evicted")
	}
}

// TestCoordinatorAllWorkersGone: with every worker unreachable, the whole
// sweep falls back to local execution and still completes.
func TestCoordinatorAllWorkersGone(t *testing.T) {
	dead := httptest.NewServer(nil)
	dead.Close() // nothing listens here any more
	c := New(fastOptions(dead.URL))

	jobs := testJobs(7)
	var localCalls atomic.Int64
	got, err := c.Run(jobs, localRunner(&localCalls), nil)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !reflect.DeepEqual(got, wantResults(jobs)) {
		t.Error("local-fallback results differ")
	}
	if localCalls.Load() == 0 {
		t.Error("local runner never ran with a dead fleet")
	}
	if len(c.Alive()) != 0 {
		t.Errorf("dead worker still alive: %v", c.Alive())
	}

	// A later sweep on the same coordinator skips remote entirely.
	localCalls.Store(0)
	if _, err := c.Run(testJobs(3), localRunner(&localCalls), nil); err != nil {
		t.Fatalf("second Run: %v", err)
	}
	if localCalls.Load() == 0 {
		t.Error("second sweep did not fall back locally")
	}
}

// TestCoordinatorPermanentError: a job the worker rejects as unrunnable
// (4xx) is not retried remotely; the local runner decides the sweep's
// deterministic outcome.
func TestCoordinatorPermanentError(t *testing.T) {
	boom := fmt.Errorf("engine exploded deterministically")
	srv := httptest.NewServer(NewServer(ServerOptions{Runner: func(spec JobSpec) (JobResult, error) {
		return JobResult{}, boom
	}}).Handler())
	t.Cleanup(srv.Close)

	reg := obs.NewRegistry()
	opt := fastOptions(srv.URL)
	opt.Metrics = reg
	c := New(opt)

	jobs := testJobs(2)
	var localCalls atomic.Int64
	wantErr := fmt.Errorf("local says no")
	_, err := c.Run(jobs, func(offset int, js []JobSpec) ([]JobResult, error) {
		localCalls.Add(1)
		return nil, wantErr
	}, nil)
	if err == nil || !strings.Contains(err.Error(), "local says no") {
		t.Fatalf("err = %v, want the local runner's verdict", err)
	}
	if localCalls.Load() == 0 {
		t.Fatal("local runner never consulted for the permanent error")
	}
	// The worker stays alive — the batch was at fault, not the worker.
	if len(c.Alive()) != 1 {
		t.Errorf("healthy worker evicted over a permanent job error; alive=%v", c.Alive())
	}
	if v := reg.Counter("specfetch_dispatch_retries_total", "").Value(); v != 0 {
		t.Errorf("permanent error burned %d retries", v)
	}
}

// TestCoordinatorRunnerPanic: a job whose Runner panics is a permanent job
// error, not a worker fault. The worker answers one 422 and stays alive;
// the coordinator burns no retries and evicts nobody, and the local runner
// decides the sweep's outcome.
func TestCoordinatorRunnerPanic(t *testing.T) {
	inner := NewServer(ServerOptions{Runner: func(JobSpec) (JobResult, error) {
		panic("engine invariant broken")
	}}).Handler()
	var status422, requests atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rec := httptest.NewRecorder()
		inner.ServeHTTP(rec, r)
		if r.URL.Path == "/v1/run" {
			requests.Add(1)
			if rec.Code == http.StatusUnprocessableEntity {
				status422.Add(1)
			}
		}
		for k, v := range rec.Header() {
			w.Header()[k] = v
		}
		w.WriteHeader(rec.Code)
		_, _ = w.Write(rec.Body.Bytes())
	}))
	t.Cleanup(srv.Close)

	reg := obs.NewRegistry()
	opt := fastOptions(srv.URL)
	opt.Metrics = reg
	c := New(opt)

	var localCalls atomic.Int64
	got, err := c.Run(testJobs(2), localRunner(&localCalls), nil)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !reflect.DeepEqual(got, wantResults(testJobs(2))) {
		t.Error("results differ after the local runner took over the panicking batch")
	}
	if n := status422.Load(); n != 1 || requests.Load() != 1 {
		t.Errorf("worker answered %d of %d batch requests with 422, want exactly 1 of 1", n, requests.Load())
	}
	if localCalls.Load() == 0 {
		t.Error("local runner never consulted for the panicking batch")
	}
	if v := reg.Counter("specfetch_dispatch_retries_total", "").Value(); v != 0 {
		t.Errorf("runner panic burned %d retries", v)
	}
	if v := reg.Counter("specfetch_dispatch_evictions_total", "").Value(); v != 0 || len(c.Alive()) != 1 {
		t.Errorf("runner panic evicted the worker: evictions=%d alive=%v", v, c.Alive())
	}
}

// TestCoordinatorVersionMismatch: a worker speaking a different wire
// version is rejected up front by its own 400, and the sweep still
// completes through local fallback.
func TestCoordinatorVersionMismatch(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusBadRequest)
		_ = json.NewEncoder(w).Encode(ErrorBody{Error: "wire version 99, worker speaks 1", Job: -1})
	}))
	t.Cleanup(srv.Close)
	c := New(fastOptions(srv.URL))

	jobs := testJobs(3)
	var localCalls atomic.Int64
	got, err := c.Run(jobs, localRunner(&localCalls), nil)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !reflect.DeepEqual(got, wantResults(jobs)) {
		t.Error("results differ after version-mismatch fallback")
	}
	if localCalls.Load() == 0 {
		t.Error("version mismatch did not fall back locally")
	}
}

// TestServerRejects covers the worker-side 400/422 surface.
func TestServerRejects(t *testing.T) {
	srv := newWorker(t, 0)
	post := func(body string) (int, ErrorBody) {
		resp, err := http.Post(srv.URL+"/v1/run", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatalf("post: %v", err)
		}
		defer func() { _ = resp.Body.Close() }()
		var eb ErrorBody
		_ = json.NewDecoder(resp.Body).Decode(&eb)
		return resp.StatusCode, eb
	}

	if code, _ := post("{not json"); code != http.StatusBadRequest {
		t.Errorf("malformed JSON: status %d, want 400", code)
	}
	if code, _ := post(`{"version":99,"id":1,"jobs":[]}`); code != http.StatusBadRequest {
		t.Errorf("version mismatch: status %d, want 400", code)
	}
	if code, _ := post(`{"version":1,"id":1,"jobs":[]}`); code != http.StatusBadRequest {
		t.Errorf("empty batch: status %d, want 400", code)
	}
	bad := fixtureBatch()
	bad.Jobs[0].Pred = "perceptron"
	raw, err := json.Marshal(bad)
	if err != nil {
		t.Fatal(err)
	}
	code, eb := post(string(raw))
	if code != http.StatusUnprocessableEntity {
		t.Errorf("invalid job: status %d, want 422", code)
	}
	if eb.Job != 0 {
		t.Errorf("invalid job index = %d, want 0", eb.Job)
	}
}

// TestServerBodyLimit: the request body is bounded by MaxBatchJobs (16 KiB
// per job); an oversized body is a permanent 413 and never reaches the
// Runner.
func TestServerBodyLimit(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(NewServer(ServerOptions{
		Runner: func(JobSpec) (JobResult, error) {
			calls.Add(1)
			return JobResult{}, nil
		},
		MaxBatchJobs: 1,
	}).Handler())
	t.Cleanup(srv.Close)
	body := `{"version":1,"id":1,"campaign":"` + strings.Repeat("x", 1<<20) + `","jobs":[]}`
	resp, err := http.Post(srv.URL+"/v1/run", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("post: %v", err)
	}
	defer func() { _ = resp.Body.Close() }()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("1 MiB body with MaxBatchJobs 1: status %d, want 413", resp.StatusCode)
	}
	var eb ErrorBody
	if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil || eb.Job != -1 {
		t.Errorf("error body %+v (%v), want a batch-level error", eb, err)
	}
	if n := calls.Load(); n != 0 {
		t.Errorf("Runner called %d times for a refused body", n)
	}

	// A real one-job batch fits the same limit.
	one := fixtureBatch()
	one.Jobs = one.Jobs[:1]
	raw, err := json.Marshal(one)
	if err != nil {
		t.Fatal(err)
	}
	resp2, err := http.Post(srv.URL+"/v1/run", "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("post: %v", err)
	}
	_ = resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK || calls.Load() != 1 {
		t.Errorf("one-job batch with MaxBatchJobs 1: status %d, %d Runner calls", resp2.StatusCode, calls.Load())
	}
}

// TestServerRejectsOversizedJobs: a job outside the resource envelope is a
// permanent 422 naming the job, and the Runner never sees it.
func TestServerRejectsOversizedJobs(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(NewServer(ServerOptions{
		Runner: func(spec JobSpec) (JobResult, error) {
			calls.Add(1)
			return fakeResult(spec), nil
		},
	}).Handler())
	t.Cleanup(srv.Close)
	for name, spec := range oversizedJobs() {
		b := fixtureBatch()
		b.Jobs = []JobSpec{b.Jobs[1], spec}
		raw, err := json.Marshal(b)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(srv.URL+"/v1/run", "application/json", bytes.NewReader(raw))
		if err != nil {
			t.Fatalf("post: %v", err)
		}
		var eb ErrorBody
		_ = json.NewDecoder(resp.Body).Decode(&eb)
		_ = resp.Body.Close()
		if resp.StatusCode != http.StatusUnprocessableEntity || eb.Job != 1 {
			t.Errorf("%s: status %d job %d, want 422 for job 1", name, resp.StatusCode, eb.Job)
		}
	}
	if n := calls.Load(); n != 0 {
		t.Errorf("Runner called %d times for refused batches", n)
	}
}

// logEvents filters a logger's flight recorder down to one event type.
func logEvents(l *sweeplog.Logger, ev string) []string {
	var out []string
	for _, line := range l.Recent() {
		if strings.Contains(line, `"ev":"`+ev+`"`) {
			out = append(out, line)
		}
	}
	return out
}

// TestCoordinatorLogCauses: each failure mode of a flaky worker is recorded
// in the decision log as a retry with its classified cause, alongside the
// dispatch/backoff/requeue records of the recovery.
func TestCoordinatorLogCauses(t *testing.T) {
	wantCause := map[string]sweeplog.Cause{
		"drop":    sweeplog.Cause5xx,
		"corrupt": sweeplog.CauseCorrupt,
		"delay":   sweeplog.CauseNetwork,
		"tamper":  sweeplog.CauseTamper,
	}
	for _, mode := range []string{"drop", "corrupt", "delay", "tamper"} {
		t.Run(mode, func(t *testing.T) {
			healthy := newWorker(t, 5*time.Millisecond)
			flaky := &flakyHandler{inner: NewServer(ServerOptions{Runner: fakeRunner}).Handler(), mode: mode}
			flaky.bad.Store(1 << 30)
			flakySrv := httptest.NewServer(flaky)
			t.Cleanup(flakySrv.Close)

			log := sweeplog.New(sweeplog.Options{})
			opt := fastOptions(healthy.URL, flakySrv.URL)
			if mode == "delay" {
				opt.Timeout = 100 * time.Millisecond
			}
			opt.Log = log
			opt.Campaign = "test-" + mode
			c := New(opt)

			var localCalls atomic.Int64
			if _, err := c.Run(testJobs(12), localRunner(&localCalls), nil); err != nil {
				t.Fatalf("Run: %v", err)
			}

			retries := logEvents(log, "retry")
			if len(retries) == 0 {
				t.Fatal("no retry records in the decision log")
			}
			want := `"cause":"` + string(wantCause[mode]) + `"`
			for _, line := range retries {
				if !strings.Contains(line, want) {
					t.Errorf("retry record lacks %s: %s", want, line)
				}
				if !strings.Contains(line, `"campaign":"test-`+mode+`"`) {
					t.Errorf("retry record lacks the campaign: %s", line)
				}
			}
			if len(logEvents(log, "dispatch")) == 0 {
				t.Error("no dispatch records")
			}
			if len(logEvents(log, "backoff")) == 0 {
				t.Error("no backoff records")
			}
		})
	}
}

// TestCoordinatorEvictionLog: the degraded-run flight recording is exact —
// a lone always-failing worker yields precisely EvictAfter retries (cause
// 5xx), their requeues, one eviction, and a no-workers local fallback for
// every batch.
func TestCoordinatorEvictionLog(t *testing.T) {
	flaky := &flakyHandler{inner: NewServer(ServerOptions{Runner: fakeRunner}).Handler(), mode: "drop"}
	flaky.bad.Store(1 << 30)
	srv := httptest.NewServer(flaky)
	t.Cleanup(srv.Close)

	log := sweeplog.New(sweeplog.Options{})
	opt := fastOptions(srv.URL)
	opt.Log = log
	c := New(opt)

	jobs := testJobs(12) // batch size 3 -> 4 batches
	var localCalls atomic.Int64
	if _, err := c.Run(jobs, localRunner(&localCalls), nil); err != nil {
		t.Fatalf("Run: %v", err)
	}

	if got := logEvents(log, "evict"); len(got) != 1 {
		t.Errorf("evict records = %d, want exactly 1:\n%s", len(got), strings.Join(got, "\n"))
	} else if !strings.Contains(got[0], `"worker":"`+srv.URL+`"`) {
		t.Errorf("evict record names the wrong worker: %s", got[0])
	}
	retries := logEvents(log, "retry")
	if len(retries) != opt.EvictAfter {
		t.Errorf("retry records = %d, want exactly EvictAfter (%d)", len(retries), opt.EvictAfter)
	}
	for _, line := range retries {
		if !strings.Contains(line, `"cause":"5xx"`) {
			t.Errorf("retry cause is not 5xx: %s", line)
		}
	}
	if got := logEvents(log, "requeue"); len(got) != opt.EvictAfter {
		t.Errorf("requeue records = %d, want %d (each failed attempt requeued before eviction)", len(got), opt.EvictAfter)
	}
	locals := logEvents(log, "local")
	if len(locals) != 4 {
		t.Errorf("local fallback records = %d, want 4 (every batch)", len(locals))
	}
	for _, line := range locals {
		if !strings.Contains(line, `"cause":"no-workers"`) {
			t.Errorf("local fallback cause is not no-workers: %s", line)
		}
	}
}

// TestCoordinatorFleetSpans: workers return per-job span timings, and the
// coordinator re-anchors them into one ProcessSpans per (URL, pid) that
// renders as its own pid track in the combined trace.
func TestCoordinatorFleetSpans(t *testing.T) {
	w1, w2 := newWorker(t, 5*time.Millisecond), newWorker(t, 5*time.Millisecond)
	spans := obs.NewSpanTracer()
	opt := fastOptions(w1.URL, w2.URL)
	opt.Spans = spans
	c := New(opt)

	jobs := testJobs(18)
	var localCalls atomic.Int64
	if _, err := c.Run(jobs, localRunner(&localCalls), nil); err != nil {
		t.Fatalf("Run: %v", err)
	}

	fleet := c.FleetSpans()
	if len(fleet) != 2 {
		t.Fatalf("fleet processes = %d, want 2 (both workers participated)", len(fleet))
	}
	total := 0
	wantPid := strconv.Itoa(os.Getpid()) // httptest workers share the test process
	for _, p := range fleet {
		if !strings.Contains(p.Name, "worker http://") || !strings.Contains(p.Name, "(pid "+wantPid+")") {
			t.Errorf("fleet process name = %q, want worker URL + pid", p.Name)
		}
		if len(p.Spans) == 0 {
			t.Errorf("fleet process %q has no spans", p.Name)
		}
		for _, s := range p.Spans {
			if s.Name == "" || s.Dur < 0 || s.Start < 0 {
				t.Errorf("malformed re-anchored span %+v in %q", s, p.Name)
			}
			// Re-anchored onto the dispatch axis: every worker span must sit
			// inside the window covered by some dispatch span.
			if s.Start > time.Hour {
				t.Errorf("span %+v far off the coordinator axis", s)
			}
		}
		total += len(p.Spans)
	}
	if total != len(jobs) {
		t.Errorf("fleet spans = %d, want one per job (%d)", total, len(jobs))
	}

	// The combined trace renders each fleet process as its own pid track.
	var buf bytes.Buffer
	if err := (obs.CombinedTrace{Spans: spans.Spans(), Fleet: fleet}).Write(&buf); err != nil {
		t.Fatalf("CombinedTrace.Write: %v", err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("combined fleet trace is not valid JSON: %v", err)
	}
	fleetProcs := map[float64]string{}
	for _, ev := range doc.TraceEvents {
		pid, _ := ev["pid"].(float64)
		if name, _ := ev["name"].(string); name == "process_name" && pid >= 3 {
			args, _ := ev["args"].(map[string]any)
			fleetProcs[pid], _ = args["name"].(string)
		}
	}
	if len(fleetProcs) != 2 {
		t.Errorf("fleet pid tracks = %v, want 2", fleetProcs)
	}
}

// TestCoordinatorStatusHandler: /sweepz reports live dispatch state plus
// the flight recorder, and degrades gracefully with no coordinator at all.
func TestCoordinatorStatusHandler(t *testing.T) {
	w1 := newWorker(t, 0)
	log := sweeplog.New(sweeplog.Options{})
	opt := fastOptions(w1.URL)
	opt.Log = log
	opt.Campaign = "statusz"
	c := New(opt)

	var localCalls atomic.Int64
	if _, err := c.Run(testJobs(6), localRunner(&localCalls), nil); err != nil {
		t.Fatalf("Run: %v", err)
	}

	rec := httptest.NewRecorder()
	c.StatusHandler(log).ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/sweepz", nil))
	body := rec.Body.String()
	for _, want := range []string{"campaign statusz", w1.URL, "remote batches: 2 (6 jobs)", "recent decisions:", `"ev":"dispatch"`} {
		if !strings.Contains(body, want) {
			t.Errorf("/sweepz missing %q:\n%s", want, body)
		}
	}
	s := c.Status()
	if s.RemoteBatches != 2 || s.RemoteJobs != 6 || s.QueueDepth != 0 || s.Inflight != 0 {
		t.Errorf("Status = %+v, want 2 remote batches, 6 jobs, drained queue", s)
	}

	var nilC *Coordinator
	rec = httptest.NewRecorder()
	nilC.StatusHandler(nil).ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/sweepz", nil))
	if !strings.Contains(rec.Body.String(), "no sweep coordinator") {
		t.Errorf("nil-coordinator /sweepz = %q", rec.Body.String())
	}
}

// postBatch runs one batch against a server and decodes the result.
func postBatch(t *testing.T, url string, batch Batch) BatchResult {
	t.Helper()
	raw, err := json.Marshal(batch)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/run", "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("post: %v", err)
	}
	defer func() { _ = resp.Body.Close() }()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch refused: status %d", resp.StatusCode)
	}
	var br BatchResult
	if err := json.NewDecoder(resp.Body).Decode(&br); err != nil {
		t.Fatalf("decode: %v", err)
	}
	return br
}

// TestServerHealthzAdvances: the /healthz JSON fields parse and jobs_done
// advances across two batches.
func TestServerHealthzAdvances(t *testing.T) {
	srv := newWorker(t, 0)
	health := func() (string, int, int64) {
		resp, err := http.Get(srv.URL + "/healthz")
		if err != nil {
			t.Fatalf("get: %v", err)
		}
		defer func() { _ = resp.Body.Close() }()
		var h struct {
			Status   string `json:"status"`
			Version  int    `json:"version"`
			JobsDone int64  `json:"jobs_done"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
			t.Fatalf("decode: %v", err)
		}
		return h.Status, h.Version, h.JobsDone
	}

	status, version, done := health()
	if status != "ok" || version != WireVersion || done != 0 {
		t.Fatalf("fresh healthz = %s/%d/%d, want ok/%d/0", status, version, done, WireVersion)
	}
	postBatch(t, srv.URL, Batch{Version: WireVersion, ID: 1, Jobs: testJobs(3)})
	if _, _, done := health(); done != 3 {
		t.Errorf("jobs_done after first batch = %d, want 3", done)
	}
	postBatch(t, srv.URL, Batch{Version: WireVersion, ID: 2, Jobs: testJobs(2)})
	if _, _, done := health(); done != 5 {
		t.Errorf("jobs_done after second batch = %d, want 5", done)
	}
}

// TestServerResultTelemetry: batch results carry the worker's pid, total
// execution time, and one span per job with sane offsets.
func TestServerResultTelemetry(t *testing.T) {
	srv := newWorker(t, time.Millisecond)
	jobs := testJobs(3)
	br := postBatch(t, srv.URL, Batch{Version: WireVersion, ID: 5, Campaign: "tele", Attempt: 1, Jobs: jobs})
	if br.Pid != os.Getpid() {
		t.Errorf("result pid = %d, want %d", br.Pid, os.Getpid())
	}
	if br.ExecUS <= 0 {
		t.Errorf("exec_us = %d, want > 0", br.ExecUS)
	}
	if len(br.Spans) != len(jobs) {
		t.Fatalf("spans = %d, want one per job (%d)", len(br.Spans), len(jobs))
	}
	for i, s := range br.Spans {
		if s.Job != i {
			t.Errorf("span %d labels job %d", i, s.Job)
		}
		if s.Name == "" || s.StartUS < 0 || s.DurUS < 0 {
			t.Errorf("malformed span %+v", s)
		}
		if s.StartUS+s.DurUS > br.ExecUS+1000 {
			t.Errorf("span %+v overruns batch execution (%dus)", s, br.ExecUS)
		}
	}
}

// parseHistogram mirrors the obs-package exposition parser: cumulative
// bucket counts plus sum and count for one histogram in a registry dump.
func parseHistogram(t *testing.T, text, name string) (cum []int64, count int64) {
	t.Helper()
	sawType := false
	for _, line := range strings.Split(text, "\n") {
		switch {
		case line == "# TYPE "+name+" histogram":
			sawType = true
		case strings.HasPrefix(line, name+"_bucket{le=\""):
			_, countStr, ok := strings.Cut(line, "\"} ")
			if !ok {
				t.Fatalf("malformed bucket line %q", line)
			}
			n, err := strconv.ParseInt(countStr, 10, 64)
			if err != nil {
				t.Fatalf("bucket count in %q: %v", line, err)
			}
			cum = append(cum, n)
		case strings.HasPrefix(line, name+"_count "):
			v, err := strconv.ParseInt(strings.TrimPrefix(line, name+"_count "), 10, 64)
			if err != nil {
				t.Fatalf("count line %q: %v", line, err)
			}
			count = v
		}
	}
	if !sawType {
		t.Fatalf("no TYPE histogram line for %q in exposition:\n%s", name, text)
	}
	return cum, count
}

// TestWorkerMetricsExposition: the worker's /metrics carries the
// sweep_batch_seconds histogram, the jobs_failed counter, and the
// wire_version gauge, and the exposition round-trips through the
// Prometheus text parser.
func TestWorkerMetricsExposition(t *testing.T) {
	reg := obs.NewRegistry()
	srv := httptest.NewServer(NewServer(ServerOptions{Runner: fakeRunner, Metrics: reg}).Handler())
	t.Cleanup(srv.Close)

	// One good batch, then one with an invalid job (422), so every metric
	// has a non-trivial value.
	postBatch(t, srv.URL, Batch{Version: WireVersion, ID: 1, Jobs: testJobs(3)})
	bad := Batch{Version: WireVersion, ID: 2, Jobs: testJobs(1)}
	bad.Jobs[0].Insts = 0
	raw, err := json.Marshal(bad)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(srv.URL+"/v1/run", "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("post: %v", err)
	}
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("invalid job: status %d, want 422", resp.StatusCode)
	}

	resp, err = http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatalf("metrics: %v", err)
	}
	defer func() { _ = resp.Body.Close() }()
	rawText, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read exposition: %v", err)
	}
	text := string(rawText)

	cum, count := parseHistogram(t, text, "sweep_batch_seconds")
	if count != 1 {
		t.Errorf("sweep_batch_seconds count = %d, want 1 completed batch", count)
	}
	if len(cum) == 0 || cum[len(cum)-1] != count {
		t.Errorf("sweep_batch_seconds +Inf bucket = %v, want cumulative count %d", cum, count)
	}
	if !strings.Contains(text, "\njobs_failed 1\n") {
		t.Errorf("exposition lacks jobs_failed 1:\n%s", text)
	}
	if !strings.Contains(text, fmt.Sprintf("\nwire_version %d\n", WireVersion)) {
		t.Errorf("exposition lacks wire_version %d:\n%s", WireVersion, text)
	}
}

// TestServerHealthz: the daemon self-reports protocol version and work
// done.
func TestServerHealthz(t *testing.T) {
	srv := newWorker(t, 0)
	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatalf("get: %v", err)
	}
	defer func() { _ = resp.Body.Close() }()
	var h struct {
		Status   string `json:"status"`
		Version  int    `json:"version"`
		JobsDone int64  `json:"jobs_done"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if h.Status != "ok" || h.Version != WireVersion {
		t.Errorf("healthz = %+v", h)
	}
}
