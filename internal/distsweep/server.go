package distsweep

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"sync/atomic"

	"specfetch/internal/hosttime"
	"specfetch/internal/obs"
	"specfetch/internal/sweeplog"
)

// Runner executes one validated job spec and returns the result plus the
// audit identity the run was verified against. The experiments package
// supplies the production runner (spec → bench → simulate); tests supply
// fakes. A Runner must be safe for concurrent use: the HTTP server invokes
// it from one goroutine per in-flight batch.
type Runner func(spec JobSpec) (JobResult, error)

// ServerOptions configures a worker-side batch server.
type ServerOptions struct {
	// Runner executes each job; required.
	Runner Runner
	// Metrics, when non-nil, receives worker-side counters
	// (specfetch_worker_*), the sweep_batch_seconds histogram, the
	// jobs_failed counter, and the wire_version gauge, and is exposed at
	// /metrics on the handler.
	Metrics *obs.Registry
	// Log, when non-nil, records batch execution (batch_start, batch_done,
	// job_error) under the campaign the coordinator stamped on the batch.
	Log *sweeplog.Logger
	// MaxBatchJobs rejects batches larger than this with HTTP 400;
	// 0 means the default of 4096. It also bounds the request body, at
	// maxJobBytes per job; a larger body is refused with HTTP 413.
	MaxBatchJobs int
}

// maxJobBytes is the request-body allowance per job of MaxBatchJobs: over
// ten times an encoded JobSpec (about 1 KB of profile, config and options),
// so any batch the job limit admits fits, while a worker never reads more
// than 64 MiB of body at the default limit.
const maxJobBytes = 16 << 10

// Server is the worker half of the protocol: it decodes batches, runs each
// job through the Runner in job order, and returns job-ordered results.
// Jobs within one batch run serially; process-level parallelism comes from
// running more workers (or pointing several coordinators at one worker).
type Server struct {
	opt  ServerOptions
	mux  *http.ServeMux
	jobs atomic.Int64 // jobs completed since start, reported by /healthz
}

// NewServer builds a worker server around a Runner.
func NewServer(opt ServerOptions) *Server {
	if opt.Runner == nil {
		panic("distsweep: ServerOptions.Runner is required")
	}
	if opt.MaxBatchJobs <= 0 {
		opt.MaxBatchJobs = 4096
	}
	s := &Server{opt: opt, mux: http.NewServeMux()}
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("POST /v1/run", s.handleRun)
	if opt.Metrics != nil {
		s.mux.Handle("GET /metrics", opt.Metrics.Handler())
		opt.Metrics.Gauge("wire_version",
			"Sweep wire protocol version this worker speaks.").Set(float64(WireVersion))
	}
	return s
}

// Handler returns the HTTP handler serving /healthz, /v1/run, and (with
// metrics configured) /metrics.
func (s *Server) Handler() http.Handler { return s.mux }

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	// Ignoring the write error: the peer hanging up mid-health-check needs
	// no recovery beyond dropping the connection.
	_ = json.NewEncoder(w).Encode(map[string]any{
		"status":    "ok",
		"version":   WireVersion,
		"jobs_done": s.jobs.Load(),
	})
}

// fail writes an ErrorBody with the given status. 4xx means the batch (or
// a job in it) is permanently unrunnable — the coordinator must not burn
// retries on it; 5xx means this worker failed and another may succeed.
func (s *Server) fail(w http.ResponseWriter, status int, job int, format string, args ...any) {
	if s.opt.Metrics != nil {
		s.opt.Metrics.Counter("specfetch_worker_batch_errors_total",
			"Batches answered with an error status.").Inc()
		if job >= 0 {
			s.opt.Metrics.Counter("jobs_failed",
				"Sweep jobs that failed validation or execution on this worker.").Inc()
		}
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(ErrorBody{Error: fmt.Sprintf(format, args...), Job: job})
}

func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	r.Body = http.MaxBytesReader(w, r.Body, int64(s.opt.MaxBatchJobs)*maxJobBytes)
	var batch Batch
	dec := json.NewDecoder(r.Body)
	if err := dec.Decode(&batch); err != nil {
		status := http.StatusBadRequest
		if tooBig := (*http.MaxBytesError)(nil); errors.As(err, &tooBig) {
			status = http.StatusRequestEntityTooLarge
		}
		s.fail(w, status, -1, "decoding batch: %v", err)
		return
	}
	if batch.Version != WireVersion {
		s.fail(w, http.StatusBadRequest, -1,
			"wire version %d, worker speaks %d", batch.Version, WireVersion)
		return
	}
	if len(batch.Jobs) == 0 || len(batch.Jobs) > s.opt.MaxBatchJobs {
		s.fail(w, http.StatusBadRequest, -1,
			"batch has %d jobs (limit %d)", len(batch.Jobs), s.opt.MaxBatchJobs)
		return
	}
	for i, job := range batch.Jobs {
		if err := job.Validate(); err != nil {
			s.opt.Log.JobError(batch.Campaign, batch.ID, i, err)
			s.fail(w, http.StatusUnprocessableEntity, i, "job %d: %v", i, err)
			return
		}
	}

	s.opt.Log.BatchStart(batch.Campaign, batch.ID, batch.Attempt, len(batch.Jobs))
	epoch := hosttime.Now()
	out := BatchResult{
		Version: WireVersion, ID: batch.ID,
		Pid:     os.Getpid(),
		Results: make([]JobResult, 0, len(batch.Jobs)),
		Spans:   make([]WireSpan, 0, len(batch.Jobs)),
	}
	for i, job := range batch.Jobs {
		start := hosttime.Now()
		res, err := s.runJob(job)
		if err != nil {
			// A failing simulation is deterministic: every retry would fail
			// identically, so report it permanent (422) with the job index.
			s.opt.Log.JobError(batch.Campaign, batch.ID, i, err)
			s.fail(w, http.StatusUnprocessableEntity, i, "job %d: %v", i, err)
			return
		}
		// Per-job timing on this process's monotonic clock, as an offset
		// from batch-execution start: the coordinator re-anchors these onto
		// its own axis for the combined fleet trace.
		out.Spans = append(out.Spans, WireSpan{
			Job:     i,
			Name:    job.Profile.Name + "/" + job.Config.Policy.String(),
			StartUS: start.Sub(epoch).Microseconds(),
			DurUS:   hosttime.Since(start).Microseconds(),
		})
		out.Results = append(out.Results, res)
		s.jobs.Add(1)
		if s.opt.Metrics != nil {
			s.opt.Metrics.Counter("specfetch_worker_jobs_total",
				"Sweep jobs completed by this worker.").Inc()
		}
	}
	exec := hosttime.Since(epoch)
	out.ExecUS = exec.Microseconds()
	s.opt.Log.BatchDone(batch.Campaign, batch.ID, len(batch.Jobs), exec)
	if s.opt.Metrics != nil {
		s.opt.Metrics.Counter("specfetch_worker_batches_total",
			"Batches completed by this worker.").Inc()
		s.opt.Metrics.Histogram("sweep_batch_seconds",
			"Batch execution wall time on this worker.").Observe(exec.Seconds())
	}
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(out); err != nil {
		// Headers are already out; nothing more to tell the peer. The
		// coordinator sees a truncated body and treats it as a worker fault.
		return
	}
}

// runJob invokes the Runner, converting any panic into an error so one
// poisoned job cannot take down the daemon. A panicking job is as
// deterministic as a failing one, so it takes the same permanent (422)
// path: retrying it elsewhere would only poison every worker in turn. A
// sampled-audit stream violation (*obs.AuditError) passes through as
// itself.
func (s *Server) runJob(job JobSpec) (res JobResult, err error) {
	defer func() {
		if r := recover(); r != nil {
			if aerr, ok := r.(*obs.AuditError); ok {
				err = aerr
				return
			}
			err = fmt.Errorf("runner panic: %v", r)
		}
	}()
	return s.opt.Runner(job)
}
