package experiments

import (
	"encoding/json"
	"testing"

	"specfetch/internal/core"
	"specfetch/internal/distsweep"
	"specfetch/internal/synth"
)

// fuzzMaxInsts clamps each fuzzed job's budget so an input runs in
// milliseconds; the decode, validate and engine setup paths are what the
// fuzzer is after, not long runs.
const fuzzMaxInsts = 2000

// workerBatchSeeds returns the fuzz seed corpus as encoded one-job batches:
// a valid Table 6 job, a valid Adaptive job, and four jobs whose one
// oversized field would size a worker allocation past the resource
// envelope.
func workerBatchSeeds(t testing.TB) [][]byte {
	t.Helper()
	b, err := synth.Build(synth.GCC())
	if err != nil {
		t.Fatal(err)
	}
	opt := Options{Insts: fuzzMaxInsts}
	t6 := baseConfig(core.Resume)
	t6.ICache = cacheConfig(32 * 1024)
	ad := baseConfig(core.Adaptive)
	ad.MissPenalty = 20
	ad.FlushInterval = 15_000
	ad.AdaptStrategy = "phase:6"
	ad.AdaptInterval = 2500
	var jobs []distsweep.JobSpec
	for _, cfg := range []core.Config{t6, ad} {
		spec, ok := specForCell(opt, newCell(b, cfg))
		if !ok {
			t.Fatal("seed cell not serializable")
		}
		jobs = append(jobs, spec)
	}
	for _, edit := range []func(*distsweep.JobSpec){
		func(s *distsweep.JobSpec) { s.Config.ICache.SizeBytes = 1 << 40 },
		func(s *distsweep.JobSpec) { s.Config.ICache.VictimLines = 1 << 40 },
		func(s *distsweep.JobSpec) { s.Config.RASDepth = 1 << 40 },
		func(s *distsweep.JobSpec) { s.Profile.NumFuncs = 1 << 30 },
	} {
		spec := jobs[0]
		edit(&spec)
		jobs = append(jobs, spec)
	}
	var out [][]byte
	for i, spec := range jobs {
		raw, err := json.Marshal(distsweep.Batch{Version: distsweep.WireVersion, ID: uint64(i), Jobs: []distsweep.JobSpec{spec}})
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, raw)
	}
	return out
}

// FuzzWorkerBatch drives the worker's whole input path: arbitrary bytes
// decode as a distsweep.Batch, each job is validated, and every valid job
// runs through JobRunner.Run on a tiny budget. Every job must come back as
// a result or an error — a panic or an out-of-memory allocation fails the
// target — and a result must carry the audit identity the coordinator
// checks.
func FuzzWorkerBatch(f *testing.F) {
	for _, seed := range workerBatchSeeds(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var batch distsweep.Batch
		if json.Unmarshal(data, &batch) != nil {
			return
		}
		r := NewJobRunner(nil)
		for i, spec := range batch.Jobs {
			if spec.Validate() != nil {
				continue
			}
			spec.Insts = min(spec.Insts, fuzzMaxInsts)
			res, err := r.Run(spec)
			if err == nil && !res.SelfConsistent() {
				t.Errorf("job %d: result fails its own audit identity", i)
			}
		}
	})
}

// TestWorkerBatchSeeds pins the seed corpus's intent: the first two seeds
// run, the four oversized ones are refused before any allocation.
func TestWorkerBatchSeeds(t *testing.T) {
	r := NewJobRunner(nil)
	for i, raw := range workerBatchSeeds(t) {
		var batch distsweep.Batch
		if err := json.Unmarshal(raw, &batch); err != nil {
			t.Fatal(err)
		}
		_, err := r.Run(batch.Jobs[0])
		if valid := i < 2; (err == nil) != valid {
			t.Errorf("seed %d: Run error %v, want valid=%v", i, err, valid)
		}
	}
}
