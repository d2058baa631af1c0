package experiments

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/cind"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/rdf"
	"repro/internal/source"
)

// BenchSchema versions the machine-readable benchmark record. Bump it when a
// field changes meaning; benchdiff refuses to compare records across schemas.
const BenchSchema = "rdfind-bench/v1"

// PipelineRun is one instrumented discovery run inside an experiment: which
// configuration ran, how long it took, and the engine's work accounting and
// trace. Every span's input records reconcile with TotalWork — the invariant
// TestBenchSpansReconcile pins per experiment.
type PipelineRun struct {
	Label        string  `json:"label"`
	Variant      string  `json:"variant"`
	Workers      int     `json:"workers"`
	Support      int     `json:"support"`
	WallMS       float64 `json:"wall_ms"`
	TotalWork    int64   `json:"total_work"`
	CriticalPath int64   `json:"critical_path"`
	Speedup      float64 `json:"speedup"`
	Retries      int     `json:"retries,omitempty"`
	Failed       bool    `json:"failed,omitempty"`
	// Mallocs/AllocBytes are the run's process-wide allocation deltas
	// (core.RunStats.Mallocs/AllocBytes). Additive within schema v1: zero in
	// records written before the counters existed, and benchdiff only
	// compares them when both sides measured.
	Mallocs    uint64 `json:"mallocs,omitempty"`
	AllocBytes uint64 `json:"alloc_bytes,omitempty"`
	// SpilledBytes/SpilledRuns are the engine's out-of-core activity
	// (core.RunStats); additive within schema v1 like Mallocs, zero in
	// unbudgeted runs and in records from before spilling existed.
	SpilledBytes int64 `json:"spilled_bytes,omitempty"`
	SpilledRuns  int64 `json:"spilled_runs,omitempty"`
	// MaterializedBytes estimates the bytes buffered into partition slices by
	// narrow-operator stages (core.RunStats.MaterializedBytes); additive within
	// schema v1, zero in records from before the counter existed. benchdiff
	// gates on regressions when both sides measured.
	MaterializedBytes int64 `json:"materialized_bytes,omitempty"`
	// Batches/BatchFill account the column batches of the run's fused chains
	// (core.RunStats.Batches/BatchFill); additive within schema v1, zero in
	// records from before the counters existed.
	Batches   int64   `json:"batches,omitempty"`
	BatchFill float64 `json:"batch_fill,omitempty"`
	// OptDecisions/OptRules summarize the plan optimizer's report for the run:
	// how many per-stage rewrite/policy decisions fired and the distinct rule
	// names. Additive within schema v1, zero/absent on optimizer-off runs and
	// in records from before the optimizer existed.
	OptDecisions int      `json:"opt_decisions,omitempty"`
	OptRules     []string `json:"opt_rules,omitempty"`
	// ShuffleBytes is the streamed-ingest placement shuffle's wire volume
	// (core.IngestStats.ShuffleBytes) — the column the partition experiment
	// ablates. Additive within schema v1: zero on in-memory and
	// single-process runs and in records from before the source layer.
	ShuffleBytes int64          `json:"shuffle_bytes,omitempty"`
	Spans        []metrics.Span `json:"spans,omitempty"`
}

// BenchRecord is the machine-readable result of one experiment: the rendered
// report plus aggregate and per-run performance accounting. cmd/benchsuite
// writes one BENCH_<experiment>.json per record; cmd/benchdiff compares them.
type BenchRecord struct {
	Schema       string  `json:"schema"`
	Experiment   string  `json:"experiment"`
	Title        string  `json:"title"`
	Scale        float64 `json:"scale"`
	Workers      int     `json:"workers"`
	WallMS       float64 `json:"wall_ms"`
	TotalWork    int64   `json:"total_work"`
	CriticalPath int64   `json:"critical_path"`
	Speedup      float64 `json:"speedup"`
	// Mallocs/AllocBytes sum the runs' allocation deltas (zero when no run
	// measured them).
	Mallocs    uint64 `json:"mallocs,omitempty"`
	AllocBytes uint64 `json:"alloc_bytes,omitempty"`
	// SpilledBytes/SpilledRuns sum the runs' out-of-core activity (zero when
	// nothing spilled).
	SpilledBytes int64 `json:"spilled_bytes,omitempty"`
	SpilledRuns  int64 `json:"spilled_runs,omitempty"`
	// MaterializedBytes sums the runs' narrow-stage buffering estimates (zero
	// when no run measured them).
	MaterializedBytes int64 `json:"materialized_bytes,omitempty"`
	// Batches sums the runs' columnar batch counts; BatchFill averages their
	// fill rates over the runs that measured one (zero when none did).
	Batches   int64   `json:"batches,omitempty"`
	BatchFill float64 `json:"batch_fill,omitempty"`
	// OptDecisions sums the runs' plan-optimizer decision counts (zero when
	// every run had the optimizer off).
	OptDecisions int `json:"opt_decisions,omitempty"`
	// ShuffleBytes sums the runs' ingest placement-shuffle volumes (zero when
	// no run used distributed streamed ingest).
	ShuffleBytes int64 `json:"shuffle_bytes,omitempty"`
	// QPS/P50MS/P99MS summarize the closed-loop serving phase of the "serve"
	// experiment: sustained operations per second and overall latency
	// quantiles in milliseconds. PlanCacheHits/Misses expose the query
	// engine's plan cache over the same phase. Additive within schema v1:
	// zero/absent for batch experiments and for records written before the
	// serving layer existed; benchdiff compares them only when both sides
	// measured.
	QPS             float64       `json:"qps,omitempty"`
	P50MS           float64       `json:"p50_ms,omitempty"`
	P99MS           float64       `json:"p99_ms,omitempty"`
	PlanCacheHits   int64         `json:"plan_cache_hits,omitempty"`
	PlanCacheMisses int64         `json:"plan_cache_misses,omitempty"`
	Runs            []PipelineRun `json:"runs"`
	Header          []string      `json:"header,omitempty"`
	Rows            [][]string    `json:"rows,omitempty"`
	Notes           []string      `json:"notes,omitempty"`
}

// The collector gathers the PipelineRuns of the experiment currently running
// under RunBench. Plain Run(...) leaves it off, so the text harness pays only
// for the struct copies timedDiscover makes.
var (
	benchRunMu sync.Mutex // serializes RunBench: one collection at a time
	collectMu  sync.Mutex
	collected  []PipelineRun
	servedSum  *ServeSummary
	collecting bool
)

func recordRun(r PipelineRun) {
	collectMu.Lock()
	if collecting {
		collected = append(collected, r)
	}
	collectMu.Unlock()
}

// ServeSummary is the serving-layer accounting the serve experiment reports
// into its benchmark record alongside the discovery PipelineRuns.
type ServeSummary struct {
	QPS             float64
	P50MS           float64
	P99MS           float64
	PlanCacheHits   int64
	PlanCacheMisses int64
}

// recordServe publishes the load generator's summary to the active RunBench
// collection (a no-op under the plain text harness, like recordRun).
func recordServe(s ServeSummary) {
	collectMu.Lock()
	if collecting {
		cp := s
		servedSum = &cp
	}
	collectMu.Unlock()
}

// timedDiscover is the experiments' instrumented core.Discover: it times the
// run and, under RunBench, records the configuration, work accounting, and
// trace spans. Panics on error, like core.Discover.
func timedDiscover(label string, ds *rdf.Dataset, cfg core.Config) (*cind.Result, *core.RunStats, time.Duration) {
	res, stats, elapsed, err := timedTryDiscover(label, ds, cfg)
	if err != nil {
		panic("experiments: " + err.Error())
	}
	return res, stats, elapsed
}

// timedTryDiscover is timedDiscover with errors surfaced; failed runs (load
// limit, injected faults) are recorded with Failed set and partial accounting.
func timedTryDiscover(label string, ds *rdf.Dataset, cfg core.Config) (*cind.Result, *core.RunStats, time.Duration, error) {
	start := time.Now()
	res, stats, err := core.TryDiscover(ds, cfg)
	elapsed := time.Since(start)
	recordRun(buildRun(label, cfg, stats, elapsed, err))
	return res, stats, elapsed, err
}

// timedTrySource is timedTryDiscover's streamed counterpart: the run ingests
// through the source layer (core.DiscoverSource) instead of a materialized
// dataset, and the recorded run gains the ingest shuffle accounting.
func timedTrySource(label string, spec source.Spec, cfg core.Config) (*cind.Result, *rdf.Dictionary, *core.RunStats, time.Duration, error) {
	start := time.Now()
	res, dict, stats, err := core.DiscoverSource(context.Background(), spec, cfg)
	elapsed := time.Since(start)
	recordRun(buildRun(label, cfg, stats, elapsed, err))
	return res, dict, stats, elapsed, err
}

// buildRun assembles the bench record of one instrumented discovery.
func buildRun(label string, cfg core.Config, stats *core.RunStats, elapsed time.Duration, err error) PipelineRun {
	run := PipelineRun{
		Label:   label,
		Variant: cfg.Variant.String(),
		Workers: max(cfg.Workers, 1),
		Support: max(cfg.Support, 1),
		WallMS:  float64(elapsed.Nanoseconds()) / 1e6,
		Speedup: 1,
		Failed:  err != nil,
	}
	if stats != nil {
		run.Mallocs = stats.Mallocs
		run.AllocBytes = stats.AllocBytes
		run.SpilledBytes = stats.SpilledBytes
		run.SpilledRuns = stats.SpilledRuns
		run.MaterializedBytes = stats.MaterializedBytes
		run.Batches = stats.Batches
		run.BatchFill = stats.BatchFill
		if rep := stats.Optimizer; rep != nil && rep.Enabled {
			run.OptDecisions = len(rep.Decisions)
			run.OptRules = rep.Rules()
		}
		if ing := stats.Ingest; ing != nil {
			run.ShuffleBytes = ing.ShuffleBytes
		}
	}
	if stats != nil && stats.Dataflow != nil {
		run.TotalWork = stats.Dataflow.TotalWork()
		run.CriticalPath = stats.Dataflow.CriticalPath()
		run.Speedup = stats.Dataflow.Speedup()
		run.Retries = stats.StageRetries
		run.Spans = stats.Dataflow.Spans()
	}
	return run
}

// RunBench executes one experiment with run collection switched on and
// returns its benchmark record. Note that experiments share memoized results
// (the Fig. 10/11 support sweep runs once per options): benching both in one
// process leaves the second record's run list empty.
func RunBench(id string, opts Options) (*BenchRecord, error) {
	runner, ok := Lookup(id)
	if !ok {
		return nil, fmt.Errorf("experiments: unknown experiment %q", id)
	}
	opts = opts.normalized()

	benchRunMu.Lock()
	defer benchRunMu.Unlock()
	collectMu.Lock()
	collected, servedSum, collecting = nil, nil, true
	collectMu.Unlock()

	start := time.Now()
	rep, err := runner(opts)
	elapsed := time.Since(start)

	collectMu.Lock()
	runs, serve := collected, servedSum
	collected, servedSum, collecting = nil, nil, false
	collectMu.Unlock()
	if err != nil {
		return nil, err
	}

	rec := &BenchRecord{
		Schema:     BenchSchema,
		Experiment: rep.ID,
		Title:      rep.Title,
		Scale:      opts.Scale,
		Workers:    opts.Workers,
		WallMS:     float64(elapsed.Nanoseconds()) / 1e6,
		Speedup:    1,
		Runs:       runs,
		Header:     rep.Header,
		Rows:       rep.Rows,
		Notes:      rep.Notes,
	}
	batchRuns := 0
	for _, r := range runs {
		rec.TotalWork += r.TotalWork
		rec.CriticalPath += r.CriticalPath
		rec.Mallocs += r.Mallocs
		rec.AllocBytes += r.AllocBytes
		rec.SpilledBytes += r.SpilledBytes
		rec.SpilledRuns += r.SpilledRuns
		rec.MaterializedBytes += r.MaterializedBytes
		rec.Batches += r.Batches
		rec.OptDecisions += r.OptDecisions
		rec.ShuffleBytes += r.ShuffleBytes
		if r.Batches > 0 {
			rec.BatchFill += r.BatchFill
			batchRuns++
		}
	}
	if batchRuns > 0 {
		rec.BatchFill /= float64(batchRuns)
	}
	if rec.CriticalPath > 0 {
		rec.Speedup = float64(rec.TotalWork) / float64(rec.CriticalPath)
	}
	if serve != nil {
		rec.QPS = serve.QPS
		rec.P50MS = serve.P50MS
		rec.P99MS = serve.P99MS
		rec.PlanCacheHits = serve.PlanCacheHits
		rec.PlanCacheMisses = serve.PlanCacheMisses
	}
	return rec, nil
}
