// Package core orchestrates the full RDFind pipeline (Fig. 3): FCDetector →
// CGCreator → CINDExtractor, on top of the dataflow engine. It also provides
// the pipeline variants evaluated in §8.5 and §8.6 — RDFind-DE (direct
// extraction), RDFind-NF (no frequent-condition pruning), and the
// minimal-first strategy — which trade performance but, up to the documented
// AR differences of NF, compute the same pertinent CINDs.
package core

import (
	"context"
	"runtime"
	"time"

	"repro/internal/capture"
	"repro/internal/cind"
	"repro/internal/dataflow"
	"repro/internal/dataflow/opt"
	"repro/internal/extract"
	"repro/internal/fcdetect"
	"repro/internal/metrics"
	"repro/internal/rdf"
	"repro/internal/source"
)

// Variant selects a pipeline strategy.
type Variant int

const (
	// Standard is the full RDFind pipeline: lazy pruning in two phases,
	// load balancing, and approximate-validate extraction.
	Standard Variant = iota
	// DirectExtraction (RDFind-DE) skips capture-support pruning, load
	// balancing, and the Bloom-filter candidate encoding (§7.1, §8.5).
	DirectExtraction
	// NoFrequentConditions (RDFind-NF) additionally waives everything
	// related to frequent conditions: all conditions count as frequent and
	// no association rules are derived, so AR-implied CINDs appear as plain
	// CINDs in the result (§8.5).
	NoFrequentConditions
	// MinimalFirst extracts minimal CINDs directly in multiple passes over
	// the capture groups instead of minimizing the broad set afterwards
	// (§8.6; shown there to be up to 3× slower than even RDFind-DE).
	MinimalFirst
)

// String names the variant as in the paper.
func (v Variant) String() string {
	switch v {
	case Standard:
		return "RDFind"
	case DirectExtraction:
		return "RDFind-DE"
	case NoFrequentConditions:
		return "RDFind-NF"
	case MinimalFirst:
		return "RDFind-MF"
	}
	return "unknown"
}

// Config parameterizes a discovery run.
type Config struct {
	// Support is the broadness threshold h (Definition 3.1). Values below 1
	// are treated as 1.
	Support int
	// Workers is the logical worker count of the dataflow engine; 0 selects
	// one worker.
	Workers int
	// Variant selects the pipeline strategy; the zero value is the full
	// RDFind pipeline.
	Variant Variant
	// PredicatesOnlyInConditions uses the predicate element only inside
	// conditions, never as a projection attribute (the Freebase experiment
	// of §8.3).
	PredicatesOnlyInConditions bool
	// BloomBytes sizes candidate-set Bloom filters; 0 selects the paper's
	// 64 bytes.
	BloomBytes int
	// LoadLimit caps the estimated extraction load (candidate-set entries);
	// 0 means unlimited. A bounded run that would exceed it first degrades
	// to Bloom work-unit candidate sets (linear instead of quadratic load,
	// reported in RunStats.Degraded) and only fails with extract.ErrLoadLimit
	// if even the degraded load exceeds the limit — use TryDiscover or
	// DiscoverContext to observe the error. RDFind-DE and RDFind-NF never
	// degrade: the paper defines direct extraction as exact-only, and its
	// memory failures are the point of Fig. 13.
	LoadLimit int64
	// MemoryBudget caps (approximately) the bytes of keyed shuffle and
	// aggregation state the dataflow engine holds in memory; overflow spills
	// to unlinked temporary files and is re-merged externally, with results
	// byte-identical to an unbudgeted run. 0 disables spilling. A budgeted
	// run also absorbs LoadLimit breaches by keeping the exact extraction
	// plan on the spill path instead of degrading to Bloom work units.
	MemoryBudget int64
	// SpillDir is the directory for spill files; empty selects the system
	// temp directory. Setting SpillDir without MemoryBudget enables spilling
	// with a default budget of 256 MiB.
	SpillDir string
	// MaxStageAttempts bounds how often a dataflow stage is executed when
	// workers fail with transient faults (1 disables retries); 0 selects 3.
	MaxStageAttempts int
	// RetryBackoff is the base of the exponential backoff between stage
	// attempts; 0 selects 1ms.
	RetryBackoff time.Duration
	// FaultPlan injects deterministic faults into the dataflow engine, for
	// robustness testing; nil injects nothing. An empty plan traces stage
	// executions without injecting.
	FaultPlan *dataflow.FaultPlan
	// Cluster makes this run the coordinator of a multi-process job: stages
	// execute on the cluster's worker processes and this driver consumes the
	// collective results. Overrides Workers with the cluster's worker count
	// and disables the in-process spill path (distributed shuffles move data
	// over the network instead). Mutually exclusive with WorkerConn.
	Cluster *dataflow.Cluster
	// WorkerConn makes this run one worker rank of a multi-process job: the
	// driver replays the same pipeline as the coordinator but executes only
	// its rank's partition of every stage. Worker count, partitioning seed,
	// and injected fault schedules come from the coordinator's welcome.
	WorkerConn *dataflow.WorkerConn
	// RetryJitter spreads the stage-retry backoff by ±RetryJitter (a fraction
	// in [0, 1]), decorrelating retry storms when several workers fail
	// together. 0 keeps the deterministic exponential backoff.
	RetryJitter float64
	// DisableOptimizer switches off the cost-based plan optimizer
	// (dataflow.WithOptimizer(false)): no shared-prefix materialization, no
	// shuffle pushdown, and global worker/budget policies instead of
	// per-stage ones. Results are byte-identical either way — the optimizer
	// differential suites pin that — so this exists for those suites, for
	// benchmark baselines, and for debugging.
	DisableOptimizer bool
	// ProfileDir persists the optimizer's per-stage observations across
	// processes: the run loads profile.json from this directory (cold start
	// when absent), and saves the updated observations back after the run.
	// Empty disables persistence. Ignored when the optimizer is disabled and
	// cleared for distributed runs, where the optimizer is inert.
	ProfileDir string
	// Profile shares optimizer observations in memory across runs in the
	// same process (a benchmark sweep warming its own cost model). When set
	// it wins over ProfileDir; nil without ProfileDir means each run starts
	// cold.
	Profile *opt.Profile
	// Partitioner places triples onto worker partitions as streamed ingest
	// blocks arrive (DiscoverSource only; in-memory Discover keeps
	// Parallelize's contiguous split). Nil selects source.HashPartitioner.
	// Placement never changes the discovered result — the differential
	// suites pin byte-identical output across partitioners — only ingest
	// balance and downstream shuffle volume.
	Partitioner source.Partitioner
}

func (c Config) normalized() Config {
	if c.Support < 1 {
		c.Support = 1
	}
	if c.Workers < 1 {
		c.Workers = 1
	}
	if c.MaxStageAttempts < 1 {
		c.MaxStageAttempts = 3
	}
	if c.SpillDir != "" && c.MemoryBudget == 0 {
		c.MemoryBudget = 1 << 28 // 256 MiB default once a spill dir is named
	}
	if c.RetryBackoff <= 0 {
		c.RetryBackoff = time.Millisecond
	}
	// Distributed runs take their worker count from the cluster and keep
	// shuffle state in memory: the network shuffle and the spill path are
	// mutually exclusive (the CLI rejects the combination up front).
	if c.Cluster != nil {
		c.Workers = c.Cluster.Workers()
		c.MemoryBudget, c.SpillDir = 0, ""
	}
	if c.WorkerConn != nil {
		c.Workers = c.WorkerConn.Workers()
		c.MemoryBudget, c.SpillDir = 0, ""
	}
	// The optimizer is inert in distributed mode (the engine never creates a
	// planner for replicated drivers), so profile plumbing is dropped too.
	if c.Cluster != nil || c.WorkerConn != nil {
		c.Profile, c.ProfileDir = nil, ""
	}
	return c
}

// RunStats reports what a run did, for the experiment harness. On a failed
// or cancelled run the fields filled in before the abort are still valid, so
// callers get a partial-progress report next to the error.
type RunStats struct {
	Triples        int
	FrequentUnary  int
	FrequentBinary int
	CaptureGroups  int
	BroadCINDs     int
	Pertinent      int
	ARs            int
	Duration       time.Duration
	Dataflow       *dataflow.Stats
	// ExtractionLoad is the estimated candidate-set entries of the executed
	// extraction strategy (summed over the minimal-first passes).
	ExtractionLoad int64
	// Degraded reports that a LoadLimit breach was absorbed by re-planning
	// extraction with Bloom work-unit candidate sets instead of failing.
	Degraded bool
	// SpillPlanned reports that a LoadLimit breach was absorbed by keeping
	// the exact extraction plan on the engine's spill-to-disk path (requires
	// Config.MemoryBudget; takes precedence over degradation).
	SpillPlanned bool
	// SpilledBytes, SpilledRuns, and MergePasses aggregate the engine's
	// out-of-core activity across all stages: bytes written to spill files,
	// sorted runs flushed, and external merge passes performed. All zero in
	// an unbudgeted run or when the budget was never exceeded.
	SpilledBytes int64
	SpilledRuns  int64
	MergePasses  int64
	// MaterializedBytes estimates the bytes buffered into partition slices by
	// fused narrow-operator chains, summed over all stages. Only a chain's
	// final output is materialized, never the partitions between its
	// operators.
	MaterializedBytes int64
	// Batches counts the column batches fused chains delivered to their
	// sinks across all stages; BatchFill is the fraction of their lanes still
	// selected when they arrived (1.0 = no Filter cleared anything).
	Batches   int64
	BatchFill float64
	// StageRetries is the total number of worker re-executions after
	// transient faults, summed over all stages (see dataflow.Stats.Retries).
	StageRetries int
	// WorkerLosses, WorkerRespawns, and Reconnects report the distributed
	// engine's fault handling: worker processes declared lost (heartbeat
	// deadline or injected kill), replacement processes spawned, and worker
	// connections re-established after transient drops. All zero in a
	// single-process run.
	WorkerLosses   int64
	WorkerRespawns int64
	Reconnects     int64
	// Mallocs and AllocBytes are the process-wide allocation deltas
	// (runtime.MemStats Mallocs and TotalAlloc) across the run — the
	// whole-pipeline counterpart of the per-span deltas, letting the
	// benchmark harness gate on allocation counts next to wall time.
	Mallocs    uint64
	AllocBytes uint64
	// Optimizer reports the plan optimizer's run: whether it was enabled and
	// profile-fed, its (possibly tuned) cost model, and every rewrite rule
	// and per-stage policy it chose. Nil when the optimizer is disabled or
	// the run is distributed.
	Optimizer *opt.Report
	// Ingest reports the streaming-source ingest of a DiscoverSource run;
	// nil on in-memory (Discover/TryDiscover/DiscoverContext) runs.
	Ingest *IngestStats
}

// IngestStats accounts a streamed-source ingest (DiscoverSource).
type IngestStats struct {
	// Files is the number of resolved input files; Partitioner names the
	// placement strategy.
	Files       int
	Partitioner string
	// PerRank[r] is the number of triples worker rank r streamed from its
	// assigned input files (cluster mode), or the number placed into
	// logical partition r (single-process).
	PerRank []int64
	// LocalTriples counts the triples this process materialized at the
	// ingest root: the full input single-process, this rank's files on a
	// worker, and always 0 on a cluster coordinator — the accounting behind
	// the coordinator-never-holds-the-dataset guarantee.
	LocalTriples int64
	// ShuffleBytes is the placement shuffle's wire volume (cluster mode;
	// 0 single-process, where placement happens as blocks arrive).
	ShuffleBytes int64
	// Skipped lists lenient-mode malformed lines with their files
	// (single-process only); SkippedLines is the cluster-wide count and is
	// also set single-process.
	Skipped      []source.Malformed
	SkippedLines int64
	// Distributed reports a multi-process ingest; Rank is this process's
	// worker rank in it (-1 on the coordinator).
	Distributed bool
	Rank        int
}

// Discover runs the selected pipeline over the dataset and returns the
// pertinent CINDs and association rules, plus run statistics. It panics on
// any error (an exceeded LoadLimit, an exhausted stage-retry budget); use
// TryDiscover or DiscoverContext to observe errors instead.
func Discover(ds *rdf.Dataset, cfg Config) (*cind.Result, *RunStats) {
	res, stats, err := TryDiscover(ds, cfg)
	if err != nil {
		panic("core: " + err.Error() + " (use TryDiscover to observe errors)")
	}
	return res, stats
}

// TryDiscover is Discover with errors surfaced: an exceeded LoadLimit ends
// the run with extract.ErrLoadLimit (after the degradation attempt) and
// partial statistics, and a terminal stage failure surfaces as a
// *dataflow.StageError.
func TryDiscover(ds *rdf.Dataset, cfg Config) (*cind.Result, *RunStats, error) {
	return DiscoverContext(context.Background(), ds, cfg)
}

// DiscoverContext is TryDiscover under a cancellation context: the pipeline
// checks ctx between stage attempts and aborts promptly when it is cancelled
// or times out, returning partial statistics and an error wrapping ctx.Err().
// Transient worker faults (injected or signalled via dataflow.Transient
// panics) are retried per Config.MaxStageAttempts before they become errors.
func DiscoverContext(ctx context.Context, ds *rdf.Dataset, cfg Config) (*cind.Result, *RunStats, error) {
	cfg = cfg.normalized()
	h := newHarness(ctx, cfg)
	h.stats.Triples = ds.Size()
	triples := dataflow.Parallelize(h.dfctx, "input", ds.Triples)
	return h.run(triples, ds.Dict)
}

// harness is the shared run scaffolding of DiscoverContext and
// DiscoverSource: the configured dataflow context, run statistics with their
// collection closures, and the optimizer profile feedback loop. It exists so
// the two ingest roots — a resident Dataset parallelized in memory, and a
// streamed Source placed partition-by-partition — drive one and the same
// pipeline body.
type harness struct {
	cfg      Config
	dfctx    *dataflow.Context
	stats    *RunStats
	prof     *opt.Profile
	start    time.Time
	memStart runtime.MemStats
}

// newHarness builds the dataflow context and stats plumbing for one run.
// cfg must already be normalized.
func newHarness(ctx context.Context, cfg Config) *harness {
	if ctx == nil {
		ctx = context.Background()
	}
	h := &harness{cfg: cfg}
	runtime.ReadMemStats(&h.memStart)
	h.start = time.Now()
	dfOpts := []dataflow.Option{
		dataflow.WithCancel(ctx),
		dataflow.WithRetries(cfg.MaxStageAttempts - 1),
		dataflow.WithBackoff(cfg.RetryBackoff),
		dataflow.WithFaultPlan(cfg.FaultPlan),
		dataflow.WithMemoryBudget(cfg.MemoryBudget),
		dataflow.WithSpillDir(cfg.SpillDir),
	}
	if cfg.DisableOptimizer {
		dfOpts = append(dfOpts, dataflow.WithOptimizer(false))
	}
	// Profile feedback loop: a live handle wins; otherwise a profile directory
	// is loaded (empty on first run, started fresh over a corrupt file) and
	// saved back after the run. Errors are deliberately non-fatal — a broken
	// profile must never break discovery, only un-tune it.
	h.prof = cfg.Profile
	if h.prof == nil && cfg.ProfileDir != "" && !cfg.DisableOptimizer {
		h.prof, _ = opt.LoadProfile(cfg.ProfileDir)
	}
	if h.prof != nil {
		dfOpts = append(dfOpts, dataflow.WithProfile(h.prof))
	}
	if cfg.RetryJitter > 0 {
		dfOpts = append(dfOpts, dataflow.WithRetryJitter(cfg.RetryJitter))
	}
	if cfg.Cluster != nil {
		dfOpts = append(dfOpts, dataflow.WithCluster(cfg.Cluster))
	}
	if cfg.WorkerConn != nil {
		dfOpts = append(dfOpts, dataflow.WithWorkerConn(cfg.WorkerConn))
	}
	h.dfctx = dataflow.NewContext(cfg.Workers, dfOpts...)
	h.stats = &RunStats{Dataflow: h.dfctx.Stats()}
	return h
}

func (h *harness) recordAllocs() {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	h.stats.Mallocs = ms.Mallocs - h.memStart.Mallocs
	h.stats.AllocBytes = ms.TotalAlloc - h.memStart.TotalAlloc
}

func (h *harness) recordSpill() {
	// Read through a snapshot so an unbudgeted run does not materialize
	// zero-valued spill counters in the registry.
	counters := h.dfctx.Stats().Metrics().Snapshot().Counters
	h.stats.SpilledBytes = counters["dataflow.spill.bytes"]
	h.stats.SpilledRuns = counters["dataflow.spill.runs"]
	h.stats.MergePasses = counters["dataflow.spill.merge_passes"]
	h.stats.MaterializedBytes = counters["dataflow.materialized.bytes"]
	h.stats.Batches = counters["dataflow.batches"]
	if lanes := counters["dataflow.batch.lanes"]; lanes > 0 {
		h.stats.BatchFill = float64(counters["dataflow.batch.live"]) / float64(lanes)
	}
	h.stats.WorkerLosses = counters[metrics.ClusterLosses]
	h.stats.WorkerRespawns = counters[metrics.ClusterRespawns]
	h.stats.Reconnects = counters[metrics.ClusterReconnects]
}

// finish closes the stats out on an aborted run.
func (h *harness) finish(err error) (*cind.Result, *RunStats, error) {
	h.stats.StageRetries = h.dfctx.Stats().TotalRetries()
	h.stats.Duration = time.Since(h.start)
	h.recordAllocs()
	h.recordSpill()
	h.stats.Optimizer = h.dfctx.OptimizerReport()
	return nil, h.stats, err
}

// run executes the pipeline proper — FCDetector → CGCreator → CINDExtractor
// — over an already-rooted triple dataset. dict is the global dictionary the
// triples are encoded against, used only to canonicalize the result order.
func (h *harness) run(triples *dataflow.Dataset[rdf.Triple], dict *rdf.Dictionary) (*cind.Result, *RunStats, error) {
	cfg, dfctx, stats := h.cfg, h.dfctx, h.stats
	fcOpts := fcdetect.Options{PredicatesOnlyInConditions: cfg.PredicatesOnlyInConditions}

	// Phase 1 of lazy pruning: frequent conditions and association rules
	// (skipped entirely by RDFind-NF).
	var fc *fcdetect.Output
	if cfg.Variant == NoFrequentConditions {
		fc = allFrequent(triples, cfg)
	} else {
		fc = fcdetect.Detect(triples, cfg.Support, fcOpts)
		stats.FrequentUnary = fc.Unary.Len()
		stats.FrequentBinary = fc.Binary.Len()
	}
	if err := dfctx.Err(); err != nil {
		return h.finish(err)
	}

	// Capture groups (§6).
	groups := capture.BuildGroups(triples, fc, fcOpts)
	stats.CaptureGroups = groups.Len()
	if err := dfctx.Err(); err != nil {
		return h.finish(err)
	}

	// CIND extraction (§7). A LoadLimit breach degrades to Bloom work-unit
	// candidate sets unless the variant is defined as exact-only.
	ecfg := extract.Config{
		Support:            cfg.Support,
		DirectExtraction:   cfg.Variant == DirectExtraction || cfg.Variant == NoFrequentConditions,
		BloomBytes:         cfg.BloomBytes,
		LoadLimit:          cfg.LoadLimit,
		DegradeOnLoadLimit: true,
		SpillOnLoadLimit:   cfg.MemoryBudget > 0,
	}
	var pertinent []cind.CIND
	if cfg.Variant == MinimalFirst {
		mf, outcome, err := minimalFirst(groups, ecfg)
		stats.ExtractionLoad = outcome.EstimatedLoad
		stats.Degraded = outcome.Degraded
		stats.SpillPlanned = outcome.Spilled
		if err != nil {
			return h.finish(err)
		}
		pertinent = mf
		stats.BroadCINDs = len(pertinent) // broad set never materialized
	} else {
		broad, outcome, err := extract.BroadCINDsOutcome(groups, ecfg)
		stats.ExtractionLoad = outcome.EstimatedLoad
		stats.Degraded = outcome.Degraded
		stats.SpillPlanned = outcome.Spilled
		if err != nil {
			return h.finish(err)
		}
		stats.BroadCINDs = len(broad)
		pertinent = extract.Minimize(broad)
	}
	if err := dfctx.Err(); err != nil {
		return h.finish(err)
	}

	res := &cind.Result{CINDs: pertinent, ARs: fc.ARs}
	res.Sort(dict)
	stats.Pertinent = len(res.CINDs)
	stats.ARs = len(res.ARs)
	stats.StageRetries = dfctx.Stats().TotalRetries()
	stats.Duration = time.Since(h.start)
	h.recordAllocs()
	h.recordSpill()
	stats.Optimizer = dfctx.OptimizerReport()
	// Feed the run's spans back into the profile (successful runs only:
	// partial traces would skew the averages) and persist it if asked to.
	if h.prof != nil && dfctx.Optimizer() {
		h.prof.Observe(dfctx.Stats().Spans())
		if cfg.ProfileDir != "" {
			_ = h.prof.Save(cfg.ProfileDir)
		}
	}
	return res, stats, nil
}

// allFrequent fabricates an FCDetector output that treats every condition as
// frequent and knows no association rules — the RDFind-NF configuration.
// Saturated one-bit "filters" make every membership probe succeed.
func allFrequent(triples *dataflow.Dataset[rdf.Triple], cfg Config) *fcdetect.Output {
	empty := dataflow.Parallelize(triples.Context(), "nf/no-counters",
		[]dataflow.Pair[cind.Condition, int](nil))
	return &fcdetect.Output{
		Unary:       empty,
		Binary:      empty,
		UnaryBloom:  saturatedFilter(),
		BinaryBloom: saturatedFilter(),
	}
}
