package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/capture"
	"repro/internal/cind"
	"repro/internal/core"
	"repro/internal/dataflow"
	"repro/internal/extract"
	"repro/internal/fcdetect"
	"repro/internal/metrics"
	"repro/internal/rdf"
	"repro/internal/source"
	"repro/internal/sparql"
)

// Layer names of the traced pipeline, in call order. Their times add up to
// the traced wall time, up to the gaps between calls.
var layerOrder = []string{"ingest", "parallelize", "fcdetect", "capture", "extract", "minimize", "sort", "format"}

// layerTrace is one traced discovery: per-layer call times, the output, and
// the engine's spans and counters.
type layerTrace struct {
	wall     time.Duration
	layers   map[string]time.Duration
	output   []byte
	spans    []metrics.Span
	counters map[string]int64
	retries  int
	mallocs  int64 // heap allocations of this process during the run
	terms    int
	broad    int
	load     int64
	// cluster-wire only
	perRank        []int64
	placementBytes int64
}

// timeStep runs f and adds its duration to the named layer.
func (lt *layerTrace) timeStep(name string, f func()) {
	start := time.Now()
	f()
	lt.layers[name] += time.Since(start)
}

// traceLocal runs the single-process pipeline as core.DiscoverContext does,
// calling each layer's public function in order and timing each call.
// Every call returns only after its stages executed (Detect and BuildGroups
// force their outputs with Len; extraction collects), so call boundaries
// line up with execution.
func traceLocal(o options, e *env) (*layerTrace, error) {
	lt := &layerTrace{layers: map[string]time.Duration{}}
	var mem0, mem1 runtime.MemStats
	runtime.ReadMemStats(&mem0)
	start := time.Now()
	var ds *rdf.Dataset
	var err error
	lt.timeStep("ingest", func() { ds, err = readInputs(e.paths()) })
	if err != nil {
		return nil, err
	}
	var dfctx *dataflow.Context
	var triples *dataflow.Dataset[rdf.Triple]
	lt.timeStep("parallelize", func() {
		dfctx = dataflow.NewContext(2,
			dataflow.WithCancel(context.Background()),
			dataflow.WithRetries(2),
			dataflow.WithBackoff(time.Millisecond))
		triples = dataflow.Parallelize(dfctx, "input", ds.Triples)
	})
	fcOpts := fcdetect.Options{PredicatesOnlyInConditions: o.w.predOnly}
	var fc *fcdetect.Output
	lt.timeStep("fcdetect", func() { fc = fcdetect.Detect(triples, o.w.support, fcOpts) })
	var groups *dataflow.Dataset[capture.Group]
	lt.timeStep("capture", func() { groups = capture.BuildGroups(triples, fc, fcOpts) })
	var broad []cind.CIND
	var outcome extract.Outcome
	lt.timeStep("extract", func() {
		broad, outcome, err = extract.BroadCINDsOutcome(groups, extract.Config{
			Support:            o.w.support,
			DegradeOnLoadLimit: true,
			BitmapSets:         dfctx.Columnar(),
		})
	})
	if err != nil {
		return nil, err
	}
	var pertinent []cind.CIND
	lt.timeStep("minimize", func() { pertinent = extract.Minimize(broad) })
	res := &cind.Result{CINDs: pertinent, ARs: fc.ARs}
	lt.timeStep("sort", func() { res.Sort(ds.Dict) })
	lt.timeStep("format", func() { lt.output = []byte(res.Format(ds.Dict)) })
	lt.wall = time.Since(start)
	runtime.ReadMemStats(&mem1)
	lt.mallocs = int64(mem1.Mallocs - mem0.Mallocs)
	if err := dfctx.Err(); err != nil {
		return nil, err
	}
	lt.spans = dfctx.Stats().Spans()
	lt.counters = dfctx.Stats().Metrics().Snapshot().Counters
	lt.retries = dfctx.Stats().TotalRetries()
	lt.terms = ds.Dict.Len()
	lt.broad = len(broad)
	lt.load = outcome.EstimatedLoad
	return lt, nil
}

// traceCluster runs the coordinator of a cluster-wire run in this process
// with rdfind worker processes, timing core.DiscoverSource. The coordinator
// executes no stage itself, so layer times come from its span timeline:
// each layer runs from its first stage's start to the next layer's first
// start, and minimization plus the result sort fill the tail after the last
// extraction stage.
func traceCluster(o options, e *env) (*layerTrace, error) {
	lt := &layerTrace{layers: map[string]time.Duration{}}
	paths := e.paths()
	for i, p := range paths {
		abs, err := filepath.Abs(p)
		if err != nil {
			return nil, err
		}
		paths[i] = abs
	}
	// Job spec in the form rdfind's worker subcommand decodes.
	spec, err := json.Marshal(map[string]any{
		"inputs": paths, "support": o.w.support, "variant": "rdfind",
		"predOnly": o.w.predOnly, "ingestWorkers": 2, "partition": "hash",
	})
	if err != nil {
		return nil, err
	}
	// A socket path relative to the working directory stays within the
	// unix socket path limit however deep the checkout is.
	cwd, err := os.Getwd()
	if err != nil {
		return nil, err
	}
	sock, err := filepath.Rel(cwd, filepath.Join(e.dir, "coord.sock"))
	if err != nil {
		return nil, err
	}
	os.Remove(sock)
	devnull, err := os.Open(os.DevNull)
	if err != nil {
		return nil, err
	}
	defer devnull.Close()
	var workers []int
	cfg := dataflow.ClusterConfig{
		Workers: o.w.cluster, Network: "unix", Addr: sock, JobSpec: spec,
		Spawn: func(rank int) error {
			pid, err := syscall.ForkExec(o.rdfind,
				[]string{o.rdfind, "worker", "-network", "unix", "-addr", sock, "-rank", strconv.Itoa(rank)},
				&syscall.ProcAttr{Env: measuredEnv(os.Getenv("TMPDIR")), Files: []uintptr{devnull.Fd(), devnull.Fd(), os.Stderr.Fd()}})
			if err == nil {
				workers = append(workers, pid)
			}
			return err
		},
	}
	defer func() {
		(&procRun{}).reapOrphans(func() {
			for _, pid := range workers {
				_ = syscall.Kill(pid, syscall.SIGKILL)
			}
		})
	}()
	start := time.Now()
	cl, err := dataflow.StartCluster(cfg)
	if err != nil {
		return nil, err
	}
	defer cl.Close()
	res, dict, stats, err := core.DiscoverSource(context.Background(), source.Spec{Inputs: paths, Shards: 2}, core.Config{
		Support: o.w.support, Workers: 2, PredicatesOnlyInConditions: o.w.predOnly,
		Cluster: cl, Partitioner: source.HashPartitioner{},
	})
	if err != nil {
		return nil, err
	}
	discovered := time.Since(start)
	lt.timeStep("format", func() { lt.output = []byte(res.Format(dict)) })
	lt.wall = time.Since(start)

	lt.spans = stats.Dataflow.Spans()
	first := map[string]float64{}
	var extractEnd float64
	for _, sp := range lt.spans {
		layer := spanLayer(sp.Name)
		if _, ok := first[layer]; !ok {
			first[layer] = sp.StartMS
		}
		if layer == "extract" {
			extractEnd = max(extractEnd, sp.StartMS+sp.WallMS)
		}
	}
	ms := func(x float64) time.Duration { return time.Duration(x * 1e6) }
	lt.layers["ingest"] = ms(first["fcdetect"])
	lt.layers["fcdetect"] = ms(first["capture"] - first["fcdetect"])
	lt.layers["capture"] = ms(first["extract"] - first["capture"])
	lt.layers["extract"] = ms(extractEnd - first["extract"])
	lt.layers["minimize"] = discovered - ms(extractEnd)
	lt.counters = stats.Dataflow.Metrics().Snapshot().Counters
	lt.retries = stats.StageRetries
	lt.mallocs = int64(stats.Mallocs)
	lt.terms = dict.Len()
	lt.broad = stats.BroadCINDs
	lt.load = stats.ExtractionLoad
	if stats.Ingest != nil {
		lt.perRank = stats.Ingest.PerRank
		lt.placementBytes = stats.Ingest.ShuffleBytes
	}
	return lt, nil
}

// spanLayer maps an engine stage name to the layer that scheduled it.
func spanLayer(name string) string {
	prefix, _, _ := strings.Cut(name, "/")
	switch prefix {
	case "fcd":
		return "fcdetect"
	case "cgc":
		return "capture"
	case "ext":
		return "extract"
	}
	return "ingest"
}

// serveTrace is the serving path taken apart: serial planning plus
// execution and serial minimization per distinct pool query, against the
// open-loop latency of the pool's ops.
type serveTrace struct {
	execMS, minimizeMS []float64
	// runMS is each pool query's serial ExecutePlan time without planning,
	// by query index: the engine's work for a query whose plan is cached.
	runMS         map[int]float64
	open          *loop
	cacheHitRatio float64
}

// waitMS is the median over the open loop's engine queries of each op's
// latency less its query's serial execution time: admission, hand-off to a
// worker and contention, plus planning on a plan-cache miss.
func (t *serveTrace) waitMS() float64 {
	var w []float64
	for _, c := range t.open.outcomes {
		for _, o := range c {
			op := t.open.s.p.ops[o.op]
			if run, ok := t.runMS[op.query]; ok && !op.minimize {
				w = append(w, float64(o.latency.Nanoseconds())/1e6-run)
			}
		}
	}
	return median(w)
}

// traceServe times each distinct query serially, then replays the open loop.
func traceServe(o options, e *env, know *cind.Result, p *pool, d time.Duration) *serveTrace {
	t := &serveTrace{runMS: map[int]float64{}}
	ctx := context.Background()
	for i, q := range p.queries {
		start := time.Now()
		sparql.Minimize(q, know, e.ds.Dict)
		t.minimizeMS = append(t.minimizeMS, msSince(start))
		start = time.Now()
		plan := sparql.PlanQuery(e.st, q, know)
		planned := time.Now()
		if _, err := sparql.ExecutePlan(ctx, e.st, q, plan); err == nil {
			t.execMS = append(t.execMS, msSince(start))
			t.runMS[i] = msSince(planned)
		}
	}
	t.open = newLoop(e, know, p, len(p.ops)/2)
	defer t.open.close()
	t.open.openWindow(d)
	if st := t.open.s.eng.Stats(); st.PlanCacheHits+st.PlanCacheMisses > 0 {
		t.cacheHitRatio = float64(st.PlanCacheHits) / float64(st.PlanCacheHits+st.PlanCacheMisses)
	}
	return t
}

func msSince(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) / 1e6 }

// runTraced is the per-layer measurement. Untraced rdfind runs alternate
// with traced runs on the same inputs; each traced output must be
// byte-identical to the untraced one, which catches drift between the
// pipeline order above and core. Then the serving path is traced. The span
// list and the per-layer numbers are saved as JSON under traces/, beside
// the work directory.
func runTraced(o options, e *env) (*result, error) {
	t := &tally{}
	budget := secondsDur(o.seconds * o.w.discoverShare)
	var runs []procRun
	var traces []*layerTrace
	start := time.Now()
	for i := 0; i < 2 || time.Since(start) < budget; i++ {
		r, err := e.discoverOnce(o, i)
		if err != nil {
			return nil, err
		}
		runs = append(runs, r)
		// The traced run gets the untraced run's GOMAXPROCS, so
		// trace.overhead_s compares like with like.
		var lt *layerTrace
		prev := runtime.GOMAXPROCS(measuredProcs)
		if o.w.cluster > 0 {
			lt, err = traceCluster(o, e)
		} else {
			lt, err = traceLocal(o, e)
		}
		runtime.GOMAXPROCS(prev)
		t.attempt(1)
		if err != nil {
			t.fail(1, "traced run: "+err.Error())
			continue
		}
		traces = append(traces, lt)
		if out, err := os.ReadFile(r.out); err != nil || !bytes.Equal(out, lt.output) {
			t.fail(1, fmt.Sprintf("traced output differs from untraced run %d", i))
		}
	}
	e.checkDiscovery(o, runs, t)
	if len(traces) == 0 {
		return nil, fmt.Errorf("no traced run succeeded")
	}
	know := knowledgeOf(runs[0], e.ds.Dict)
	p := buildPool(o.w, e, know)
	st := traceServe(o, e, know, p, secondsDur(o.seconds*(1-o.w.discoverShare)*0.5))
	newChecker(e, p, know).checkServe(st.open, t)
	if late := st.open.lateP99(); late > lateBoundMS {
		t.fail(1, fmt.Sprintf("open loop invalid: generator ran %.2fms late at p99 (bound %.0fms)", late, lateBoundMS))
	}

	var untraced []float64
	for _, r := range runs {
		untraced = append(untraced, r.wall.Seconds())
	}
	m := layerMetrics(e, traces, untraced)
	m["triplestore.build_s"] = metric{e.storeBuild.Seconds(), "s"}
	m["sparql.exec_ms"] = metric{median(st.execMS), "ms"}
	m["sparql.wait_ms"] = metric{st.waitMS(), "ms"}
	// Open-loop latency, reported here rather than end to end: on a shared
	// 2-vCPU host the serving process's GC pauses and host CPU steal set
	// the tail, and the median of these sub-0.1ms queries followed the
	// neighbours' load over minutes, its spread over ten seeds reaching the
	// largest end-to-end bound allowed.
	m["sparql.p50_ms"] = metric{st.open.latencyQuantile(0.50, isQuery), "ms"}
	m["sparql.p99_ms"] = metric{st.open.latencyQuantile(0.99, isQuery), "ms"}
	m["sparql.plan_cache_hit_ratio"] = metric{st.cacheHitRatio, "ratio"}
	m["sparql.minimize_ms"] = metric{median(st.minimizeMS), "ms"}
	m["error_rate"] = metric{t.errorRate(), "ratio"}

	// Saved beside the work directory, which the next run clears.
	dir := filepath.Join(filepath.Dir(o.workdir), "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", o.w.name, o.seed))
	if err := saveTrace(path, m, traces[len(traces)-1].spans); err != nil {
		return nil, err
	}
	logf("traced %d runs (untraced wall %v); spans and per-layer metrics saved to %s", len(traces), fmtList(untraced), path)
	return t.result(m), nil
}

// layerMetrics derives the per-layer metrics of the discovery layers:
// layer times are medians over the traced runs, counts come from the last.
func layerMetrics(e *env, traces []*layerTrace, untraced []float64) map[string]metric {
	layerS := func(name string) float64 {
		var xs []float64
		for _, lt := range traces {
			xs = append(xs, lt.layers[name].Seconds())
		}
		return median(xs)
	}
	var walls, cover []float64
	for _, lt := range traces {
		var sum time.Duration
		for _, name := range layerOrder {
			sum += lt.layers[name]
		}
		walls = append(walls, lt.wall.Seconds())
		cover = append(cover, sum.Seconds()/lt.wall.Seconds())
	}
	lt := traces[len(traces)-1]
	c := lt.counters
	span := func(name string) metrics.Span {
		for _, sp := range lt.spans {
			if sp.Name == name {
				return sp
			}
		}
		return metrics.Span{}
	}
	var spanMS float64
	var shuffle, combIn, combOut int64
	for _, sp := range lt.spans {
		spanMS += sp.WallMS
		shuffle += sp.ShuffleBytes
		combIn += sp.CombinerIn
		combOut += sp.CombinerOut
	}
	binCands := span("fcd/binary-sum").RecordsOut
	dedup := span("cgc/dedup")
	cands := span("ext/candidates-exact").RecordsOut + span("ext/candidates-bloom").RecordsOut
	ingestS := layerS("ingest")
	var skew float64
	if n := len(lt.perRank); n > 0 {
		var sum, hi int64
		for _, x := range lt.perRank {
			sum += x
			hi = max(hi, x)
		}
		skew = float64(hi) / (float64(sum) / float64(n))
	}
	return map[string]metric{
		"rdf.ingest_s":                   {ingestS, "s"},
		"rdf.ingest_mb_per_s":            {ratio(float64(e.inputBytes)/1e6, ingestS), "MB/s"},
		"rdf.dict_terms":                 {float64(lt.terms), "count"},
		"fcdetect.s":                     {layerS("fcdetect"), "s"},
		"fcdetect.frequent_unary":        {float64(c["fc.frequent.unary"]), "count"},
		"fcdetect.frequent_binary":       {float64(c["fc.frequent.binary"]), "count"},
		"fcdetect.binary_candidates":     {float64(binCands), "count"},
		"fcdetect.binary_yield":          {ratio(float64(c["fc.frequent.binary"]), float64(binCands)), "ratio"},
		"capture.s":                      {layerS("capture"), "s"},
		"capture.evidences":              {float64(dedup.RecordsIn), "count"},
		"capture.dedup_yield":            {ratio(float64(dedup.RecordsOut), float64(dedup.RecordsIn)), "ratio"},
		"capture.groups":                 {float64(c["capture.groups"]), "count"},
		"extract.s":                      {layerS("extract"), "s"},
		"extract.load_estimated":         {float64(lt.load), "count"},
		"extract.candidates":             {float64(cands), "count"},
		"extract.broad_cinds":            {float64(lt.broad), "count"},
		"extract.broad_yield":            {ratio(float64(lt.broad), float64(cands)), "ratio"},
		"extract.minimize_s":             {layerS("minimize"), "s"},
		"extract.pertinent_yield":        {ratio(float64(cindLines(lt.output)), float64(lt.broad)), "ratio"},
		"cind.sort_s":                    {layerS("sort"), "s"},
		"cind.format_s":                  {layerS("format"), "s"},
		"cind.output_bytes":              {float64(len(lt.output)), "bytes"},
		"dataflow.span_s":                {spanMS / 1e3, "s"},
		"dataflow.records_in":            {float64(metrics.TotalRecordsIn(lt.spans)), "count"},
		"dataflow.shuffle_bytes":         {float64(shuffle), "bytes"},
		"dataflow.combiner_hit_rate":     {ratio(float64(combIn-combOut), float64(combIn)), "ratio"},
		"dataflow.materialized_bytes":    {float64(c["dataflow.materialized.bytes"]), "bytes"},
		"dataflow.batch_fill":            {ratio(float64(c["dataflow.batch.live"]), float64(c["dataflow.batch.lanes"])), "ratio"},
		"dataflow.allocs":                {float64(lt.mallocs), "count"},
		"dataflow.retries":               {float64(lt.retries), "count"},
		"dataflow.cluster_shuffle_bytes": {float64(c[metrics.ClusterShuffleBytes]), "bytes"},
		"dataflow.cluster_collectives":   {float64(c[metrics.ClusterCollectives]), "count"},
		"dataflow.cluster_losses":        {float64(c[metrics.ClusterLosses]), "count"},
		"source.placement_bytes":         {float64(lt.placementBytes), "bytes"},
		"source.rank_skew":               {skew, "ratio"},
		"trace.coverage":                 {median(cover), "ratio"},
		"trace.overhead_s":               {median(walls) - median(untraced), "s"},
	}
}

// cindLines counts the output's CIND statements.
func cindLines(out []byte) int {
	n := 0
	for _, line := range bytes.Split(out, []byte("\n")) {
		if bytes.HasPrefix(line, []byte("CIND ")) {
			n++
		}
	}
	return n
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// saveTrace writes the per-layer metrics and the engine's span list.
func saveTrace(path string, m map[string]metric, spans []metrics.Span) error {
	data, err := json.MarshalIndent(struct {
		Metrics map[string]metric `json:"metrics"`
		Spans   []metrics.Span    `json:"spans"`
	}{m, spans}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
