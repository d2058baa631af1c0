// Command perfbench is the repository benchmark. For one workload it builds
// seeded inputs, runs the rdfind binary end to end and the SPARQL serving
// path under load, checks every output, and prints one JSON result line.
//
// Usage (normally through run.sh, which builds both binaries first):
//
//	perfbench -rdfind BIN -workdir DIR --workload NAME --seed N --seconds S --trace 0|1
//
// With --trace 0 the result carries the end-to-end metrics; with --trace 1 a
// separate traced run times the calls into each layer from this program and
// the result carries the per-layer metrics. The last line of standard output
// is always the result object; progress and diagnostics go to standard error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"repro/internal/cind"
)

// workload is one benchmark input: a datagen analogue, the discovery
// configuration run over it, and how the run's seconds split between
// discovery and serving.
type workload struct {
	name    string
	dataset string
	scale   float64
	support int
	// predOnly passes -pred-only-conditions.
	predOnly bool
	// cluster is the worker-process count; 0 runs discovery in one process.
	cluster int
	// files is how many input files the permuted triples are split into.
	files int
	// discoverShare is the fraction of the run's seconds spent on discovery
	// runs; the rest serves queries.
	discoverShare float64
	// pool is the number of distinct serving queries; minimizeShare is the
	// share of serving ops that are sparql.Minimize calls. The discovery
	// workloads serve a warm query load over their own dataset and result
	// from a pool that fits the engine's plan cache (256 shapes, FIFO);
	// serve-mixed adds Minimize calls and a pool larger than the cache, so
	// misses continue.
	pool          int
	minimizeShare float64
	// digest is the SHA-256 of the discovery output at scale 1, recorded
	// when the benchmark was defined. The output does not depend on the seed.
	digest string
}

var workloads = []workload{
	{
		name: "extract-heavy", dataset: "DB14-MPCE", scale: 1, support: 10, files: 1,
		discoverShare: 0.75, pool: 200,
		digest: "1ecedcc2ae01c2cb72e15d2422d1d8feaf3531601698a9d525e6fd68af1dbdd4",
	},
	{
		name: "scan-heavy", dataset: "Freebase", scale: 1, support: 1000, predOnly: true, files: 1,
		discoverShare: 0.6, pool: 200,
		digest: "cdd98de399f514132dd9e1069787722f5e1cb3e07569bffd12f1cceca32b0e29",
	},
	{
		// The digest is that of a single-process run at the same threshold.
		name: "cluster-wire", dataset: "DB14-MPCE", scale: 1, support: 100, cluster: 2, files: 4,
		discoverShare: 0.6, pool: 200,
		digest: "b09af4c68ad983d459aa65d6694b7fdda33544f04569860199071701fc204e9c",
	},
	{
		name: "serve-mixed", dataset: "LUBM-1", scale: 2, support: 10, files: 1,
		discoverShare: 0.2, pool: 320, minimizeShare: 0.4,
		digest: "c06b1949047d0eaaea38f3390172a5bd4b65efae6b11de65a94452259e765523",
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// options are the command-line settings of one run.
type options struct {
	w       workload
	seed    int64
	seconds float64
	trace   bool
	rdfind  string
	workdir string
	// scale multiplies the workload's datagen scale. 1 is the benchmark; the
	// benchmark's own tests use a smaller value, against an in-process
	// reference instead of the recorded digest.
	scale float64
	// setupReps is how many times set-up runs; setup_s is their median.
	setupReps int
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload name")
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", 10, "measured seconds")
	trace := fs.Int("trace", 0, "1 runs the traced per-layer measurement")
	bin := fs.String("rdfind", "", "path to the rdfind binary")
	workdir := fs.String("workdir", "", "scratch directory for inputs and outputs")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := findWorkload(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		return 2
	}
	if *bin == "" || *workdir == "" || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need -rdfind, -workdir, --seconds > 0 and --trace 0|1")
		return 2
	}
	abs, err := filepath.Abs(*bin)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	opts := options{
		w: w, seed: *seed, seconds: *seconds, trace: *trace == 1,
		rdfind: abs, workdir: *workdir, scale: 1, setupReps: 3,
	}
	res, err := runWorkload(opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

// runWorkload sets the workload up, measures it, checks it, and assembles
// the result object.
func runWorkload(o options) (*result, error) {
	if err := enableSubreaper(); err != nil {
		return nil, err
	}
	if err := os.RemoveAll(o.workdir); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(o.workdir, 0o755); err != nil {
		return nil, err
	}
	env, setupS, err := setUp(o)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	logf("%s seed %d: set-up %.3fs (median of %d), %d triples in %d file(s)",
		o.w.name, o.seed, setupS, o.setupReps, env.ds.Size(), len(env.inputs))
	if o.trace {
		return runTraced(o, env)
	}
	return runUntraced(o, env, setupS)
}

// rounds is how many times an end-to-end run alternates between discovery
// runs and serving windows. Interleaving spreads every metric's samples over
// the whole run, so their medians shrug off a burst of interference on a
// shared machine.
const rounds = 4

// runUntraced is the end-to-end measurement: rounds of discovery processes
// and closed-loop serving windows, then every correctness check. Serving
// uses the first run's output as its knowledge. Open-loop latency is
// measured by the traced run: on a shared host its median followed the
// neighbours' load more than the engine's work (see runTraced).
func runUntraced(o options, env *env, setupS float64) (*result, error) {
	tally := &tally{}
	discover := secondsDur(o.seconds * o.w.discoverShare / rounds)
	serve := o.seconds * (1 - o.w.discoverShare) / rounds
	var runs []procRun
	var know *cind.Result
	var p *pool
	var closed *loop
	for r := 0; r < rounds; r++ {
		more, err := discoverLoop(o, env, discover, 1, len(runs))
		if err != nil {
			return nil, err
		}
		runs = append(runs, more...)
		if r == 0 {
			know = knowledgeOf(runs[0], env.ds.Dict)
			p = buildPool(o.w, env, know)
			logf("serving pool: %d queries, %d from redundant statements, digest %s", len(p.queries), len(p.minimizable), p.digest())
			closed = newLoop(env, know, p, 0)
			defer closed.close()
		}
		// Two windows a round: the throughput median then rests on eight
		// windows.
		closed.closedWindow(secondsDur(serve / 2))
		closed.closedWindow(secondsDur(serve / 2))
	}
	env.checkDiscovery(o, runs, tally)
	newChecker(env, p, know).checkServe(closed, tally)

	walls, cpus, rss := make([]float64, len(runs)), make([]float64, len(runs)), make([]float64, len(runs))
	raw, stolen := make([]float64, len(runs)), make([]float64, len(runs))
	for i, r := range runs {
		walls[i], cpus[i], rss[i] = r.activeWall().Seconds(), r.cpu.Seconds(), float64(r.maxRSS)/(1<<20)
		raw[i], stolen[i] = r.wall.Seconds(), r.stolen
	}
	logf("discovery: %d runs, wall %v less stolen shares %v; closed loop %d ops, %v ops/s by window",
		len(runs), fmtList(raw), fmtList(stolen), closed.ops(), fmtList(closed.windowRates()))
	for _, k := range []struct {
		name string
		f    func(op) bool
	}{{"query", isQuery}, {"minimize", isMinimize}} {
		c := closed.latenciesMS(k.f)
		logf("  %-8s closed p50 %.3fms p99 %.3fms (%d ops)", k.name, quantile(c, 0.5), quantile(c, 0.99), len(c))
	}
	m := map[string]metric{
		"setup_s":         {setupS, "s"},
		"wall_s":          {median(walls), "s"},
		"cpu_s":           {median(cpus), "s"},
		"peak_rss_mb":     {median(rss), "MB"},
		"serve_ops_per_s": {closed.throughput(), "1/s"},
	}
	return tally.result(m), nil
}

// tally counts attempts and failures for the result's error accounting.
type tally struct {
	attempted, failed int
}

func (t *tally) attempt(n int) { t.attempted += n }

func (t *tally) fail(n int, why string) {
	t.failed += n
	logf("FAILED (%d): %s", n, why)
}

func (t *tally) result(m map[string]metric) *result {
	return &result{
		Correct:   t.failed == 0,
		Attempted: max(t.attempted, 1),
		Failed:    t.failed,
		Metrics:   m,
	}
}

func (t *tally) errorRate() float64 {
	if t.attempted == 0 {
		return 0
	}
	return float64(t.failed) / float64(t.attempted)
}

func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
}

func secondsDur(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

func nproc() int { return runtime.NumCPU() }

// median returns the middle value (mean of the two middle values for an
// even count); 0 for no values.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quantile returns the nearest-rank q-quantile of xs; 0 for no values.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(q*float64(len(s))+0.5) - 1
	return s[min(max(i, 0), len(s)-1)]
}

func fmtList(xs []float64) string {
	out := "["
	for i, x := range xs {
		if i > 0 {
			out += " "
		}
		out += fmt.Sprintf("%.3f", x)
	}
	return out + "]"
}
