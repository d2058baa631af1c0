package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
)

// layerTable pairs each per-layer metric with the end-to-end metric it
// should move and the workload it should move it on, written down before
// any measurement.
var layerTable = []struct {
	metrics   []string
	moves, on string
}{
	{[]string{"rdf.ingest_s", "rdf.ingest_mb_per_s", "rdf.dict_terms"}, "wall_s", "scan-heavy"},
	{[]string{"fcdetect.s", "fcdetect.frequent_unary", "fcdetect.frequent_binary",
		"fcdetect.binary_candidates", "fcdetect.binary_yield"}, "wall_s, cpu_s", "scan-heavy"},
	{[]string{"capture.s", "capture.evidences", "capture.dedup_yield", "capture.groups"}, "wall_s", "extract-heavy, scan-heavy"},
	{[]string{"extract.s", "extract.load_estimated", "extract.candidates", "extract.broad_cinds",
		"extract.broad_yield"}, "wall_s, peak_rss_mb", "extract-heavy"},
	{[]string{"extract.minimize_s", "extract.pertinent_yield"}, "wall_s", "extract-heavy"},
	{[]string{"cind.sort_s", "cind.format_s", "cind.output_bytes"}, "wall_s", "extract-heavy"},
	{[]string{"dataflow.span_s", "dataflow.records_in", "dataflow.shuffle_bytes", "dataflow.combiner_hit_rate",
		"dataflow.materialized_bytes", "dataflow.batch_fill", "dataflow.allocs", "dataflow.retries"},
		"cpu_s, peak_rss_mb", "extract-heavy, scan-heavy"},
	{[]string{"dataflow.cluster_shuffle_bytes", "dataflow.cluster_collectives", "dataflow.cluster_losses",
		"source.placement_bytes", "source.rank_skew"}, "wall_s", "cluster-wire"},
	{[]string{"triplestore.build_s"}, "setup_s", "serve-mixed"},
	{[]string{"sparql.exec_ms", "sparql.wait_ms", "sparql.plan_cache_hit_ratio", "sparql.minimize_ms",
		"sparql.p50_ms", "sparql.p99_ms"}, "serve_ops_per_s", "serve-mixed"},
	{[]string{"trace.coverage", "trace.overhead_s"}, "none: they check the trace itself", "all"},
	{[]string{"error_rate"}, "none: failed / attempted operations of the traced run", "all"},
}

type benchMetric struct {
	Name, Unit, Better string
	Bound              *float64
}

type benchSpec struct {
	Command    []string
	Paths      []string
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []benchMetric `json:"end_to_end"`
	PerLayer   []benchMetric `json:"per_layer"`
}

func loadSpec(t *testing.T) benchSpec {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

func names(ms []benchMetric) []string {
	var out []string
	for _, m := range ms {
		out = append(out, m.Name)
	}
	sort.Strings(out)
	return out
}

// TestBenchmarkSpec checks BENCHMARK.json against the harness: the same
// workloads, each with its reason, and a per-layer list that is exactly the
// metric-to-workload table.
func TestBenchmarkSpec(t *testing.T) {
	spec := loadSpec(t)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the harness %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name || strings.TrimSpace(w.Why) == "" {
			t.Errorf("workload %d: %q (why %q), harness has %q", i, w.Name, w.Why, workloads[i].name)
		}
	}
	var table []string
	for _, row := range layerTable {
		if row.moves == "" || row.on == "" {
			t.Errorf("table row %v lacks what it moves or where", row.metrics)
		}
		table = append(table, row.metrics...)
	}
	sort.Strings(table)
	if got := names(spec.PerLayer); strings.Join(got, " ") != strings.Join(table, " ") {
		t.Errorf("per_layer metrics %v\ndiffer from the table %v", got, table)
	}
	for _, m := range spec.EndToEnd {
		if m.Bound == nil || *m.Bound <= 0 || *m.Bound > 0.25 {
			t.Errorf("end-to-end metric %s has bound %v", m.Name, m.Bound)
		}
	}
}

// buildRdfind compiles the program under test.
func buildRdfind(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "rdfind")
	cmd := exec.Command("go", "build", "-o", bin, "repro/cmd/rdfind")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// TestQuickScale runs every workload at a small scale, untraced and traced,
// and checks that each run is correct and reports exactly the metrics
// BENCHMARK.json names, with their units.
func TestQuickScale(t *testing.T) {
	if testing.Short() {
		t.Skip("builds rdfind and runs every workload")
	}
	spec := loadSpec(t)
	bin := buildRdfind(t)
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			want := spec.EndToEnd
			if trace {
				want = spec.PerLayer
			}
			res, err := runWorkload(options{
				w: w, seed: 7, seconds: 1, trace: trace, rdfind: bin,
				workdir: filepath.Join(t.TempDir(), "work"), scale: 0.05, setupReps: 1,
			})
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v failed=%d attempted=%d", w.name, trace, res.Correct, res.Failed, res.Attempted)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, want %d", w.name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %s", w.name, trace, m.Name, got, m.Unit)
				}
			}
		}
	}
}

// TestDeletedLineFails checks that an output missing one CIND line counts
// as a failed run.
func TestDeletedLineFails(t *testing.T) {
	w, _ := findWorkload("serve-mixed")
	o := options{w: w, seed: 3, scale: 0.05, workdir: t.TempDir(), setupReps: 1}
	e, err := buildEnv(o)
	if err != nil {
		t.Fatal(err)
	}
	res, _ := core.Discover(e.ds, core.Config{Support: w.support, Workers: 2})
	good := res.Format(e.ds.Dict)
	lines := strings.SplitAfter(good, "\n")
	cut := -1
	for i, l := range lines {
		if strings.HasPrefix(l, "CIND ") {
			cut = i
			break
		}
	}
	if cut < 0 {
		t.Fatal("reference output has no CIND line")
	}
	bad := strings.Join(append(lines[:cut:cut], lines[cut+1:]...), "")
	var runs []procRun
	for i, text := range []string{good, bad} {
		path := filepath.Join(o.workdir, "out-test-"+string(rune('a'+i)))
		if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
		runs = append(runs, procRun{out: path})
	}
	tl := &tally{}
	e.checkDiscovery(o, runs, tl)
	if tl.attempted != 2 || tl.failed != 1 {
		t.Errorf("attempted=%d failed=%d, want 2 and 1", tl.attempted, tl.failed)
	}
}

// TestRunProcWaitsForOrphans checks that a run is accounted only once every
// process it left behind has ended.
func TestRunProcWaitsForOrphans(t *testing.T) {
	if err := enableSubreaper(); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	start := time.Now()
	r, err := runProc(dir, filepath.Join(dir, "out"), filepath.Join(dir, "err"),
		"/bin/sh", "-c", "(sleep 0.3; echo done) & exit 0")
	if err != nil {
		t.Fatal(err)
	}
	if r.exit != 0 || r.wall >= 300*time.Millisecond {
		t.Errorf("exit %d after %v, want 0 before the orphan ends", r.exit, r.wall)
	}
	if time.Since(start) < 300*time.Millisecond {
		t.Errorf("returned after %v, before the orphan ended", time.Since(start))
	}
	if out, _ := os.ReadFile(filepath.Join(dir, "out")); string(out) != "done\n" {
		t.Errorf("orphan output %q", out)
	}
}

// TestStolenShare checks the share of busy time taken by the hypervisor and
// that a run's active wall time excludes it.
func TestStolenShare(t *testing.T) {
	for _, c := range []struct {
		a, b cpuTicks
		want float64
	}{
		{cpuTicks{100, 10}, cpuTicks{300, 60}, 0.25},
		{cpuTicks{100, 10}, cpuTicks{300, 10}, 0},
		{cpuTicks{}, cpuTicks{}, 0},                 // unreadable counters
		{cpuTicks{100, 10}, cpuTicks{100, 10}, 0},   // no busy time
		{cpuTicks{100, 10}, cpuTicks{150, 5}, 0},    // counters went back
		{cpuTicks{100, 10}, cpuTicks{110, 30}, 1.0}, // clamped
	} {
		if got := stolenShare(c.a, c.b); got != c.want {
			t.Errorf("stolenShare(%v, %v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
	if got := (procRun{wall: 2 * time.Second, stolen: 0.25}).activeWall(); got != 1500*time.Millisecond {
		t.Errorf("activeWall = %v, want 1.5s", got)
	}
	if now := readCPUTicks(); now.busy <= 0 || now.steal < 0 || now.steal > now.busy {
		t.Errorf("readCPUTicks() = %+v", now)
	}
}

// TestMeasuredEnv checks that measured processes get one GOMAXPROCS and the
// given TMPDIR, whatever this process's environment says.
func TestMeasuredEnv(t *testing.T) {
	t.Setenv("GOMAXPROCS", "8")
	t.Setenv("TMPDIR", "/elsewhere")
	var procs, tmps []string
	for _, kv := range measuredEnv("tmp") {
		if v, ok := strings.CutPrefix(kv, "GOMAXPROCS="); ok {
			procs = append(procs, v)
		}
		if v, ok := strings.CutPrefix(kv, "TMPDIR="); ok {
			tmps = append(tmps, v)
		}
	}
	if strings.Join(procs, ",") != "1" || strings.Join(tmps, ",") != "tmp" {
		t.Errorf("GOMAXPROCS %v, TMPDIR %v; want [1] and [tmp]", procs, tmps)
	}
}
