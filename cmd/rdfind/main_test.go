package main

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// Golden-file convention: `go test ./cmd/rdfind -update` rewrites the
// .golden files under testdata/ from the current output. Golden runs pin
// -workers 1: with more workers the engine's random hash seed varies
// per-worker distributions, and volatile fields aside, output order and
// span accounting must be bit-stable for an exact comparison.
var update = flag.Bool("update", false, "rewrite golden files")

func goldenCompare(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name+".golden")
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run `go test ./cmd/rdfind -update` to create golden files)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("output differs from %s:\n--- got ---\n%s\n--- want ---\n%s", path, got, want)
	}
}

// volatileKeys are JSON fields that legitimately change between runs (timing,
// memory, scheduling); normalizeJSON zeroes them before golden comparison.
var volatileKeys = map[string]bool{
	"wall_ms":          true,
	"start_ms":         true,
	"goroutines":       true,
	"heap_alloc_bytes": true,
	"shuffle_bytes":    true,
	"gauges":           true, // peak heap / peak goroutines
	"counts":           true, // latency histogram buckets
	"sum":              true, // latency histogram sum
	// Narrow-stage buffering estimates (top-level, per fused span, and the
	// registry counter): memory estimates, zeroed like shuffle_bytes.
	"materialized_bytes":          true,
	"dataflow.materialized.bytes": true,
}

// droppedKeys are volatile fields added after the goldens were recorded;
// deleting them (rather than zeroing) keeps the goldens byte-identical.
var droppedKeys = map[string]bool{
	"mallocs":           true, // run-level allocation deltas
	"alloc_bytes":       true,
	"mallocs_delta":     true, // per-span allocation deltas
	"alloc_bytes_delta": true,
	// Batch accounting of fused chains (per-span, run-level, and the
	// registry counters), likewise added after the goldens were recorded.
	"batches":              true,
	"batch_fill":           true,
	"dataflow.batches":     true,
	"dataflow.batch.lanes": true,
	"dataflow.batch.live":  true,
}

func normalize(v any) any {
	switch x := v.(type) {
	case map[string]any:
		for k, val := range x {
			if droppedKeys[k] {
				delete(x, k)
				continue
			}
			if volatileKeys[k] {
				x[k] = zeroLike(val)
				continue
			}
			x[k] = normalize(val)
		}
		return x
	case []any:
		for i := range x {
			x[i] = normalize(x[i])
		}
		return x
	default:
		return v
	}
}

func zeroLike(v any) any {
	switch v.(type) {
	case []any:
		return []any{}
	case map[string]any:
		return map[string]any{}
	case string:
		return ""
	default:
		return 0
	}
}

func normalizeJSON(t *testing.T, raw []byte) []byte {
	t.Helper()
	var doc any
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("output is not JSON: %v\n%s", err, raw)
	}
	out, err := json.MarshalIndent(normalize(doc), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return append(out, '\n')
}

func runCLI(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

func TestGoldenText(t *testing.T) {
	code, out, errOut := runCLI(t, "-support", "2", "-workers", "1", "testdata/museums.nt")
	if code != exitOK {
		t.Fatalf("exit %d: %s", code, errOut)
	}
	goldenCompare(t, "museums_text", []byte(out))
}

func TestGoldenResultJSON(t *testing.T) {
	code, out, errOut := runCLI(t, "-support", "2", "-workers", "1", "-format", "json", "testdata/museums.nt")
	if code != exitOK {
		t.Fatalf("exit %d: %s", code, errOut)
	}
	goldenCompare(t, "museums_result_json", []byte(out))
}

func TestGoldenSnapshotJSON(t *testing.T) {
	// The snapshot's spans carry the plan optimizer's report (its rewrites
	// move work between spans), so this golden is recorded with the optimizer
	// on; pin it against the CI leg that sets DATAFLOW_OPTIMIZER=off
	// process-wide.
	t.Setenv("DATAFLOW_OPTIMIZER", "on")
	code, out, errOut := runCLI(t, "-support", "2", "-workers", "1", "-json", "testdata/museums.nt")
	if code != exitOK {
		t.Fatalf("exit %d: %s", code, errOut)
	}
	goldenCompare(t, "museums_snapshot_json", normalizeJSON(t, []byte(out)))
}

// TestGoldenExplain pins the -explain rendering: the optimized plan tree with
// the fired rules and per-stage cost estimates. Cost numbers are volatile
// (the model's coefficients may be tuned), so the golden normalizes every
// est_cost value; stage names, record counts, and fired rules are exact.
func TestGoldenExplain(t *testing.T) {
	t.Setenv("DATAFLOW_OPTIMIZER", "on")
	code, out, errOut := runCLI(t, "-explain", "-support", "2", "-workers", "1", "testdata/museums.nt")
	if code != exitOK {
		t.Fatalf("exit %d: %s", code, errOut)
	}
	got := costRe.ReplaceAllString(out, "est_cost=?")
	for _, want := range []string{"plan optimizer: enabled", "rewrites and policies", "plan:"} {
		if !strings.Contains(got, want) {
			t.Fatalf("explain output lacks %q:\n%s", want, got)
		}
	}
	goldenCompare(t, "museums_explain", []byte(got))
}

var costRe = regexp.MustCompile(`est_cost=\S+`)

// TestNoOptimizerFlag checks the -no-optimizer escape hatch end to end:
// results match the goldens byte for byte and the snapshot carries no
// optimizer report.
func TestNoOptimizerFlag(t *testing.T) {
	code, out, errOut := runCLI(t, "-no-optimizer", "-support", "2", "-workers", "1", "testdata/museums.nt")
	if code != exitOK {
		t.Fatalf("exit %d: %s", code, errOut)
	}
	goldenCompare(t, "museums_text", []byte(out))
	code, out, _ = runCLI(t, "-no-optimizer", "-support", "2", "-workers", "1", "-json", "testdata/museums.nt")
	if code != exitOK {
		t.Fatalf("exit %d", code)
	}
	if strings.Contains(out, `"optimizer"`) {
		t.Errorf("-no-optimizer snapshot still carries an optimizer report:\n%s", out)
	}
	code, _, errOut = runCLI(t, "-no-optimizer", "-explain", "-support", "2", "-workers", "1", "testdata/museums.nt")
	if code != exitOK {
		t.Fatalf("-no-optimizer -explain exit %d", code)
	}
}

// TestProfileDirRoundTrip runs discovery twice against one -profile-dir: the
// first run persists its span statistics, the second plans against them —
// and both print the same golden text output.
func TestProfileDirRoundTrip(t *testing.T) {
	t.Setenv("DATAFLOW_OPTIMIZER", "on")
	dir := t.TempDir()
	for run := 0; run < 2; run++ {
		code, out, errOut := runCLI(t, "-profile-dir", dir, "-support", "2", "-workers", "1", "testdata/museums.nt")
		if code != exitOK {
			t.Fatalf("run %d exit %d: %s", run, code, errOut)
		}
		goldenCompare(t, "museums_text", []byte(out))
	}
	if _, err := os.Stat(filepath.Join(dir, "profile.json")); err != nil {
		t.Fatalf("profile not persisted: %v", err)
	}
	// The second run planned warm: -explain against the same dir says so.
	code, out, _ := runCLI(t, "-profile-dir", dir, "-explain", "-support", "2", "-workers", "1", "testdata/museums.nt")
	if code != exitOK {
		t.Fatalf("explain exit %d", code)
	}
	if !strings.Contains(out, "profile-tuned cost model") {
		t.Errorf("warm explain does not report a tuned model:\n%s", out)
	}
}

// TestStatsOptimizerPolicies pins the -stats policy block: per-stage
// decisions the planner made, rendered to stderr — and its absence when the
// optimizer is off.
func TestStatsOptimizerPolicies(t *testing.T) {
	t.Setenv("DATAFLOW_OPTIMIZER", "on")
	code, _, errOut := runCLI(t, "-support", "2", "-workers", "1", "-stats", "testdata/museums.nt")
	if code != exitOK {
		t.Fatalf("exit %d", code)
	}
	if !strings.Contains(errOut, "plan optimizer:      on (cold, default cost model)") {
		t.Errorf("stats output lacks the optimizer line:\n%s", errOut)
	}
	// Single-worker runs always choose the serial-stage policy somewhere, so
	// at least one per-stage decision line renders.
	if !strings.Contains(errOut, "serial-stage") {
		t.Errorf("stats output lacks per-stage policy lines:\n%s", errOut)
	}
	code, _, errOut = runCLI(t, "-no-optimizer", "-support", "2", "-workers", "1", "-stats", "testdata/museums.nt")
	if code != exitOK {
		t.Fatalf("exit %d", code)
	}
	if strings.Contains(errOut, "plan optimizer:") {
		t.Errorf("-no-optimizer stats still render optimizer lines:\n%s", errOut)
	}
}

// TestSnapshotJSONReconciles re-checks the accounting invariant end to end,
// through the CLI: the emitted spans sum to the emitted total work.
func TestSnapshotJSONReconciles(t *testing.T) {
	code, out, _ := runCLI(t, "-support", "2", "-workers", "3", "-json", "testdata/museums.nt")
	if code != exitOK {
		t.Fatalf("exit %d", code)
	}
	var doc struct {
		Stats struct {
			TotalWork int64 `json:"total_work"`
			Spans     []struct {
				RecordsIn int64 `json:"records_in"`
			} `json:"spans"`
		} `json:"stats"`
	}
	if err := json.Unmarshal([]byte(out), &doc); err != nil {
		t.Fatal(err)
	}
	var sum int64
	for _, sp := range doc.Stats.Spans {
		sum += sp.RecordsIn
	}
	if sum != doc.Stats.TotalWork || sum == 0 {
		t.Errorf("span records-in %d != total work %d", sum, doc.Stats.TotalWork)
	}
}

// TestIngestWorkersDeterministic pins the user-visible promise of the
// -ingest-workers flag: any shard count produces byte-identical output,
// because the sharded dictionary merge assigns the same term IDs the
// sequential reader would.
func TestIngestWorkersDeterministic(t *testing.T) {
	baseArgs := []string{"-support", "2", "-workers", "1", "-format", "json", "testdata/museums.nt"}
	code, want, errOut := runCLI(t, baseArgs...)
	if code != exitOK {
		t.Fatalf("exit %d: %s", code, errOut)
	}
	for _, shards := range []string{"1", "2", "4", "8"} {
		args := append([]string{"-ingest-workers", shards}, baseArgs...)
		code, got, errOut := runCLI(t, args...)
		if code != exitOK {
			t.Fatalf("-ingest-workers %s: exit %d: %s", shards, code, errOut)
		}
		if got != want {
			t.Errorf("-ingest-workers %s changed the output:\n--- got ---\n%s--- want ---\n%s", shards, got, want)
		}
	}
}

func TestStatsToStderr(t *testing.T) {
	code, _, errOut := runCLI(t, "-support", "2", "-workers", "2", "-stats", "testdata/museums.nt")
	if code != exitOK {
		t.Fatalf("exit %d", code)
	}
	for _, want := range []string{"triples:", "capture groups:", "work-balance speedup:", "operator trace:", "input"} {
		if !strings.Contains(errOut, want) {
			t.Errorf("stats output lacks %q:\n%s", want, errOut)
		}
	}
}

func TestCheckMode(t *testing.T) {
	code, out, _ := runCLI(t, "-check", "(o, p=<http://example.org/located>) <= (s, p=<http://example.org/cityIn>)",
		"testdata/museums.nt")
	if code != exitOK {
		t.Fatalf("holding statement exit %d: %s", code, out)
	}
	if !strings.Contains(out, "holds=true") {
		t.Errorf("check output: %s", out)
	}
	code, out, _ = runCLI(t, "-check", "(s, p=<http://example.org/cityIn>) <= (s, p=<http://example.org/located>)",
		"testdata/museums.nt")
	if code != exitDiscovery {
		t.Fatalf("violated statement exit %d: %s", code, out)
	}
}

// TestGoldenTurtleInput pins the format-equivalence promise: the Turtle
// rendition of the museums fixture (same triples, same order, prefixed names)
// produces byte-identical text and JSON output to the N-Triples golden.
func TestGoldenTurtleInput(t *testing.T) {
	code, out, errOut := runCLI(t, "-support", "2", "-workers", "1", "testdata/museums.ttl")
	if code != exitOK {
		t.Fatalf("exit %d: %s", code, errOut)
	}
	goldenCompare(t, "museums_text", []byte(out))
	code, out, errOut = runCLI(t, "-support", "2", "-workers", "1", "-format", "json", "testdata/museums.ttl")
	if code != exitOK {
		t.Fatalf("exit %d: %s", code, errOut)
	}
	goldenCompare(t, "museums_result_json", []byte(out))
	// An explicit -input-format overrides sniffing in both directions.
	code, out, errOut = runCLI(t, "-input-format", "turtle", "-support", "2", "-workers", "1", "testdata/museums.ttl")
	if code != exitOK {
		t.Fatalf("explicit turtle exit %d: %s", code, errOut)
	}
	goldenCompare(t, "museums_text", []byte(out))
}

// gzipFile compresses src into dir under name and returns the new path.
func gzipFile(t *testing.T, src, dir, name string) string {
	t.Helper()
	raw, err := os.ReadFile(src)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	if _, err := zw.Write(raw); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestGoldenGzipInput pins transparent decompression: gzipped N-Triples and
// Turtle inputs — by .gz extension or by magic-byte sniff on an extensionless
// name — all reproduce the text golden.
func TestGoldenGzipInput(t *testing.T) {
	dir := t.TempDir()
	for _, tc := range []struct{ src, name string }{
		{"testdata/museums.nt", "museums.nt.gz"},
		{"testdata/museums.ttl", "museums.ttl.gz"},
	} {
		path := gzipFile(t, tc.src, dir, tc.name)
		code, out, errOut := runCLI(t, "-support", "2", "-workers", "1", path)
		if code != exitOK {
			t.Fatalf("%s: exit %d: %s", tc.name, code, errOut)
		}
		goldenCompare(t, "museums_text", []byte(out))
	}
	// No .gz extension: only the magic bytes say it is compressed.
	path := gzipFile(t, "testdata/museums.nt", dir, "museums-compressed")
	code, out, errOut := runCLI(t, "-support", "2", "-workers", "1", path)
	if code != exitOK {
		t.Fatalf("magic-sniffed gzip exit %d: %s", code, errOut)
	}
	goldenCompare(t, "museums_text", []byte(out))
}

// TestQueryMode serves a two-pattern join through -query: the rows land on
// stdout, and -query-reps 2 makes the second execution hit the plan cache —
// visible in the -stats counters (the acceptance surface for the cache).
func TestQueryMode(t *testing.T) {
	const q = "SELECT ?m WHERE { ?m <http://example.org/located> ?c . ?c <http://example.org/cityIn> <http://example.org/germany> }"
	code, out, errOut := runCLI(t, "-support", "2", "-workers", "1",
		"-query", q, "-query-reps", "2", "-stats", "testdata/museums.nt")
	if code != exitOK {
		t.Fatalf("exit %d: %s", code, errOut)
	}
	want := "?m\n<http://example.org/altes_museum>\n<http://example.org/pergamon>\n"
	if out != want {
		t.Errorf("query rows:\n--- got ---\n%s--- want ---\n%s", out, want)
	}
	if !strings.Contains(errOut, "queries served:      2") {
		t.Errorf("stats lack the served count:\n%s", errOut)
	}
	if !strings.Contains(errOut, "plan cache:          1 hits, 1 misses") {
		t.Errorf("stats lack the plan-cache counters:\n%s", errOut)
	}
	// Discovery statistics still precede the engine lines.
	if !strings.Contains(errOut, "triples:") {
		t.Errorf("stats lack the discovery block:\n%s", errOut)
	}
}

// TestQueryModeJSON checks the -json query document: rows in surface form
// plus the engine counter snapshot under committed field names.
func TestQueryModeJSON(t *testing.T) {
	const q = "SELECT ?c WHERE { ?c <http://example.org/cityIn> <http://example.org/france> }"
	code, out, errOut := runCLI(t, "-support", "2", "-workers", "1",
		"-query", q, "-query-reps", "3", "-json", "testdata/museums.nt")
	if code != exitOK {
		t.Fatalf("exit %d: %s", code, errOut)
	}
	var doc struct {
		Vars   []string   `json:"vars"`
		Rows   [][]string `json:"rows"`
		Engine struct {
			Queries int64 `json:"queries"`
			Hits    int64 `json:"plan_cache_hits"`
			Misses  int64 `json:"plan_cache_misses"`
		} `json:"engine"`
	}
	if err := json.Unmarshal([]byte(out), &doc); err != nil {
		t.Fatalf("query document is not JSON: %v\n%s", err, out)
	}
	if len(doc.Vars) != 1 || doc.Vars[0] != "c" {
		t.Errorf("vars = %v", doc.Vars)
	}
	if len(doc.Rows) != 1 || doc.Rows[0][0] != "<http://example.org/paris>" {
		t.Errorf("rows = %v", doc.Rows)
	}
	if doc.Engine.Queries != 3 || doc.Engine.Hits != 2 || doc.Engine.Misses != 1 {
		t.Errorf("engine counters = %+v", doc.Engine)
	}
}

func TestExitCodes(t *testing.T) {
	if code, _, _ := runCLI(t); code != exitUsage {
		t.Errorf("no args exit %d, want %d", code, exitUsage)
	}
	if code, _, _ := runCLI(t, "-variant", "nope", "testdata/museums.nt"); code != exitUsage {
		t.Errorf("bad variant exit %d, want %d", code, exitUsage)
	}
	if code, _, _ := runCLI(t, "-format", "nope", "testdata/museums.nt"); code != exitUsage {
		t.Errorf("bad format exit %d, want %d", code, exitUsage)
	}
	if code, _, _ := runCLI(t, "testdata/absent.nt"); code != exitParse {
		t.Errorf("missing input exit %d, want %d", code, exitParse)
	}
	if code, _, _ := runCLI(t, "-explain", "-json", "testdata/museums.nt"); code != exitUsage {
		t.Errorf("-explain -json exit %d, want %d", code, exitUsage)
	}
	if code, _, _ := runCLI(t, "-cluster", "2", "-explain", "testdata/museums.nt"); code != exitUsage {
		t.Errorf("-cluster -explain exit %d, want %d", code, exitUsage)
	}
	if code, _, _ := runCLI(t, "-cluster", "2", "-profile-dir", "x", "testdata/museums.nt"); code != exitUsage {
		t.Errorf("-cluster -profile-dir exit %d, want %d", code, exitUsage)
	}
	if code, _, _ := runCLI(t, "-input-format", "nope", "testdata/museums.nt"); code != exitUsage {
		t.Errorf("bad input format exit %d, want %d", code, exitUsage)
	}
	if code, _, _ := runCLI(t, "-lenient", "testdata/museums.ttl"); code != exitUsage {
		t.Errorf("-lenient turtle exit %d, want %d", code, exitUsage)
	}
	// (N-Triples is a Turtle subset, so only this direction can fail.)
	if code, _, _ := runCLI(t, "-input-format", "nt", "testdata/museums.ttl"); code != exitParse {
		t.Errorf("Turtle forced through the N-Triples reader exit %d, want %d", code, exitParse)
	}
	if code, _, _ := runCLI(t, "-query", "SELECT", "testdata/museums.nt"); code != exitUsage {
		t.Errorf("malformed -query exit %d, want %d", code, exitUsage)
	}
	if code, _, _ := runCLI(t, "-query", "SELECT ?s WHERE { ?s ?p ?o }", "-query-reps", "0", "testdata/museums.nt"); code != exitUsage {
		t.Errorf("-query-reps 0 exit %d, want %d", code, exitUsage)
	}
	if code, _, _ := runCLI(t, "-query", "SELECT ?s WHERE { ?s ?p ?o }", "-explain", "testdata/museums.nt"); code != exitUsage {
		t.Errorf("-query -explain exit %d, want %d", code, exitUsage)
	}
	if code, _, _ := runCLI(t, "-query", "SELECT ?s WHERE { ?s ?p ?o }", "-check", "x", "testdata/museums.nt"); code != exitUsage {
		t.Errorf("-query -check exit %d, want %d", code, exitUsage)
	}
	if code, _, _ := runCLI(t, "-query", "SELECT ?s WHERE { ?s ?p ?o }", "-cluster", "2", "testdata/museums.nt"); code != exitUsage {
		t.Errorf("-query -cluster exit %d, want %d", code, exitUsage)
	}
}
