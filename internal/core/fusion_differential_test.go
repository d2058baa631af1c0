package core

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/cind"
	"repro/internal/dataflow"
	"repro/internal/datagen"
	"repro/internal/metrics"
	"repro/internal/rdf"
)

// spanSummary reduces a trace to the fields a retried run must reproduce:
// names, record counts, and per-fused-op attribution.
func spanSummary(spans []metrics.Span) []string {
	var out []string
	for _, sp := range spans {
		line := fmt.Sprintf("%s in=%d out=%d", sp.Name, sp.RecordsIn, sp.RecordsOut)
		for _, op := range sp.FusedOps {
			line += fmt.Sprintf(" %s=%d", op.Name, op.RecordsIn)
		}
		out = append(out, line)
	}
	return out
}

// compositeFaults traces a fault-free run of ds under base and returns its
// result, its stats, and one transient fault at the first occurrence of every
// composite fused-chain site (stage names containing '+').
func compositeFaults(t *testing.T, ds *rdf.Dataset, base Config) (*cind.Result, *RunStats, []dataflow.Fault) {
	t.Helper()
	tracer := dataflow.NewFaultPlan()
	cfg := base
	cfg.FaultPlan = tracer
	res, stats := Discover(ds, cfg)

	var faults []dataflow.Fault
	seen := map[string]bool{}
	for _, site := range tracer.Trace() {
		if site.Occurrence != 1 || !strings.Contains(site.Stage, "+") || seen[site.Stage] {
			continue
		}
		seen[site.Stage] = true
		faults = append(faults, dataflow.Fault{
			Stage:  site.Stage,
			Worker: site.Worker,
			Kind:   dataflow.FaultTransient,
		})
	}
	if len(faults) == 0 {
		t.Fatalf("pipeline exposed no composite-chain fault sites")
	}
	return res, stats, faults
}

// TestDifferentialFusionFaultReplay injects transient faults at the
// pipeline's composite fused-chain sites (stage names containing '+') and
// checks the two retry promises: the faulted run's result equals a
// fault-free run's, and its span summary does too — a retried worker replays
// its chain from the retained root partitions, resetting per-op tallies, so
// faults stay invisible in both the result and the trace.
func TestDifferentialFusionFaultReplay(t *testing.T) {
	for seed := 0; seed < 8; seed++ {
		ds := datagen.Random(int64(seed))
		h := 1 + seed%3
		base := Config{Support: h, Workers: 2}

		want, wantStats, faults := compositeFaults(t, ds, base)

		cfgFault := base
		cfgFault.FaultPlan = dataflow.NewFaultPlan(faults...)
		cfgFault.MaxStageAttempts = 3
		got, stats := Discover(ds, cfgFault)
		if fired := cfgFault.FaultPlan.Fired(); len(fired) != len(faults) {
			t.Fatalf("seed=%d: %d of %d composite-site faults fired", seed, len(fired), len(faults))
		}
		if stats.StageRetries == 0 {
			t.Errorf("seed=%d: no stage retries recorded despite injected faults", seed)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("seed=%d: faulted run diverged from fault-free result", seed)
		}
		if !reflect.DeepEqual(spanSummary(stats.Dataflow.Spans()), spanSummary(wantStats.Dataflow.Spans())) {
			t.Errorf("seed=%d: faulted trace diverged from fault-free trace", seed)
		}
	}
}
