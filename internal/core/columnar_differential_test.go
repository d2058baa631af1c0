package core

import (
	"testing"

	"repro/internal/dataflow"
	"repro/internal/datagen"
	"repro/internal/metrics"
)

// columnBatchSize mirrors the dataflow package's batch size. A fused chain's
// head (a root partition slice or a MapPartitions) cuts each worker's n head
// records into ceil(n/columnBatchSize) batches, and every later op emits at
// most one batch per input batch, so one clean pass over a span emits at most
// workers + N/columnBatchSize batches, N being the span's head record count.
const columnBatchSize = 1024

// cleanPassBatchLimit bounds the batches one clean pass of sp can emit. The
// head count N is not recorded directly, so it is bounded by the largest of
// the span's input, its output, and every fused op's input.
func cleanPassBatchLimit(sp metrics.Span, workers int) int64 {
	n := max(sp.RecordsIn, sp.RecordsOut)
	for _, op := range sp.FusedOps {
		n = max(n, op.RecordsIn)
	}
	return int64(workers) + n/columnBatchSize
}

// TestDifferentialColumnarFaultReplay injects transient faults at the
// pipeline's composite fused spans and checks the columnar side of the retry
// promise: the faulted run's Format output is byte-identical to a fault-free
// run's, its fused chains still delivered column batches, and no span's batch
// count exceeds what one clean pass over its inputs can emit — a replayed
// chain's batch accounting restarts rather than adding to the aborted
// attempt's. (Per-span batch counts are compared against that bound, not
// against the fault-free run, because hash partitioning is seeded per run and
// a flat-map chain emits no batch for a worker whose output is empty.)
func TestDifferentialColumnarFaultReplay(t *testing.T) {
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
		if gotF, wantF := got.Format(ds.Dict), want.Format(ds.Dict); gotF != wantF {
			t.Errorf("seed=%d: faulted run's Format output diverged from fault-free run", seed)
		}
		if wantStats.Batches == 0 || stats.Batches == 0 {
			t.Fatalf("seed=%d: column batches fault-free=%d faulted=%d, want both > 0",
				seed, wantStats.Batches, stats.Batches)
		}
		for _, sp := range stats.Dataflow.Spans() {
			if limit := cleanPassBatchLimit(sp, base.Workers); sp.Batches > limit {
				t.Errorf("seed=%d: span %s recorded %d batches, one clean pass emits at most %d",
					seed, sp.Name, sp.Batches, limit)
			}
		}
	}
}
