package dataflow

import (
	"reflect"
	"sort"
	"testing"

	"repro/internal/metrics"
)

// Tests for the column kernels of fused chains (batch.go): batch/fill
// accounting, span accounting against hand-counted records, fault retry over
// batched chains, and batch-boundary sweeps against a plain-loop oracle.

// TestColumnarBatchAccounting pins the batch math: partitions are sliced into
// batchSize-lane dense batches, Map and Filter preserve the batch count, and
// the fill rate is the Filter's survivor fraction.
func TestColumnarBatchAccounting(t *testing.T) {
	const n, w = 2500, 2
	c := NewContext(w)
	d := Parallelize(c, "in", ints(n))
	doubled := Map(d, "double", func(x int) int { return 2 * x })
	kept := Filter(doubled, "small", func(x int) bool { return x < n })
	out := Collect(kept)
	if len(out) != n/2 {
		t.Fatalf("chain output %d records, want %d", len(out), n/2)
	}

	// 1250 records per worker → 2 root batches each (1024 + 226); Filter
	// clears bits in place, so the same 4 batches reach the sink.
	var fused *int
	for _, sp := range c.Stats().Spans() {
		if sp.Name != "double+small" {
			continue
		}
		fused = new(int)
		if sp.Batches != 4 {
			t.Errorf("span batches = %d, want 4", sp.Batches)
		}
		// Fill: 2500 lanes delivered, 1250 still selected.
		if want := 0.5; sp.BatchFill != want {
			t.Errorf("span batch fill = %v, want %v", sp.BatchFill, want)
		}
	}
	if fused == nil {
		t.Fatal("no fused span recorded")
	}
	counters := c.Stats().Metrics().Snapshot().Counters
	if counters["dataflow.batches"] != 4 {
		t.Errorf("dataflow.batches = %d, want 4", counters["dataflow.batches"])
	}
	if counters["dataflow.batch.lanes"] != n {
		t.Errorf("dataflow.batch.lanes = %d, want %d", counters["dataflow.batch.lanes"], n)
	}
	if counters["dataflow.batch.live"] != n/2 {
		t.Errorf("dataflow.batch.live = %d, want %d", counters["dataflow.batch.live"], n/2)
	}
}

// TestColumnarSpanParity pins a fused chain's span record against counts
// worked out by hand: names, records in and out, per-worker attribution, and
// per-fused-op tallies count live records only — lanes a Filter cleared never
// reach a later operator's tally — so the record counts the benchmark harness
// reconciles do not depend on batching.
func TestColumnarSpanParity(t *testing.T) {
	const n = 5000
	c := NewContext(3)
	d := Parallelize(c, "in", ints(n))
	kept := Filter(d, "even", func(x int) bool { return x%2 == 0 })
	m := Map(kept, "widen", func(x int) int { return x * 3 })
	fl := FlatMap(m, "dup-small", func(x int, emit func(int)) {
		emit(x)
		if x < 3000 {
			emit(-x)
		}
	})
	out := Collect(fl)
	// 2500 evens survive; the 500 below 1000 (3x < 3000) emit twice.
	if len(out) != 3000 {
		t.Fatalf("chain output %d records, want 3000", len(out))
	}
	var sp *metrics.Span
	for _, s := range c.Stats().Spans() {
		if s.Name == "even+widen+dup-small" {
			sp = &s
		}
	}
	if sp == nil {
		t.Fatal("no fused span recorded")
	}
	if sp.RecordsIn != n || sp.RecordsOut != 3000 {
		t.Errorf("span records in/out = %d/%d, want %d/3000", sp.RecordsIn, sp.RecordsOut, n)
	}
	// Parallelize spreads 5000 records as 1667/1667/1666.
	if want := []int64{1667, 1667, 1666}; !reflect.DeepEqual(sp.PerWorker, want) {
		t.Errorf("per-worker = %v, want %v", sp.PerWorker, want)
	}
	var tallies []int64
	for _, op := range sp.FusedOps {
		tallies = append(tallies, op.RecordsIn)
	}
	if want := []int64{n, 2500, 2500}; !reflect.DeepEqual(tallies, want) {
		t.Errorf("fused-op tallies = %v, want %v", tallies, want)
	}
	if sp.Batches == 0 {
		t.Error("fused span recorded no batches")
	}
}

// TestFusedChainFaultRetryColumnar extends TestFusedChainFaultRetry to the
// batch accounting: a transient fault at the composite site must be retried
// under the same span name, and the replayed worker's per-op tallies and
// batch counts must reset (one clean pass).
func TestFusedChainFaultRetryColumnar(t *testing.T) {
	plan := NewFaultPlan(Fault{Stage: "double+small", Worker: 1, Kind: FaultTransient})
	c := NewContext(2, WithFaultPlan(plan), WithRetries(2))
	d := Parallelize(c, "in", ints(10))
	got := Collect(Filter(Map(d, "double", func(x int) int { return 2 * x }), "small", func(x int) bool { return x < 10 }))
	if err := c.Err(); err != nil {
		t.Fatalf("fused chain did not recover from transient fault: %v", err)
	}
	sort.Ints(got)
	if want := []int{0, 2, 4, 6, 8}; !reflect.DeepEqual(got, want) {
		t.Fatalf("retried chain output %v, want %v", got, want)
	}
	if fired := plan.Fired(); len(fired) != 1 {
		t.Fatalf("fault did not fire at the composite site: %+v", fired)
	}
	if r := c.Stats().Retries()["double+small"]; r != 1 {
		t.Errorf("retries[double+small] = %d, want 1", r)
	}
	for _, sp := range c.Stats().Spans() {
		if sp.Name != "double+small" {
			continue
		}
		// Tallies reset on replay: per-op counts reflect one clean pass.
		for _, op := range sp.FusedOps {
			if op.RecordsIn != 10 {
				t.Errorf("fused op %q counted %d records after retry, want 10", op.Name, op.RecordsIn)
			}
		}
		// Batch counts reset too: 5 records per worker → 1 batch each.
		if sp.Batches != 2 {
			t.Errorf("span batches = %d after retry, want 2 (reset on replay)", sp.Batches)
		}
		if sp.BatchFill != 0.5 {
			t.Errorf("span batch fill = %v after retry, want 0.5", sp.BatchFill)
		}
	}
}

// TestColumnarEquivalenceAcrossWorkers sweeps worker counts and chain shapes
// the quick-check cannot pin deterministically: batch-boundary sizes around
// batchSize and multiples, with outputs required equal per partition to a
// plain loop over each input partition, so partition boundaries round-trip
// too.
func TestColumnarEquivalenceAcrossWorkers(t *testing.T) {
	for _, n := range []int{0, 1, batchSize - 1, batchSize, batchSize + 1, 3*batchSize + 17} {
		for _, w := range []int{1, 2, 4} {
			c := NewContext(w)
			d := Parallelize(c, "in", ints(n))
			want := make([][]int, w)
			for i, part := range d.Partitions() {
				want[i] = []int{}
				for _, x := range part {
					if x++; x%2 == 1 {
						want[i] = append(want[i], x, x*10)
					}
				}
			}
			m := Map(d, "inc", func(x int) int { return x + 1 })
			f := Filter(m, "odd", func(x int) bool { return x%2 == 1 })
			fl := FlatMap(f, "dup", func(x int, emit func(int)) { emit(x); emit(x * 10) })
			got := fl.Partitions()
			for i := range got {
				if len(got[i]) == 0 && len(want[i]) == 0 {
					continue
				}
				if !reflect.DeepEqual(got[i], want[i]) {
					t.Errorf("n=%d w=%d: partition %d diverges from the loop oracle", n, w, i)
				}
			}
		}
	}
}
