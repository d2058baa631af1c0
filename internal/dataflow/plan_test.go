package dataflow

import (
	"errors"
	"fmt"
	"reflect"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"testing/quick"
)

// Tests for the lazy plan layer (plan.go): partition balance, forcing
// semantics, fused-stage naming and accounting, fault retry on fused chains,
// and equivalence with plain-loop oracles.

func TestParallelizeBalancedPartitions(t *testing.T) {
	for _, tc := range []struct{ n, w int }{
		{5, 4}, {0, 3}, {1, 8}, {7, 7}, {100, 7}, {3, 1}, {16, 4},
	} {
		c := NewContext(tc.w)
		items := ints(tc.n)
		d := Parallelize(c, "in", items)
		parts := d.Partitions()
		if len(parts) != tc.w {
			t.Fatalf("n=%d w=%d: %d partitions", tc.n, tc.w, len(parts))
		}
		min, max := tc.n, 0
		for _, p := range parts {
			if len(p) < min {
				min = len(p)
			}
			if len(p) > max {
				max = len(p)
			}
		}
		if tc.n > 0 && max-min > 1 {
			t.Errorf("n=%d w=%d: partition sizes skewed, min=%d max=%d", tc.n, tc.w, min, max)
		}
		// Chunking is contiguous, so Collect preserves input order.
		if got := Collect(d); !reflect.DeepEqual(got, items) && !(len(got) == 0 && len(items) == 0) {
			t.Errorf("n=%d w=%d: Collect reordered: %v", tc.n, tc.w, got)
		}
	}
	// The motivating skew: 5 items on 4 workers must not leave a worker idle.
	parts := Parallelize(NewContext(4), "in", ints(5)).Partitions()
	var sizes []int
	for _, p := range parts {
		sizes = append(sizes, len(p))
	}
	sort.Sort(sort.Reverse(sort.IntSlice(sizes)))
	if !reflect.DeepEqual(sizes, []int{2, 1, 1, 1}) {
		t.Errorf("5 items on 4 workers split %v, want 2/1/1/1", sizes)
	}
}

func TestSinksForceExactlyOnce(t *testing.T) {
	var calls atomic.Int64
	c := NewContext(3)
	d := Map(Parallelize(c, "in", ints(10)), "count-calls", func(x int) int {
		calls.Add(1)
		return x
	})
	for name, sink := range map[string]func(){
		"Len":        func() { d.Len() },
		"Partitions": func() { d.Partitions() },
		"String":     func() { _ = d.String() },
	} {
		calls.Store(0)
		d.plan = nil
		d.parts = nil
		d = Map(Parallelize(c, "in", ints(10)), "count-calls", func(x int) int {
			calls.Add(1)
			return x
		})
		sink()
		if got := calls.Load(); got != 10 {
			t.Errorf("%s: map ran %d times, want 10", name, got)
		}
		// Repeated sinks reuse the materialized partitions.
		sink()
		sink()
		if got := calls.Load(); got != 10 {
			t.Errorf("repeated %s re-ran the chain: %d calls", name, got)
		}
	}
}

func TestMaterializePinsSharedParent(t *testing.T) {
	run := func(materialize bool) int64 {
		var calls atomic.Int64
		c := NewContext(2)
		parent := Map(Parallelize(c, "in", ints(8)), "shared", func(x int) int {
			calls.Add(1)
			return x
		})
		if materialize {
			parent.Materialize()
		}
		// Two consumers extend the same parent with sibling chains.
		Filter(parent, "a", func(x int) bool { return x%2 == 0 }).Len()
		Filter(parent, "b", func(x int) bool { return x%2 == 1 }).Len()
		return calls.Load()
	}
	if got := run(false); got != 16 {
		t.Errorf("unforced shared parent replayed %d times, want 16 (once per consumer)", got)
	}
	if got := run(true); got != 8 {
		t.Errorf("materialized shared parent ran %d times, want 8 (exactly once)", got)
	}
}

func TestFusedNameComposition(t *testing.T) {
	for _, tc := range []struct {
		ops  []string
		want string
	}{
		{[]string{"solo"}, "solo"},
		{[]string{"a", "b"}, "a+b"},
		{[]string{"ext/prune-groups", "ext/drop-empty"}, "ext/prune-groups+drop-empty"},
		{[]string{"x/y/a", "x/y/b", "x/y/c"}, "x/y/a+b+c"},
		{[]string{"x/y/a", "x/z/b"}, "x/y/a+z/b"},
		{[]string{"x/a", "plain"}, "x/a+plain"},
	} {
		if got := fusedName(tc.ops); got != tc.want {
			t.Errorf("fusedName(%v) = %q, want %q", tc.ops, got, tc.want)
		}
	}
}

func TestFusedChainRunsAsOneStage(t *testing.T) {
	c := NewContext(2)
	d := Parallelize(c, "in", ints(10))
	doubled := Map(d, "double", func(x int) int { return 2 * x })
	small := Filter(doubled, "small", func(x int) bool { return x < 10 })
	twice := FlatMap(small, "twice", func(x int, emit func(int)) { emit(x); emit(x) })
	got := Collect(twice)
	sort.Ints(got)
	if want := []int{0, 0, 2, 2, 4, 4, 6, 6, 8, 8}; !reflect.DeepEqual(got, want) {
		t.Fatalf("fused chain output %v, want %v", got, want)
	}

	spans := c.Stats().Spans()
	if len(spans) != 2 {
		t.Fatalf("got %d spans, want 2 (parallelize + fused chain): %+v", len(spans), spans)
	}
	fused := spans[1]
	if fused.Name != "double+small+twice" {
		t.Errorf("fused span named %q, want %q", fused.Name, "double+small+twice")
	}
	if fused.RecordsIn != 10 || fused.RecordsOut != 10 {
		t.Errorf("fused span records in/out = %d/%d, want 10/10", fused.RecordsIn, fused.RecordsOut)
	}
	// Per-fused-op attribution: double sees all 10, small sees double's 10,
	// twice sees the 5 survivors.
	wantOps := []struct {
		name string
		in   int64
	}{{"double", 10}, {"small", 10}, {"twice", 5}}
	if len(fused.FusedOps) != len(wantOps) {
		t.Fatalf("fused ops = %+v", fused.FusedOps)
	}
	for i, w := range wantOps {
		if fused.FusedOps[i].Name != w.name || fused.FusedOps[i].RecordsIn != w.in {
			t.Errorf("fused op %d = %+v, want %+v", i, fused.FusedOps[i], w)
		}
	}
	// The fused chain counts once against TotalWork: 10 parallelize + 10 chain.
	if tw := c.Stats().TotalWork(); tw != 20 {
		t.Errorf("TotalWork = %d, want 20", tw)
	}
	// Spans and work accounting reconcile (the invariant the bench harness pins).
	var spanIn int64
	for _, sp := range spans {
		spanIn += sp.RecordsIn
	}
	if spanIn != c.Stats().TotalWork() {
		t.Errorf("span records-in %d != TotalWork %d", spanIn, c.Stats().TotalWork())
	}
}

func TestSingleOpChainKeepsPlainSpan(t *testing.T) {
	c := NewContext(2)
	d := Parallelize(c, "in", ints(4))
	Map(d, "only", func(x int) int { return x }).Materialize()
	spans := c.Stats().Spans()
	sp := spans[len(spans)-1]
	if sp.Name != "only" {
		t.Errorf("single-op chain span named %q, want %q", sp.Name, "only")
	}
	if sp.FusedOps != nil {
		t.Errorf("single-op chain carries fused-op attribution: %+v", sp.FusedOps)
	}
}

func TestMapPartitionsIsInputBarrierOutputLazy(t *testing.T) {
	c := NewContext(2)
	d := Parallelize(c, "in", ints(8))
	up := Map(d, "up", func(x int) int { return x + 1 })
	mp := MapPartitions(up, "mp", func(w int, items []int, emit func(int)) {
		for _, x := range items {
			emit(x)
		}
	})
	// Input barrier: building MapPartitions forced the upstream chain.
	if up.plan != nil {
		t.Errorf("MapPartitions did not force its upstream chain")
	}
	down := Map(mp, "down", func(x int) int { return x * 10 })
	if down.Len() != 8 {
		t.Fatalf("Len = %d, want 8", down.Len())
	}
	var names []string
	for _, sp := range c.Stats().Spans() {
		names = append(names, sp.Name)
	}
	// Downstream fuses onto MapPartitions' lazy output: "mp+down" is one stage.
	want := []string{"in", "up", "mp+down"}
	if !reflect.DeepEqual(names, want) {
		t.Errorf("spans = %v, want %v", names, want)
	}
}

func TestFusedChainFaultRetry(t *testing.T) {
	// The fault site is the fused stage's composite name; the retried worker
	// must replay the whole chain from the retained root partitions and the
	// accounting must match a fault-free run.
	plan := NewFaultPlan(Fault{Stage: "double+small", Worker: 1, Kind: FaultTransient})
	c := NewContext(2, WithFaultPlan(plan), WithRetries(2))
	d := Parallelize(c, "in", ints(10))
	got := Collect(Filter(Map(d, "double", func(x int) int { return 2 * x }), "small", func(x int) bool { return x < 10 }))
	if err := c.Err(); err != nil {
		t.Fatalf("fused chain did not recover from transient fault: %v", err)
	}
	sort.Ints(got)
	if want := []int{0, 2, 4, 6, 8}; !reflect.DeepEqual(got, want) {
		t.Fatalf("retried fused chain output %v, want %v", got, want)
	}
	if fired := plan.Fired(); len(fired) != 1 {
		t.Fatalf("fault did not fire at the composite site: %+v", fired)
	}
	if r := c.Stats().Retries()["double+small"]; r != 1 {
		t.Errorf("retries[double+small] = %d, want 1", r)
	}
	// Tallies reset on replay: per-op counts reflect one clean pass.
	for _, sp := range c.Stats().Spans() {
		if sp.Name != "double+small" {
			continue
		}
		for _, op := range sp.FusedOps {
			if op.RecordsIn != 10 {
				t.Errorf("fused op %q counted %d records after retry, want 10", op.Name, op.RecordsIn)
			}
		}
	}
}

func TestFusedChainExhaustedRetriesFailPipeline(t *testing.T) {
	plan := NewFaultPlan(
		Fault{Stage: "a+b", Worker: 0, Occurrence: 1, Kind: FaultTransient},
		Fault{Stage: "a+b", Worker: 0, Occurrence: 2, Kind: FaultTransient},
	)
	c := NewContext(2, WithFaultPlan(plan), WithRetries(1))
	d := Parallelize(c, "in", ints(4))
	out := Map(Map(d, "a", func(x int) int { return x }), "b", func(x int) int { return x })
	if got := Collect(out); len(got) != 0 {
		t.Fatalf("failed pipeline emitted %v", got)
	}
	var se *StageError
	if err := c.Err(); !errors.As(err, &se) || se.Stage != "a+b" {
		t.Fatalf("Err = %v, want StageError for stage a+b", c.Err())
	}
}

func TestFusedStageRecordsMaterializedBytes(t *testing.T) {
	c := NewContext(2)
	d := Parallelize(c, "in", ints(100))
	Map(d, "widen", func(x int) [4]int64 { return [4]int64{int64(x)} }).Materialize()
	snap := c.Stats().Metrics().Snapshot()
	if snap.Counters["dataflow.materialized.bytes"] <= 0 {
		t.Errorf("fused stage recorded no materialized bytes: %+v", snap.Counters)
	}
}

// Property: any chain of narrow operators produces, across worker counts,
// exactly what a plain loop over the input produces, in input order.
func TestQuickFusedUnfusedEquivalence(t *testing.T) {
	f := func(data []int16, workers uint8) bool {
		w := int(workers)%4 + 1
		c := NewContext(w)
		d := Parallelize(c, "in", data)
		m := Map(d, "widen", func(x int16) int { return int(x) * 3 })
		fl := FlatMap(m, "dup-odd", func(x int, emit func(int)) {
			emit(x)
			if x%2 != 0 {
				emit(-x)
			}
		})
		got := Collect(Filter(fl, "bound", func(x int) bool { return x > -50000 }))

		var want []int
		for _, v := range data {
			x := int(v) * 3
			outs := []int{x}
			if x%2 != 0 {
				outs = append(outs, -x)
			}
			for _, o := range outs {
				if o > -50000 {
					want = append(want, o)
				}
			}
		}
		return reflect.DeepEqual(got, want) || len(got) == 0 && len(want) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// A fused chain feeding a wide operator must agree with a map oracle, also
// when an injected fault at the combine site is replayed.
func TestFusedUnfusedAgreeThroughShuffle(t *testing.T) {
	want := map[int]int{}
	for x := 0; x < 200; x++ {
		want[x%7]++
	}
	for _, w := range []int{1, 2, 4} {
		plan := NewFaultPlan(Fault{Stage: "count/combine", Worker: 0, Kind: FaultTransient})
		c := NewContext(w, WithFaultPlan(plan), WithRetries(2))
		d := Parallelize(c, "in", ints(200))
		pairs := Map(d, "pair", func(x int) Pair[int, int] { return Pair[int, int]{x % 7, 1} })
		counts := ReduceByKey(pairs, "count", func(a, b int) int { return a + b })
		got := map[int]int{}
		for _, kv := range Collect(counts) {
			got[kv.Key] = kv.Val
		}
		if c.Err() != nil {
			t.Fatalf("w=%d: %v", w, c.Err())
		}
		if len(plan.Fired()) != 1 {
			t.Errorf("w=%d: combine fault fired %d times, want 1", w, len(plan.Fired()))
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("w=%d: counts %v, want %v", w, got, want)
		}
	}
}

func TestSpanTreeRendersFusedOps(t *testing.T) {
	c := NewContext(2)
	d := Parallelize(c, "in", ints(4))
	Map(Map(d, "a", func(x int) int { return x }), "b", func(x int) int { return x }).Len()
	tree := c.Stats().SpanTree()
	if !strings.Contains(tree, "a+b") || !strings.Contains(tree, "fused=2") {
		t.Errorf("span tree missing fused annotation:\n%s", tree)
	}
}

func TestCommonSlashPrefix(t *testing.T) {
	for _, tc := range []struct {
		ops  []string
		want string
	}{
		{[]string{"a/b/c", "a/b/d"}, "a/b/"},
		{[]string{"a/b", "c/d"}, ""},
		{[]string{"noslash", "other"}, ""},
		{[]string{"a/b/c", "a/x"}, "a/"},
	} {
		if got := commonSlashPrefix(tc.ops); got != tc.want {
			t.Errorf("commonSlashPrefix(%v) = %q, want %q", tc.ops, got, tc.want)
		}
	}
}

func TestForceAfterFailureYieldsEmpty(t *testing.T) {
	plan := NewFaultPlan(
		Fault{Stage: "boom", Worker: 0, Occurrence: 1, Kind: FaultTransient},
	)
	c := NewContext(2, WithFaultPlan(plan), WithRetries(0))
	d := Parallelize(c, "in", ints(4))
	Map(d, "boom", func(x int) int { return x }).Materialize()
	if c.Err() == nil {
		t.Fatal("expected stage failure")
	}
	// A chain planned before (or after) the failure drains to empty.
	late := Map(d, "late", func(x int) int { return x })
	if got := late.Len(); got != 0 {
		t.Errorf("post-failure chain produced %d records", got)
	}
	if got := fmt.Sprint(Collect(late)); got != "[]" {
		t.Errorf("post-failure Collect = %s", got)
	}
}
