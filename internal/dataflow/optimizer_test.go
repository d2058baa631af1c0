package dataflow

import (
	"fmt"
	"reflect"
	"sort"
	"sync/atomic"
	"testing"

	"repro/internal/dataflow/opt"
)

// The optimizer's engine-level contract: every rewrite rule and policy is
// invisible at the result boundary (byte-identical partitions against an
// optimizer-off run) and visible in the run report. These suites drive each
// rule directly through the operators that host it.

// optPair sorts pair slices for result comparison where map iteration order
// is involved.
func optPair(parts [][]Pair[int, int]) []Pair[int, int] {
	var all []Pair[int, int]
	for _, p := range parts {
		all = append(all, p...)
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].Key != all[j].Key {
			return all[i].Key < all[j].Key
		}
		return all[i].Val < all[j].Val
	})
	return all
}

func seqInts(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// TestOptimizerSharedPrefixMaterializes pins the shared-prefix rule's two
// activation modes. Cold: the second lazy consumer of a pending chain
// triggers materialization, so the prefix executes at most twice (once
// lazily replayed by consumer one, once materialized) instead of once per
// consumer. Warm: a profile that remembers the sharing materializes at the
// first consumer, and the prefix executes exactly once for any number of
// consumers — the hand-placed-Materialize behavior, derived automatically.
func TestOptimizerSharedPrefixMaterializes(t *testing.T) {
	run := func(prof *opt.Profile, consumers int) (int64, [][]int, *opt.Report) {
		var calls atomic.Int64
		opts := []Option{WithOptimizer(true)}
		if prof != nil {
			opts = append(opts, WithProfile(prof))
		}
		c := NewContext(2, opts...)
		base := Parallelize(c, "src", seqInts(100))
		shared := Map(base, "stage/expensive", func(v int) int {
			calls.Add(1)
			return v * 3
		})
		outs := make([][][]int, consumers)
		for i := 0; i < consumers; i++ {
			outs[i] = Map(shared, fmt.Sprintf("stage/consumer-%d", i), func(v int) int { return v + i }).Partitions()
		}
		return calls.Load(), outs[0], c.OptimizerReport()
	}

	prof := opt.NewProfile()
	calls, cold, rep := run(prof, 3)
	if calls > 200 {
		t.Errorf("cold run executed the shared prefix %d times for 100 records × 3 consumers; want ≤ 200", calls)
	}
	if rep.Fired(opt.RuleSharedPrefix) == 0 {
		t.Errorf("cold run with 3 consumers fired no shared-prefix decision: %+v", rep.Decisions)
	}
	if prof.SharedConsumers("stage/expensive") < 2 {
		t.Errorf("profile did not learn the sharing: consumers=%d", prof.SharedConsumers("stage/expensive"))
	}

	calls, warm, _ := run(prof, 3)
	if calls != 100 {
		t.Errorf("warm run executed the shared prefix %d times; want exactly 100 (materialize at first consumer)", calls)
	}
	if !reflect.DeepEqual(cold, warm) {
		t.Errorf("warm-profile run changed the results")
	}

	// Optimizer off: every consumer replays the prefix.
	var calls3 atomic.Int64
	c := NewContext(2, WithOptimizer(false))
	base := Parallelize(c, "src", seqInts(100))
	shared := Map(base, "stage/expensive", func(v int) int { calls3.Add(1); return v * 3 })
	var off [][]int
	for i := 0; i < 3; i++ {
		off = Map(shared, fmt.Sprintf("stage/consumer-%d", i), func(v int) int { return v + i }).Partitions()
	}
	if calls3.Load() != 300 {
		t.Fatalf("optimizer-off run executed the shared prefix %d times; want 300 (replay per consumer)", calls3.Load())
	}
	if rep := c.OptimizerReport(); rep != nil {
		t.Errorf("optimizer-off context returned a report: %+v", rep)
	}
	_ = off
}

// TestOptimizerShufflePushdown pins the pushdown rules: Maps and Filters
// after a PartitionBy execute on the scatter side, the shuffle span carries
// their fused attribution, and the output is byte-identical to an
// optimizer-off run — including partition placement and in-partition order,
// because routing happens on the pre-image.
func TestOptimizerShufflePushdown(t *testing.T) {
	build := func(c *Context) [][]int {
		d := Parallelize(c, "src", seqInts(1000))
		shuffled := PartitionBy(d, "route", func(v int) int { return v / 100 })
		projected := Map(shuffled, "project", func(v int) int { return v * 2 })
		kept := Filter(projected, "keep", func(v int) bool { return v%3 != 0 })
		return kept.Partitions()
	}

	on := NewContext(4, WithOptimizer(true))
	got := build(on)
	off := NewContext(4, WithOptimizer(false))
	want := build(off)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("pushdown changed partition contents or order:\n on=%v\noff=%v", got, want)
	}

	rep := on.OptimizerReport()
	if rep.Fired(opt.RuleProjectionPushdown) != 1 || rep.Fired(opt.RuleFilterPushdown) != 1 {
		t.Fatalf("expected one projection and one filter pushdown, got %+v", rep.Decisions)
	}
	var found bool
	for _, sp := range on.Stats().Spans() {
		if sp.Name != "route" {
			continue
		}
		found = true
		if len(sp.FusedOps) != 2 || sp.FusedOps[0].Name != "project" || sp.FusedOps[1].Name != "keep" {
			t.Errorf("shuffle span fused-op attribution = %+v; want project, keep", sp.FusedOps)
		}
		if sp.RecordsIn != 1000 {
			t.Errorf("shuffle span records_in = %d; want 1000", sp.RecordsIn)
		}
	}
	if !found {
		t.Errorf("no span named after the PartitionBy stage")
	}

	// The span catalog differs between modes (pushed ops leave their own
	// spans), but the pushed-through record count must not: the filter sees
	// all 1000 mapped records either way.
	for _, sp := range on.Stats().Spans() {
		if sp.Name == "project" || sp.Name == "keep" {
			t.Errorf("pushed operator %q still recorded its own span", sp.Name)
		}
	}
}

// TestOptimizerShuffleSecondConsumer pins the multi-consumer contract of a
// pending shuffle: deriving a pushed plan never mutates the original, and a
// second consumer forces the un-extended shuffle with correct contents.
func TestOptimizerShuffleSecondConsumer(t *testing.T) {
	c := NewContext(3, WithOptimizer(true))
	d := Parallelize(c, "src", seqInts(90))
	shuffled := PartitionBy(d, "route", func(v int) int { return v })
	mapped := Map(shuffled, "project", func(v int) int { return -v })
	raw := shuffled.Partitions() // second consumer: forces the original shuffle
	got := mapped.Partitions()

	off := NewContext(3, WithOptimizer(false))
	dOff := Parallelize(off, "src", seqInts(90))
	shuffledOff := PartitionBy(dOff, "route", func(v int) int { return v })
	wantRaw := shuffledOff.Partitions()
	wantMapped := Map(shuffledOff, "project", func(v int) int { return -v }).Partitions()

	if !reflect.DeepEqual(raw, wantRaw) {
		t.Errorf("original shuffle diverged after a pushed derivation")
	}
	if !reflect.DeepEqual(got, wantMapped) {
		t.Errorf("pushed shuffle diverged from eager shuffle+map")
	}
}

// TestOptimizerCombinerSkip pins combiner selection: with a profile showing
// near-unique keys, ReduceByKey elides its combine pass (no combiner
// accounting on the span) and still produces identical results.
func TestOptimizerCombinerSkip(t *testing.T) {
	items := make([]Pair[int, int], 500)
	for i := range items {
		items[i] = Pair[int, int]{Key: i, Val: i} // all keys unique: worst case for the combiner
	}
	run := func(prof *opt.Profile) ([]Pair[int, int], *Context) {
		opts := []Option{WithOptimizer(true)}
		if prof != nil {
			opts = append(opts, WithProfile(prof))
		}
		c := NewContext(3, opts...)
		d := Parallelize(c, "src", items)
		red := ReduceByKey(d, "sum", func(a, b int) int { return a + b })
		return optPair(red.Partitions()), c
	}

	prof := opt.NewProfile()
	want, c1 := run(prof)
	prof.Observe(c1.Stats().Spans())
	if obs, ok := prof.Lookup("sum"); !ok || obs.CombinerIn == 0 {
		t.Fatalf("profile did not record combiner accounting: %+v ok=%v", obs, ok)
	}

	got, c2 := run(prof)
	rep := c2.OptimizerReport()
	if rep.Fired(opt.RuleCombinerSkip) != 1 {
		t.Fatalf("warm run did not skip the useless combiner: %+v", rep.Decisions)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("combiner skip changed the reduced results")
	}
	for _, sp := range c2.Stats().Spans() {
		if sp.Name == "sum" && sp.CombinerIn != 0 {
			t.Errorf("skipped combiner still recorded combiner_in=%d", sp.CombinerIn)
		}
	}

	// A combiner that actually aggregates keeps running: 10 hot keys.
	hot := make([]Pair[int, int], 500)
	for i := range hot {
		hot[i] = Pair[int, int]{Key: i % 10, Val: 1}
	}
	prof2 := opt.NewProfile()
	c3 := NewContext(3, WithOptimizer(true), WithProfile(prof2))
	ReduceByKey(Parallelize(c3, "src", hot), "sum", func(a, b int) int { return a + b }).Partitions()
	prof2.Observe(c3.Stats().Spans())
	c4 := NewContext(3, WithOptimizer(true), WithProfile(prof2))
	ReduceByKey(Parallelize(c4, "src", hot), "sum", func(a, b int) int { return a + b }).Partitions()
	if c4.OptimizerReport().Fired(opt.RuleCombinerSkip) != 0 {
		t.Errorf("profitable combiner was skipped")
	}
}

// TestOptimizerSerialStagePolicy pins the worker-count policy: a stage the
// profile knows to be tiny runs serially at workers > 1 with identical
// results, and the decision is recorded.
func TestOptimizerSerialStagePolicy(t *testing.T) {
	items := seqInts(50) // far under serialRowCutoff
	prof := opt.NewProfile()
	c1 := NewContext(4, WithOptimizer(true), WithProfile(prof))
	want := Map(Parallelize(c1, "src", items), "tiny", func(v int) int { return v * 7 }).Partitions()
	prof.Observe(c1.Stats().Spans())

	c2 := NewContext(4, WithOptimizer(true), WithProfile(prof))
	got := Map(Parallelize(c2, "src", items), "tiny", func(v int) int { return v * 7 }).Partitions()
	if !reflect.DeepEqual(got, want) {
		t.Errorf("serial execution changed results")
	}
	if c2.OptimizerReport().Fired(opt.RuleSerialStage) == 0 {
		t.Errorf("profiled tiny stage at 4 workers recorded no serial-stage policy: %+v",
			c2.OptimizerReport().Decisions)
	}
}

// TestOptimizerSpillBypass pins the memory-budget policy: a stage whose
// profiled state sits far under a generous budget skips the spill path on
// the next run (identical results, no spill activity), while a cold stage
// honors the budget.
func TestOptimizerSpillBypass(t *testing.T) {
	items := make([]Pair[int, int], 400)
	for i := range items {
		items[i] = Pair[int, int]{Key: i % 20, Val: i}
	}
	sum := func(a, b int) int { return a + b }
	const budget = 64 << 20 // generous: profiled state fits thousands of times

	runBudgeted := func(prof *opt.Profile) (*Context, [][]Pair[int, int]) {
		opts := []Option{WithOptimizer(true),
			WithMemoryBudget(budget), WithSpillDir(t.TempDir())}
		if prof != nil {
			opts = append(opts, WithProfile(prof))
		}
		c := NewContext(2, opts...)
		out := ReduceByKey(Parallelize(c, "src", items), "agg", sum).Partitions()
		return c, out
	}

	prof := opt.NewProfile()
	c1, want := runBudgeted(prof)
	if c1.OptimizerReport().Fired(opt.RuleSpillBypass) != 0 {
		t.Fatalf("cold run bypassed the spill path")
	}
	prof.Observe(c1.Stats().Spans())

	c2, got := runBudgeted(prof)
	if c2.OptimizerReport().Fired(opt.RuleSpillBypass) != 1 {
		t.Fatalf("warm run under a generous budget kept the spill path: %+v", c2.OptimizerReport().Decisions)
	}
	if !reflect.DeepEqual(optPair(got), optPair(want)) {
		t.Errorf("spill bypass changed the reduced results")
	}

	// A 1-byte budget never bypasses, warm or not: headroom can't be met.
	c3 := NewContext(2, WithOptimizer(true), WithProfile(prof),
		WithMemoryBudget(1), WithSpillDir(t.TempDir()))
	ReduceByKey(Parallelize(c3, "src", items), "agg", sum).Partitions()
	if c3.OptimizerReport().Fired(opt.RuleSpillBypass) != 0 {
		t.Errorf("1-byte budget was bypassed")
	}
}

// TestOptimizerDistributedInert pins that replicated drivers never get a
// planner: profile- and consumer-count-driven decisions on rank-local state
// could diverge between replicas and desynchronize the collectives.
func TestOptimizerDistributedInert(t *testing.T) {
	c := NewContext(2, WithOptimizer(true))
	if !c.Optimizer() {
		t.Fatalf("single-process context has no active optimizer")
	}
	// Simulated via the option hooks the cluster/worker constructors use.
	cl := &Cluster{}
	cc := NewContext(2, WithOptimizer(true), WithCluster(cl))
	if cc.Optimizer() {
		t.Errorf("coordinator context has an active optimizer")
	}
	if cc.OptimizerReport() != nil {
		t.Errorf("coordinator context returned an optimizer report")
	}
}
