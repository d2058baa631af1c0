package dataflow

import "repro/internal/dataflow/opt"

// This file is the engine's lazy logical-plan layer. Narrow operators — Map,
// FlatMap, Filter, and the output side of MapPartitions — do not execute when
// they are called: they append to a pending chain on the Dataset, and the
// whole chain runs as ONE fused stage when something needs the data. A wide
// operator (ReduceByKey, GroupByKey, CoGroup, Distinct, PartitionBy, Union),
// Collect, GlobalReduce, Len, Partitions, or String forces materialization;
// the fused stage streams every source partition through all chained
// functions as column batches (batch.go) in a single pass — one goroutine
// fan-out, one output buffer per worker, zero intermediate partitions — which
// is how Flink executes RDFind's long narrow chains as chained operators
// (App. C of the paper).
//
// Chains are always rooted at materialized partitions: extending a lazy
// dataset composes onto its pending chain, extending a materialized dataset
// starts a fresh chain over its partitions. Forcing is memoized — the first
// force materializes the partitions and clears the plan, every later force is
// a no-op — but chains themselves are not shared state: two consumers that
// each extend the same unforced dataset replay its pending prefix once per
// consumer (like Spark's lineage recomputation). Call Materialize on a
// dataset with several downstream consumers to compute the prefix once.
//
// Fault tolerance keeps the retained-input contract at chain granularity: the
// fused stage's inputs are the chain's materialized root partitions, so a
// retried worker replays the whole chain from them (and resets its per-op
// tallies and batch accounting).

// chain is a pending narrow-operator chain. T is the type the chain emits;
// the materialized root partitions it reads are captured inside feed.
// srcLens holds the root's per-worker partition lengths (the fused stage's
// input accounting), ops the chained operator names in application order, and
// feed streams worker w's root partition through every chained function as
// column batches, incrementing tally[i] for each live record entering the
// i-th operator.
type chain[T any] struct {
	srcLens []int64
	ops     []string
	kinds   []opt.Kind // operator kinds parallel to ops, for lifting into the optimizer IR
	feed    batchFeed[T]
}

// lift raises the pending chain into the optimizer's logical-plan IR.
func (p *chain[T]) lift() opt.Chain {
	ops := make([]opt.Op, len(p.ops))
	for i, name := range p.ops {
		ops[i] = opt.Op{Kind: p.kinds[i], Name: name}
	}
	return opt.Chain{Ops: ops}
}

// chainOf returns d's pending chain, or a fresh zero-op chain rooted at its
// materialized partitions. With the optimizer active it is also the
// shared-prefix decision point: each lazy consumer of a pending chain passes
// through here, and when the planner decides the chain is shared — a second
// in-run consumer, or a warm profile remembering one from the last run — the
// chain materializes now, so this consumer (and every later one) reads the
// computed partitions instead of replaying the prefix. This generalizes the
// hand-placed Materialize calls domain code used to carry.
func chainOf[T any](d *Dataset[T]) *chain[T] {
	if d.shuffle != nil {
		d.forceShuffle()
	}
	if d.plan != nil {
		c := d.ctx
		if c.planner == nil {
			return d.plan
		}
		d.consumers++
		if !c.planner.MaterializeShared(d.plan.lift(), d.consumers) {
			return d.plan
		}
		d.consumers = 0 // the rule already noted the sharing; force must not re-count
		d.force()
	}
	parts := d.parts
	lens := make([]int64, len(parts))
	for w, p := range parts {
		lens[w] = int64(len(p))
	}
	return &chain[T]{srcLens: lens, feed: rootBatchFeed(parts)}
}

// extendOps copies the op-name slice and appends name. The copy matters:
// sibling chains extended off the same parent must not alias one slice.
func extendOps(ops []string, name string) []string {
	out := make([]string, 0, len(ops)+1)
	out = append(out, ops...)
	return append(out, name)
}

// extendKinds is extendOps for the parallel kind slice.
func extendKinds(kinds []opt.Kind, k opt.Kind) []opt.Kind {
	out := make([]opt.Kind, 0, len(kinds)+1)
	out = append(out, kinds...)
	return append(out, k)
}

// chainMap appends a Map to the chain.
func chainMap[T, U any](p *chain[T], name string, f func(T) U) *chain[U] {
	return &chain[U]{
		srcLens: p.srcLens,
		ops:     extendOps(p.ops, name),
		kinds:   extendKinds(p.kinds, opt.KindMap),
		feed:    batchMap(p.feed, len(p.ops), f),
	}
}

// chainFlatMap appends a FlatMap to the chain.
func chainFlatMap[T, U any](p *chain[T], name string, f func(T, func(U))) *chain[U] {
	return &chain[U]{
		srcLens: p.srcLens,
		ops:     extendOps(p.ops, name),
		kinds:   extendKinds(p.kinds, opt.KindFlatMap),
		feed:    batchFlatMap(p.feed, len(p.ops), f),
	}
}

// chainFilter appends a Filter to the chain.
func chainFilter[T any](p *chain[T], name string, pred func(T) bool) *chain[T] {
	return &chain[T]{
		srcLens: p.srcLens,
		ops:     extendOps(p.ops, name),
		kinds:   extendKinds(p.kinds, opt.KindFilter),
		feed:    batchFilter(p.feed, len(p.ops), pred),
	}
}

// chainMapPartitions starts a new chain whose first op is a MapPartitions
// over already-materialized partitions. MapPartitions hands f a whole
// partition slice, so it cannot consume a lazy upstream (the caller forces
// first) — but its output streams, so downstream narrow ops fuse onto it.
func chainMapPartitions[T, U any](parts [][]T, name string, f func(worker int, items []T, emit func(U))) *chain[U] {
	lens := make([]int64, len(parts))
	for w, p := range parts {
		lens[w] = int64(len(p))
	}
	return &chain[U]{
		srcLens: lens,
		ops:     []string{name},
		kinds:   []opt.Kind{opt.KindMapPartitions},
		feed:    batchMapPartitions(parts, f),
	}
}

// fusedName names the fused stage of a chain. A single-op chain keeps
// exactly its operator's name, so spans, retries, and fault-injection sites
// are unchanged wherever nothing actually fused. Longer chains factor the
// ops' longest common '/'-terminated prefix and join the remaining segments
// with '+': ["ext/prune-groups" "ext/drop-empty"] → "ext/prune-groups+drop-empty".
// The naming lives in the opt package (a chain signature doubles as the
// optimizer's profile key); this delegation keeps the two aligned by
// construction.
func fusedName(ops []string) string { return opt.FusedName(ops) }

// commonSlashPrefix returns the longest '/'-terminated prefix shared by all
// names ("" when the first segments already differ).
func commonSlashPrefix(ops []string) string { return opt.CommonSlashPrefix(ops) }

// force materializes any pending chain as one fused stage and memoizes the
// result: d.parts receives the chain's output and the plan is cleared, so
// repeated forces (Len, Partitions, String, several wide consumers) reuse the
// materialized partitions without re-running anything.
func (d *Dataset[T]) force() {
	if d.shuffle != nil {
		d.forceShuffle()
		return
	}
	p := d.plan
	if p == nil {
		return
	}
	d.plan = nil
	c := d.ctx
	if c.planner != nil && d.consumers >= 1 {
		// The chain was already replayed by d.consumers lazy consumers and is
		// now forced on top: feed the total back into the profile so next run
		// the shared-prefix rule materializes it at its first consumer.
		c.planner.ObserveShared(p.lift(), d.consumers+1)
	}
	if c.failed() {
		d.parts = make([][]T, c.workers)
		return
	}
	name := fusedName(p.ops)
	sp := c.begin(name)
	out := make([][]T, c.workers)
	tallies := make([][]int64, c.workers)
	// Per-worker batch accounting: batches emitted into the sink, total lanes
	// they carried, and lanes still live (selected).
	batches := make([]int64, c.workers)
	lanes := make([]int64, c.workers)
	live := make([]int64, c.workers)
	if !c.runStage(name, func(w int) error {
		tally := tallies[w]
		if tally == nil {
			tally = make([]int64, len(p.ops))
			tallies[w] = tally
		} else {
			for i := range tally { // a retried worker replays the chain from scratch
				tally[i] = 0
			}
		}
		res := out[w] // a retried worker reuses its previous attempt's buffer
		if cap(res) < int(p.srcLens[w]) {
			res = make([]T, 0, p.srcLens[w])
		} else {
			res = res[:0]
		}
		batches[w], lanes[w], live[w] = 0, 0, 0 // retried workers restart cleanly
		p.feed(w, tally, func(b colBatch[T]) {
			batches[w]++
			lanes[w] += int64(len(b.vals))
			if b.dense() {
				live[w] += int64(len(b.vals))
				res = append(res, b.vals...)
			} else {
				b.sel.ForEach(func(i int) {
					live[w]++
					res = append(res, b.vals[i])
				})
			}
		})
		out[w] = res
		return nil
	}) {
		d.parts = make([][]T, c.workers)
		return
	}
	if len(p.ops) > 1 {
		sp.fusedOps = fusedOpCounts(p.ops, tallies)
	}
	sp.batches = sumCounts(batches)
	sp.batchLanes = sumCounts(lanes)
	sp.batchLive = sumCounts(live)
	sp.materializedBytes = estimateMaterializedBytes(out)
	c.finish(sp, p.srcLens, totalLen(out))
	d.parts = out
}

// Materialize forces any pending narrow-operator chain (as one fused stage)
// and returns the dataset. Use it to pin a dataset that several downstream
// chains consume: a pending chain would be replayed once per consumer,
// whereas a materialized dataset is computed exactly once.
func (d *Dataset[T]) Materialize() *Dataset[T] {
	d.force()
	return d
}
