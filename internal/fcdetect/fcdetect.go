// Package fcdetect implements RDFind's Frequent Condition Detector (§5,
// Fig. 5): the first phase of lazy pruning. It finds all unary and binary
// conditions whose frequency reaches the support threshold, compacts them
// into Bloom filters for constant-time probing in later stages, and derives
// the exact association rules as a by-product of the two counting passes.
package fcdetect

import (
	"repro/internal/bloom"
	"repro/internal/cind"
	"repro/internal/dataflow"
	"repro/internal/rdf"
)

// Options tune the detector and the downstream capture-group creation.
type Options struct {
	// PredicatesOnlyInConditions implements §8.3's Freebase configuration:
	// "we consider predicates only in conditions" — the predicate element
	// never serves as a projection attribute, so no capture evidences are
	// emitted for it (and the dominant capture groups that predicate
	// projections of hot values like rdf:type would create never arise).
	// Condition detection itself is unaffected.
	PredicatesOnlyInConditions bool
}

// Output is what later pipeline stages need: the exact frequent-condition
// counters (kept as distributed datasets), the Bloom filters that stand in
// for them during probing, and the association rules.
type Output struct {
	// Unary and Binary hold the frequent conditions with their exact
	// frequencies, partitioned across workers.
	Unary  *dataflow.Dataset[dataflow.Pair[cind.Condition, int]]
	Binary *dataflow.Dataset[dataflow.Pair[cind.Condition, int]]
	// UnaryBloom and BinaryBloom are the broadcastable compact indexes
	// (steps 3–4 and 8–9 of Fig. 5). BinaryBloom is nil in predicate-only
	// mode. Both may yield false positives, never false negatives.
	UnaryBloom  *bloom.Filter
	BinaryBloom *bloom.Filter
	// ARs are the exact association rules with their supports (step 11).
	ARs []cind.AR
}

// HasAR reports whether the rule "a → b" was detected, for Algorithm 2's
// line 9–10 checks. Rules are indexed by their If and Then conditions.
type arIndex map[[2]cind.Condition]struct{}

// ARSet builds a constant-time lookup over the detected rules.
func (o *Output) ARSet() map[[2]cind.Condition]struct{} {
	idx := make(arIndex, len(o.ARs))
	for _, r := range o.ARs {
		idx[[2]cind.Condition{r.If, r.Then}] = struct{}{}
	}
	return idx
}

// unaryConditionsOf emits the three unary conditions of a triple (step 1 of
// Fig. 5).
func unaryConditionsOf(t rdf.Triple, emit func(cind.Condition)) {
	emit(cind.Unary(rdf.Subject, t.S))
	emit(cind.Unary(rdf.Predicate, t.P))
	emit(cind.Unary(rdf.Object, t.O))
}

// Detect runs the full detector over the partitioned triples. When the
// engine has already failed (worker fault, cancellation) the detector
// schedules nothing and returns a well-formed empty output; the caller
// observes the failure via the dataset's Context.Err.
func Detect(triples *dataflow.Dataset[rdf.Triple], h int, opts Options) *Output {
	if triples.Context().Err() != nil {
		return abortedOutput(triples.Context())
	}
	out := &Output{}

	// Frequent unary conditions: per-triple counters, early-aggregated and
	// globally reduced, then thresholded (steps 1–2).
	unaryCounters := dataflow.FlatMap(triples, "fcd/unary-counters",
		func(t rdf.Triple, emit func(dataflow.Pair[cind.Condition, int])) {
			unaryConditionsOf(t, func(c cind.Condition) {
				emit(dataflow.Pair[cind.Condition, int]{Key: c, Val: 1})
			})
		})
	unarySums := dataflow.ReduceByKey(unaryCounters, "fcd/unary-sum", addInts)
	out.Unary = dataflow.Filter(unarySums, "fcd/unary-threshold",
		func(p dataflow.Pair[cind.Condition, int]) bool { return p.Val >= h })

	// Compact into a Bloom filter: per-worker partial filters, unioned by a
	// bit-wise OR on a single worker (steps 3–4).
	out.UnaryBloom = buildConditionBloom(out.Unary, "fcd/unary-bloom")

	// Abort promptly between the two counting passes when the engine failed
	// during the unary phase — the binary pass and the AR join would only
	// schedule no-op stages over drained datasets.
	if triples.Context().Err() != nil {
		return abortedOutput(triples.Context())
	}

	// Frequent binary conditions: Algorithm 1 — candidates are generated on
	// demand per triple by probing the unary filter, never materialized
	// up front (steps 5–7).
	bu := out.UnaryBloom
	probe := func(a rdf.Attr, v rdf.Value) bool { return bu.Test(cind.Unary(a, v).Key()) }
	binaryCounters := dataflow.FlatMap(triples, "fcd/binary-counters",
		func(t rdf.Triple, emit func(dataflow.Pair[cind.Condition, int])) {
			sF := probe(rdf.Subject, t.S)
			pF := probe(rdf.Predicate, t.P)
			oF := probe(rdf.Object, t.O)
			if sF && pF {
				emit(dataflow.Pair[cind.Condition, int]{Key: cind.Binary(rdf.Subject, t.S, rdf.Predicate, t.P), Val: 1})
			}
			if sF && oF {
				emit(dataflow.Pair[cind.Condition, int]{Key: cind.Binary(rdf.Subject, t.S, rdf.Object, t.O), Val: 1})
			}
			if pF && oF {
				emit(dataflow.Pair[cind.Condition, int]{Key: cind.Binary(rdf.Predicate, t.P, rdf.Object, t.O), Val: 1})
			}
		})
	binarySums := dataflow.ReduceByKey(binaryCounters, "fcd/binary-sum", addInts)
	out.Binary = dataflow.Filter(binarySums, "fcd/binary-threshold",
		func(p dataflow.Pair[cind.Condition, int]) bool { return p.Val >= h })

	// Compact into the binary Bloom filter (steps 8–9).
	out.BinaryBloom = buildConditionBloom(out.Binary, "fcd/binary-bloom")

	// Association rules: join frequent unary and binary counters on the
	// embedded unary condition; equal counts mean confidence 1 (step 11).
	out.ARs = extractARs(out.Unary, out.Binary)

	// Detector-level observability: the funnel sizes §8's evaluation keys on.
	reg := triples.Context().Stats().Metrics()
	reg.Counter("fc.frequent.unary").Add(int64(out.Unary.Len()))
	reg.Counter("fc.frequent.binary").Add(int64(out.Binary.Len()))
	reg.Counter("fc.ars").Add(int64(len(out.ARs)))
	return out
}

func addInts(a, b int) int { return a + b }

// bin keys a frequent binary condition by one of its embedded unary
// conditions, remembering the complementary part and the shared frequency.
// Package-level (rather than local to extractARs) so codec.go can register a
// wire codec for the fcd/ar-join shuffle.
type bin struct {
	other cind.Condition
	count int
}

// abortedOutput is a well-formed, empty detector output for a failed engine:
// empty counter datasets and empty (never-matching) Bloom filters, so
// downstream stages — which all short-circuit anyway — see no nils.
func abortedOutput(c *dataflow.Context) *Output {
	empty := dataflow.Parallelize(c, "fcd/aborted", []dataflow.Pair[cind.Condition, int](nil))
	return &Output{
		Unary:       empty,
		Binary:      empty,
		UnaryBloom:  bloom.New(1024, 0.001),
		BinaryBloom: bloom.New(1024, 0.001),
	}
}

// buildConditionBloom encodes the conditions of a counter dataset in a Bloom
// filter, built distributedly: one partial filter per worker, unioned on the
// driver. All partials share geometry derived from the global count so the
// OR-union is well-defined.
func buildConditionBloom(conds *dataflow.Dataset[dataflow.Pair[cind.Condition, int]], name string) *bloom.Filter {
	n := conds.Len()
	if n < 1024 {
		n = 1024
	}
	partials := dataflow.MapPartitions(conds, name,
		func(w int, items []dataflow.Pair[cind.Condition, int], emit func(*bloom.Filter)) {
			f := bloom.New(n, 0.001)
			for _, p := range items {
				f.Add(p.Key.Key())
			}
			emit(f)
		})
	merged, ok := dataflow.GlobalReduce(partials, name+"-union", func(a, b *bloom.Filter) *bloom.Filter {
		a.Union(b)
		return a
	})
	if !ok {
		return bloom.New(n, 0.001)
	}
	return merged
}

// extractARs performs the distributed join of step 11: each frequent binary
// condition is exploded along its two embedded unary conditions and
// co-grouped with the unary counters; equal frequencies yield a rule
// (§5.3). The rule's support is the shared frequency (Lemma 2).
func extractARs(
	unary, binary *dataflow.Dataset[dataflow.Pair[cind.Condition, int]],
) []cind.AR {
	exploded := dataflow.FlatMap(binary, "fcd/ar-explode",
		func(p dataflow.Pair[cind.Condition, int], emit func(dataflow.Pair[cind.Condition, bin])) {
			parts := p.Key.UnaryParts()
			emit(dataflow.Pair[cind.Condition, bin]{Key: parts[0], Val: bin{other: parts[1], count: p.Val}})
			emit(dataflow.Pair[cind.Condition, bin]{Key: parts[1], Val: bin{other: parts[0], count: p.Val}})
		})
	joined := dataflow.CoGroup(unary, exploded, "fcd/ar-join")
	rules := dataflow.FlatMap(joined, "fcd/ar-extract",
		func(g dataflow.CoGrouped[cind.Condition, int, bin], emit func(cind.AR)) {
			if len(g.Left) != 1 {
				return // unary condition not frequent (or absent)
			}
			n := g.Left[0]
			for _, b := range g.Right {
				if b.count == n {
					emit(cind.AR{If: g.Key, Then: b.other, Support: n})
				}
			}
		})
	return dataflow.Collect(rules)
}
