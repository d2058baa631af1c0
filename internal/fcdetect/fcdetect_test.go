package fcdetect

import (
	"math/rand"
	"testing"

	"repro/internal/cind"
	"repro/internal/dataflow"
	"repro/internal/fixtures"
	"repro/internal/naive"
	"repro/internal/rdf"
)

func detect(t *testing.T, ds *rdf.Dataset, h, workers int, opts Options) *Output {
	t.Helper()
	ctx := dataflow.NewContext(workers)
	triples := dataflow.Parallelize(ctx, "input", ds.Triples)
	return Detect(triples, h, opts)
}

func counterMap(d *dataflow.Dataset[dataflow.Pair[cind.Condition, int]]) map[cind.Condition]int {
	out := make(map[cind.Condition]int)
	for _, p := range dataflow.Collect(d) {
		out[p.Key] = p.Val
	}
	return out
}

// TestDetectMatchesOracle compares frequent conditions and ARs against the
// exhaustive reference, across worker counts and thresholds.
func TestDetectMatchesOracle(t *testing.T) {
	datasets := map[string]*rdf.Dataset{
		"table1": fixtures.University(),
		"random": randomDataset(500, 6),
	}
	for name, ds := range datasets {
		for _, h := range []int{1, 2, 3, 10} {
			for _, w := range []int{1, 3} {
				out := detect(t, ds, h, w, Options{})
				want := naive.FrequentConditions(ds, h, naive.Options{})
				got := counterMap(out.Unary)
				for k, v := range counterMap(out.Binary) {
					got[k] = v
				}
				if len(got) != len(want) {
					t.Errorf("%s h=%d w=%d: %d frequent conditions, oracle has %d", name, h, w, len(got), len(want))
				}
				for c, n := range want {
					if got[c] != n {
						t.Errorf("%s h=%d w=%d: freq(%s) = %d, oracle %d", name, h, w, c.Format(ds.Dict), got[c], n)
					}
				}
				// Bloom filters must cover every frequent condition.
				for c := range want {
					if !c.IsBinary() && !out.UnaryBloom.Test(c.Key()) {
						t.Errorf("%s: unary Bloom misses %s", name, c.Format(ds.Dict))
					}
					if c.IsBinary() && !out.BinaryBloom.Test(c.Key()) {
						t.Errorf("%s: binary Bloom misses %s", name, c.Format(ds.Dict))
					}
				}
				// Association rules must match the oracle exactly.
				wantARs := map[cind.AR]bool{}
				for _, r := range naive.AssociationRules(ds, h, naive.Options{}) {
					wantARs[r] = true
				}
				for _, r := range out.ARs {
					if !wantARs[r] {
						t.Errorf("%s h=%d w=%d: spurious AR %s", name, h, w, r.Format(ds.Dict))
					}
					delete(wantARs, r)
				}
				for r := range wantARs {
					t.Errorf("%s h=%d w=%d: missing AR %s", name, h, w, r.Format(ds.Dict))
				}
			}
		}
	}
}

func TestDetectTable1Example(t *testing.T) {
	ds := fixtures.University()
	id := func(s string) rdf.Value { return fixtures.MustID(ds, s) }
	out := detect(t, ds, 2, 2, Options{})
	// The paper's running example: o=gradStudent → p=rdf:type with support 2.
	found := false
	for _, r := range out.ARs {
		if r.If == cind.Unary(rdf.Object, id("gradStudent")) &&
			r.Then == cind.Unary(rdf.Predicate, id("rdf:type")) {
			found = true
			if r.Support != 2 {
				t.Errorf("AR support = %d, want 2", r.Support)
			}
		}
	}
	if !found {
		t.Errorf("missing the paper's example AR")
	}
}

// TestPredicatesOnlyInConditionsOptionIsDetectorNeutral: the §8.3 option
// restricts projections, not conditions, so the detector output is
// unaffected by it.
func TestPredicatesOnlyInConditionsOptionIsDetectorNeutral(t *testing.T) {
	ds := fixtures.University()
	plain := detect(t, ds, 2, 2, Options{})
	restricted := detect(t, ds, 2, 2, Options{PredicatesOnlyInConditions: true})
	if plain.Unary.Len() != restricted.Unary.Len() ||
		plain.Binary.Len() != restricted.Binary.Len() ||
		len(plain.ARs) != len(restricted.ARs) {
		t.Errorf("detector output changed under the projection-only option: %d/%d/%d vs %d/%d/%d",
			plain.Unary.Len(), plain.Binary.Len(), len(plain.ARs),
			restricted.Unary.Len(), restricted.Binary.Len(), len(restricted.ARs))
	}
}

func TestARSetIndex(t *testing.T) {
	ds := fixtures.University()
	out := detect(t, ds, 2, 1, Options{})
	idx := out.ARSet()
	if len(idx) != len(out.ARs) {
		t.Fatalf("index size %d != %d rules", len(idx), len(out.ARs))
	}
	for _, r := range out.ARs {
		if _, ok := idx[[2]cind.Condition{r.If, r.Then}]; !ok {
			t.Errorf("index misses %s", r.Format(ds.Dict))
		}
	}
}

func TestHistogramTotalsAndShape(t *testing.T) {
	ds := fixtures.University()
	ctx := dataflow.NewContext(3)
	triples := dataflow.Parallelize(ctx, "input", ds.Triples)
	hist := ConditionFrequencyHistogram(triples)

	// The histogram must account for every distinct condition exactly once.
	wantDistinct := len(naive.FrequentConditions(ds, 1, naive.Options{}))
	total := 0
	weighted := 0
	for _, b := range hist {
		total += b.Count
		weighted += b.Count * b.Frequency
	}
	if total != wantDistinct {
		t.Errorf("histogram covers %d conditions, want %d", total, wantDistinct)
	}
	// Each triple contributes 3 unary + 3 binary condition instances.
	if weighted != 6*ds.Size() {
		t.Errorf("weighted total = %d, want %d", weighted, 6*ds.Size())
	}
	// Buckets are sorted by frequency.
	for i := 1; i < len(hist); i++ {
		if hist[i].Frequency <= hist[i-1].Frequency {
			t.Errorf("histogram not sorted at %d", i)
		}
	}
}

// TestDetectEmptyInput ensures the detector tolerates empty datasets.
func TestDetectEmptyInput(t *testing.T) {
	ds := rdf.NewDataset()
	out := detect(t, ds, 5, 2, Options{})
	if out.Unary.Len() != 0 || out.Binary.Len() != 0 || len(out.ARs) != 0 {
		t.Errorf("non-empty output for empty input")
	}
	if out.UnaryBloom == nil || !out.UnaryBloom.Empty() {
		t.Errorf("unary Bloom not empty for empty input")
	}
}

func randomDataset(n, card int) *rdf.Dataset {
	rng := rand.New(rand.NewSource(7))
	ds := rdf.NewDataset()
	for i := 0; i < n; i++ {
		s := rng.Intn(card * 3)
		p := rng.Intn(card)
		o := rng.Intn(card * 2)
		ds.Add(
			"s"+string(rune('a'+s%26))+string(rune('0'+s/26)),
			"p"+string(rune('a'+p)),
			"o"+string(rune('a'+o%26))+string(rune('0'+o/26)),
		)
	}
	return ds
}

func BenchmarkDetect(b *testing.B) {
	ds := randomDataset(20000, 30)
	ctx := dataflow.NewContext(2)
	triples := dataflow.Parallelize(ctx, "input", ds.Triples)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Detect(triples, 10, Options{})
	}
}
