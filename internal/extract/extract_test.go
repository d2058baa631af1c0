package extract

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/bloom"
	"repro/internal/capture"
	"repro/internal/cind"
	"repro/internal/dataflow"
	"repro/internal/naive"
	"repro/internal/rdf"
)

func cap(proj rdf.Attr, cond cind.Condition) cind.Capture {
	return cind.Capture{Proj: proj, Cond: cond}
}

// mkGroups wraps capture slices into a dataset of groups.
func mkGroups(w int, groups ...[]cind.Capture) *dataflow.Dataset[capture.Group] {
	ctx := dataflow.NewContext(w)
	gs := make([]capture.Group, len(groups))
	for i, g := range groups {
		gs[i] = capture.Group{Captures: g}
	}
	return dataflow.Parallelize(ctx, "groups", gs)
}

// TestExample6Extraction reproduces §7.1's running example: three capture
// groups G1 = {ca..ce}, G2 = {ca, cb}, G3 = {cc, cd}. With h=2, ce is pruned
// (support 1); ca and cb co-occur in G1 and G2, cc and cd in G1 and G3.
func TestExample6Extraction(t *testing.T) {
	ca := cap(rdf.Subject, cind.Unary(rdf.Predicate, 1))
	cb := cap(rdf.Subject, cind.Unary(rdf.Predicate, 2))
	cc := cap(rdf.Subject, cind.Unary(rdf.Predicate, 3))
	cd := cap(rdf.Subject, cind.Unary(rdf.Predicate, 4))
	ce := cap(rdf.Subject, cind.Unary(rdf.Predicate, 5))
	for _, direct := range []bool{false, true} {
		groups := mkGroups(2, []cind.Capture{ca, cb, cc, cd, ce}, []cind.Capture{ca, cb}, []cind.Capture{cc, cd})
		got, err := BroadCINDs(groups, Config{Support: 2, DirectExtraction: direct})
		if err != nil {
			t.Fatal(err)
		}
		want := map[cind.Inclusion]int{
			{Dep: ca, Ref: cb}: 2,
			{Dep: cb, Ref: ca}: 2,
			{Dep: cc, Ref: cd}: 2,
			{Dep: cd, Ref: cc}: 2,
		}
		if len(got) != len(want) {
			t.Errorf("direct=%v: got %d CINDs, want %d: %+v", direct, len(got), len(want), got)
		}
		for _, c := range got {
			if supp, ok := want[c.Inclusion]; !ok || supp != c.Support {
				t.Errorf("direct=%v: unexpected %+v", direct, c)
			}
		}
	}
}

// TestDominantGroupSplitting drives a dataset with one huge group through
// both the balanced and the direct path; results must agree.
func TestDominantGroupSplitting(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var big []cind.Capture
	for i := 0; i < 200; i++ {
		big = append(big, cap(rdf.Predicate, cind.Unary(rdf.Subject, rdf.Value(i))))
	}
	// A few small groups that overlap with the big one.
	var smalls [][]cind.Capture
	for i := 0; i < 30; i++ {
		var g []cind.Capture
		for j := 0; j < 5; j++ {
			g = append(g, big[rng.Intn(len(big))])
		}
		g = dedup(g)
		smalls = append(smalls, g)
	}
	build := func() *dataflow.Dataset[capture.Group] {
		all := append([][]cind.Capture{big}, smalls...)
		return mkGroups(4, all...)
	}
	balanced, err := BroadCINDs(build(), Config{Support: 2})
	if err != nil {
		t.Fatal(err)
	}
	direct, err := BroadCINDs(build(), Config{Support: 2, DirectExtraction: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(balanced) != len(direct) {
		t.Fatalf("balanced found %d CINDs, direct %d", len(balanced), len(direct))
	}
	set := map[cind.CIND]bool{}
	for _, c := range direct {
		set[c] = true
	}
	for _, c := range balanced {
		if !set[c] {
			t.Errorf("balanced-only CIND %+v", c)
		}
	}
}

// TestMinimizeAgreesWithOracle: the consolidation must agree with the
// specification-level Minimize on discovered broad sets.
func TestMinimizeAgreesWithOracle(t *testing.T) {
	ds := randomDataset(160, 4)
	for _, h := range []int{1, 2, 3} {
		// Build broad CINDs through the real pipeline components would need
		// fcdetect; instead enumerate the oracle's broad set directly.
		broad := oracleBroad(ds, h)
		a := Minimize(broad)
		b := naive.Minimize(broad)
		if len(a) != len(b) {
			t.Errorf("h=%d: extract.Minimize kept %d, naive kept %d", h, len(a), len(b))
		}
		bset := map[cind.Inclusion]bool{}
		for _, c := range b {
			bset[c.Inclusion] = true
		}
		for _, c := range a {
			if c.Trivial() {
				t.Errorf("h=%d: trivial CIND survived Minimize: %s", h, c.Inclusion.Format(ds.Dict))
			}
			if !bset[c.Inclusion] {
				t.Errorf("h=%d: disagreement on %s", h, c.Inclusion.Format(ds.Dict))
			}
		}
	}
}

// oracleBroad enumerates all valid broad CINDs (including trivial ones) over
// the AR-pruned frequent universe, mirroring what BroadCINDs returns.
func oracleBroad(ds *rdf.Dataset, h int) []cind.CIND {
	freq := naive.FrequentConditions(ds, h, naive.Options{})
	ars := naive.AssociationRules(ds, h, naive.Options{})
	arSet := map[[2]cind.Condition]bool{}
	for _, r := range ars {
		arSet[[2]cind.Condition{r.If, r.Then}] = true
	}
	var caps []cind.Capture
	for c := range freq {
		if c.IsBinary() {
			p := c.UnaryParts()
			if arSet[[2]cind.Condition{p[0], p[1]}] || arSet[[2]cind.Condition{p[1], p[0]}] {
				continue
			}
		}
		for _, a := range rdf.Attrs {
			if !c.Uses(a) {
				caps = append(caps, cind.Capture{Proj: a, Cond: c})
			}
		}
	}
	interp := make([]map[rdf.Value]struct{}, len(caps))
	for i, c := range caps {
		interp[i] = cind.Interpret(ds, c)
	}
	subset := func(a, b map[rdf.Value]struct{}) bool {
		if len(a) > len(b) {
			return false
		}
		for v := range a {
			if _, ok := b[v]; !ok {
				return false
			}
		}
		return true
	}
	var out []cind.CIND
	for i, dep := range caps {
		if len(interp[i]) < h {
			continue
		}
		for j, ref := range caps {
			if i == j {
				continue
			}
			if subset(interp[i], interp[j]) {
				out = append(out, cind.CIND{Inclusion: cind.Inclusion{Dep: dep, Ref: ref}, Support: len(interp[i])})
			}
		}
	}
	return out
}

// TestMergeCandSets covers Algorithm 3's three cases — bits ∩ bits,
// bits ∩ Bloom in both orders, and Bloom ∩ Bloom — plus count/lineage
// bookkeeping.
func TestMergeCandSets(t *testing.T) {
	c1 := cap(rdf.Subject, cind.Unary(rdf.Predicate, 1))
	c2 := cap(rdf.Subject, cind.Unary(rdf.Predicate, 2))
	c3 := cap(rdf.Subject, cind.Unary(rdf.Predicate, 3))

	exact := func(caps ...cind.Capture) *candSet { return bitsSet(caps, caps...) }
	blm := func(caps ...cind.Capture) *candSet {
		f := bloom.NewBytes(64, 4)
		for _, c := range caps {
			f.Add(c.Key())
		}
		return &candSet{approx: f, count: 1, lineage: true}
	}

	// bits ∩ bits
	m := mergeCandSets(exact(c1, c2, c3), exact(c2, c3))
	if m.liveLen() != 2 || m.count != 2 || m.lineage {
		t.Errorf("exact/exact merge wrong: %+v", m)
	}

	// bits ∩ bloom: probing keeps members present in the filter
	m = mergeCandSets(exact(c1, c2), blm(c2))
	if !m.hasExact() || m.count != 2 || !m.lineage {
		t.Errorf("mixed merge wrong: %+v", m)
	}
	if !m.containsRef(c2) {
		t.Errorf("mixed merge dropped true member")
	}

	// bloom ∩ bloom: common members must survive the AND
	m = mergeCandSets(blm(c1, c2), blm(c2, c3))
	if m.approx == nil || !m.approx.Test(c2.Key()) || m.count != 2 || !m.lineage {
		t.Errorf("bloom/bloom merge wrong: %+v", m)
	}

	// order invariance of the mixed case
	m2 := mergeCandSets(blm(c2), exact(c1, c2))
	if !m2.hasExact() || m2.count != 2 || !m2.lineage || !m2.containsRef(c2) {
		t.Errorf("mixed merge (swapped) wrong: %+v", m2)
	}
}

// TestArityFilters: per-class extraction must partition the unfiltered
// result exactly.
func TestArityFilters(t *testing.T) {
	ds := randomDataset(250, 4)
	groups := func() *dataflow.Dataset[capture.Group] {
		ctx := dataflow.NewContext(3)
		gs := groupsFromDataset(ctx, ds)
		return gs
	}
	h := 2
	all, err := BroadCINDs(groups(), Config{Support: h})
	if err != nil {
		t.Fatal(err)
	}
	classes := map[string][]cind.CIND{}
	for _, pair := range []struct {
		name     string
		dep, ref Arity
	}{
		{"11", UnaryOnly, UnaryOnly}, {"12", UnaryOnly, BinaryOnly},
		{"21", BinaryOnly, UnaryOnly}, {"22", BinaryOnly, BinaryOnly},
	} {
		cfg := Config{Support: h, DepArity: pair.dep, RefArity: pair.ref}
		cs, err := BroadCINDs(groups(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		classes[pair.name] = cs
	}
	total := 0
	set := map[cind.CIND]bool{}
	for name, cs := range classes {
		total += len(cs)
		for _, c := range cs {
			if set[c] {
				t.Errorf("CIND in two classes: %s", c.Inclusion.Format(ds.Dict))
			}
			set[c] = true
			wantDepBin := name[0] == '2'
			wantRefBin := name[1] == '2'
			if c.Dep.Cond.IsBinary() != wantDepBin || c.Ref.Cond.IsBinary() != wantRefBin {
				t.Errorf("class %s contains %s", name, c.Inclusion.Format(ds.Dict))
			}
		}
	}
	if total != len(all) {
		t.Errorf("classes sum to %d CINDs, unfiltered extraction finds %d", total, len(all))
	}
	for _, c := range all {
		if !set[c] {
			t.Errorf("unfiltered CIND missing from class partition: %s", c.Inclusion.Format(ds.Dict))
		}
	}
}

// groupsFromDataset builds closed-form ground-truth groups (h=1 universe
// pruned by nothing) for extraction tests that do not involve fcdetect.
func groupsFromDataset(ctx *dataflow.Context, ds *rdf.Dataset) *dataflow.Dataset[capture.Group] {
	members := map[rdf.Value]map[cind.Capture]struct{}{}
	add := func(v rdf.Value, c cind.Capture) {
		g, ok := members[v]
		if !ok {
			g = map[cind.Capture]struct{}{}
			members[v] = g
		}
		g[c] = struct{}{}
	}
	for _, t := range ds.Triples {
		for _, proj := range rdf.Attrs {
			b, g := proj.Others()
			add(t.Get(proj), cind.Capture{Proj: proj, Cond: cind.Unary(b, t.Get(b))})
			add(t.Get(proj), cind.Capture{Proj: proj, Cond: cind.Unary(g, t.Get(g))})
			add(t.Get(proj), cind.Capture{Proj: proj, Cond: cind.Binary(b, t.Get(b), g, t.Get(g))})
		}
	}
	var gs []capture.Group
	for _, g := range members {
		var caps []cind.Capture
		for c := range g {
			caps = append(caps, c)
		}
		gs = append(gs, capture.Group{Captures: caps})
	}
	return dataflow.Parallelize(ctx, "groups", gs)
}

// Property: Minimize never keeps an implied CIND and never drops an
// unimplied one, on synthetic inclusion sets.
func TestQuickMinimizeSound(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var broad []cind.CIND
		seen := map[cind.Inclusion]bool{}
		for i := 0; i < 60; i++ {
			dep := randomCapture(rng)
			ref := randomCapture(rng)
			if dep == ref {
				continue
			}
			inc := cind.Inclusion{Dep: dep, Ref: ref}
			if seen[inc] {
				continue
			}
			seen[inc] = true
			broad = append(broad, cind.CIND{Inclusion: inc, Support: 1 + rng.Intn(5)})
		}
		a := Minimize(broad)
		b := naive.Minimize(broad)
		if len(a) != len(b) {
			return false
		}
		bset := map[cind.Inclusion]bool{}
		for _, c := range b {
			bset[c.Inclusion] = true
		}
		for _, c := range a {
			if !bset[c.Inclusion] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func randomCapture(rng *rand.Rand) cind.Capture {
	proj := rdf.Attr(rng.Intn(3))
	b, g := proj.Others()
	if rng.Intn(2) == 0 {
		attr := b
		if rng.Intn(2) == 0 {
			attr = g
		}
		return cind.Capture{Proj: proj, Cond: cind.Unary(attr, rdf.Value(rng.Intn(4)))}
	}
	return cind.Capture{Proj: proj, Cond: cind.Binary(b, rdf.Value(rng.Intn(4)), g, rdf.Value(rng.Intn(4)))}
}

func dedup(caps []cind.Capture) []cind.Capture {
	seen := map[cind.Capture]bool{}
	var out []cind.Capture
	for _, c := range caps {
		if !seen[c] {
			seen[c] = true
			out = append(out, c)
		}
	}
	return out
}

func randomDataset(n, card int) *rdf.Dataset {
	if max := card * 3 * card * card * 2; n > max {
		panic(fmt.Sprintf("randomDataset: %d triples requested, only %d possible", n, max))
	}
	rng := rand.New(rand.NewSource(13))
	ds := rdf.NewDataset()
	seen := map[[3]int]bool{}
	for len(ds.Triples) < n {
		s, p, o := rng.Intn(card*3), rng.Intn(card), rng.Intn(card*2)
		if seen[[3]int{s, p, o}] {
			continue
		}
		seen[[3]int{s, p, o}] = true
		ds.Add(fmt.Sprintf("s%d", s), fmt.Sprintf("p%d", p), fmt.Sprintf("o%d", o))
	}
	return ds
}
