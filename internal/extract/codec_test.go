package extract

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"testing"

	"repro/internal/bloom"
	"repro/internal/cind"
	"repro/internal/dataflow"
	"repro/internal/rdf"
)

// Codec and merge tests for bitmap candidate sets: a set must round-trip
// through candSetCodec to a bitmap-backed set with the same live captures,
// encodings must be byte-deterministic, any exact frame — also one with
// unsorted or repeated captures — must decode to the right set, and
// mergeCandSets must intersect correctly across bitmap and Bloom pairings.
// These are the invariants the spill path and the cluster collective frames
// rely on.

// bitsSet builds a bitmap candSet over the given universe with exactly the
// live captures selected, the way ext/candidates-exact builds them.
func bitsSet(universe []cind.Capture, live ...cind.Capture) *candSet {
	refs := sortedUniverse(universe, AnyArity)
	bits := dataflow.NewBitmap(len(refs))
	for _, c := range live {
		i := searchCapture(refs, c)
		if i >= len(refs) || refs[i] != c {
			panic("bitsSet: live capture not in universe")
		}
		bits.Set(i)
	}
	return &candSet{refs: refs, bits: bits, count: 1}
}

func liveMap(cs *candSet) map[cind.Capture]struct{} {
	m := map[cind.Capture]struct{}{}
	cs.liveRefs(func(c cind.Capture) { m[c] = struct{}{} })
	return m
}

// TestCandSetCodecRoundTrip: a bitmap set decodes through the spill/wire
// codec to a bitmap-backed set holding exactly its live captures, and the
// encoding (sorted universe order) is deterministic — two encodings of equal
// sets are byte-identical.
func TestCandSetCodecRoundTrip(t *testing.T) {
	var universe []cind.Capture
	for v := rdf.Value(0); v < 9; v++ {
		universe = append(universe, cap(rdf.Subject, cind.Unary(rdf.Predicate, v)))
	}
	live := []cind.Capture{universe[0], universe[3], universe[4], universe[8]}

	codec := candSetCodec{}
	bm := bitsSet(universe, live...)
	enc := codec.AppendValue(nil, bm)
	dec := codec.DecodeValue(enc)
	if dec.refs == nil {
		t.Fatal("decoded exact set is not bitmap-backed")
	}
	if !reflect.DeepEqual(liveMap(dec), liveMap(bm)) {
		t.Errorf("round-trip changed the live set: %v vs %v", liveMap(dec), liveMap(bm))
	}
	if dec.count != 1 || dec.lineage || dec.approx != nil {
		t.Errorf("round-trip bookkeeping: %+v", dec)
	}

	if again := codec.AppendValue(nil, bm); !bytes.Equal(enc, again) {
		t.Error("re-encoding the same bitmap set produced different bytes")
	}
	rebuilt := bitsSet(universe, live[3], live[1], live[0], live[2])
	if got := codec.AppendValue(nil, rebuilt); !bytes.Equal(enc, got) {
		t.Error("equal bitmap sets encoded to different bytes")
	}
	if got := codec.AppendValue(nil, dec); !bytes.Equal(enc, got) {
		t.Error("a decoded set re-encoded to different bytes")
	}

	// All-cleared bitmap (every candidate refuted): encodes as an empty exact
	// set, still flagged exact so the decode keeps it distinguishable from a
	// pure-Bloom set.
	empty := codec.DecodeValue(codec.AppendValue(nil, bitsSet(universe)))
	if !empty.hasExact() || empty.liveLen() != 0 {
		t.Errorf("empty bitmap set decoded to %+v, want an empty exact set", empty)
	}
}

// TestCandSetCodecUnsortedDuplicates decodes a hand-built exact frame whose
// captures arrive out of order and repeated: the decoded set holds each
// capture once, in a sorted universe with every bit live.
func TestCandSetCodecUnsortedDuplicates(t *testing.T) {
	mk := func(v rdf.Value) cind.Capture { return cap(rdf.Subject, cind.Unary(rdf.Predicate, v)) }
	c1, c2, c3 := mk(1), mk(2), mk(3)
	frame := binary.AppendVarint(nil, 5)
	frame = append(frame, candSetHasExact|candSetLineage)
	order := []cind.Capture{c3, c1, c3, c2, c1}
	frame = binary.AppendUvarint(frame, uint64(len(order)))
	for _, c := range order {
		frame = cind.AppendCapture(frame, c)
	}

	dec := candSetCodec{}.DecodeValue(frame)
	if dec.count != 5 || !dec.lineage || dec.approx != nil {
		t.Errorf("decoded bookkeeping: %+v", dec)
	}
	if want := []cind.Capture{c1, c2, c3}; !reflect.DeepEqual(dec.refs, want) {
		t.Errorf("decoded universe %v, want %v", dec.refs, want)
	}
	if dec.liveLen() != 3 {
		t.Errorf("decoded %d live captures, want 3", dec.liveLen())
	}
	for _, c := range []cind.Capture{c1, c2, c3} {
		if !dec.containsRef(c) {
			t.Errorf("decoded set lost %v", c)
		}
	}
	if dec.containsRef(mk(4)) {
		t.Error("decoded set holds a capture the frame never carried")
	}
}

// TestMergeCandSetsBitmap covers the bitmap arms of Algorithm 3's merge:
// bits x bits over equal and different universes and bits x bloom, with
// count/lineage bookkeeping and no mutation of the shared universe slice.
func TestMergeCandSetsBitmap(t *testing.T) {
	mk := func(v rdf.Value) cind.Capture { return cap(rdf.Subject, cind.Unary(rdf.Predicate, v)) }
	c1, c2, c3, c4 := mk(1), mk(2), mk(3), mk(4)
	universe := []cind.Capture{c1, c2, c3, c4}

	want := func(t *testing.T, m *candSet, count int, lineage bool, caps ...cind.Capture) {
		t.Helper()
		if m.count != count || m.lineage != lineage {
			t.Errorf("merge bookkeeping: count=%d lineage=%v, want %d/%v", m.count, m.lineage, count, lineage)
		}
		if got, exp := liveMap(m), liveMap(bitsSet(caps, caps...)); !reflect.DeepEqual(got, exp) {
			t.Errorf("merge kept %v, want %v", got, exp)
		}
	}

	// bits ∩ bits over the same universe.
	want(t, mergeCandSets(bitsSet(universe, c1, c2, c3), bitsSet(universe, c2, c3, c4)), 2, false, c2, c3)

	// bits ∩ bits over different universes (groups met in the reduce).
	other := []cind.Capture{c2, c3}
	want(t, mergeCandSets(bitsSet(universe, c1, c2), bitsSet(other, c2, c3)), 2, false, c2)

	// bits ∩ bloom: true members survive the probe, lineage is inherited.
	f := bloom.NewBytes(64, 4)
	f.Add(c2.Key())
	blm := &candSet{approx: f, count: 1, lineage: true}
	m := mergeCandSets(bitsSet(universe, c1, c2), blm)
	if !m.lineage || m.count != 2 {
		t.Errorf("bits/bloom bookkeeping: %+v", m)
	}
	if !m.containsRef(c2) {
		t.Error("bits/bloom merge dropped a true member")
	}

	// The shared universe slice is never mutated: siblings of the same group
	// keep their own selections after one dependent's merge clears bits.
	shared := sortedUniverse(universe, AnyArity)
	depA := &candSet{refs: shared, bits: dataflow.NewBitmap(len(shared)), count: 1}
	depA.bits.SetAll()
	depB := &candSet{refs: shared, bits: dataflow.NewBitmap(len(shared)), count: 1}
	depB.bits.SetAll()
	before := append([]cind.Capture(nil), shared...)
	mergeCandSets(depA, bitsSet(universe, c1))
	if !reflect.DeepEqual(shared, before) {
		t.Error("merge reordered the shared universe slice")
	}
	if depB.bits.Count() != len(shared) {
		t.Error("merging one dependent cleared a sibling's bits")
	}
}
