package extract

import (
	"encoding/binary"
	"fmt"
	"slices"
	"sort"

	"repro/internal/bloom"
	"repro/internal/cind"
	"repro/internal/dataflow"
)

// Spill codecs for the CINDExtractor's keyed stages: capture-support pruning
// (ext/capture-support), candidate-set merging (ext/merge-candidates), and
// Bloom-lineage validation (ext/validate). With these registered, a memory
// budget makes the whole extraction phase — the part of RDFind that the paper
// reports running out of memory on DBpedia at small supports — run out of
// core instead of failing.

// captureIntCodec spills Pair[cind.Capture, int].
type captureIntCodec struct{}

func (captureIntCodec) AppendKey(dst []byte, k cind.Capture) []byte {
	return cind.AppendCapture(dst, k)
}
func (captureIntCodec) DecodeKey(src []byte) cind.Capture { return cind.CaptureAt(src) }
func (captureIntCodec) AppendValue(dst []byte, v int) []byte {
	return binary.AppendVarint(dst, int64(v))
}
func (captureIntCodec) DecodeValue(src []byte) int {
	v, _ := binary.Varint(src)
	return int(v)
}

// candSet wire flags.
const (
	candSetLineage  = 1 << 0
	candSetHasExact = 1 << 1
	candSetHasBloom = 1 << 2
)

// candSetCodec spills Pair[cind.Capture, *candSet]. The value layout is a
// varint group count, one flags byte, then either a uvarint-counted list of
// 11-byte captures (exact sets) or a bloom.Filter binary image (approximate
// sets). Exact sets encode their live captures in sorted universe order, so
// encodings are byte-deterministic. Decoding rebuilds the bitmap form — the
// captures, sorted and deduplicated, become a fresh universe with every bit
// set — so it accepts any capture order and repeated captures, and always
// allocates fresh objects, which keeps in-place mutation safe.
type candSetCodec struct{}

func (candSetCodec) AppendKey(dst []byte, k cind.Capture) []byte {
	return cind.AppendCapture(dst, k)
}
func (candSetCodec) DecodeKey(src []byte) cind.Capture { return cind.CaptureAt(src) }

func (candSetCodec) AppendValue(dst []byte, v *candSet) []byte {
	dst = binary.AppendVarint(dst, int64(v.count))
	var flags byte
	if v.lineage {
		flags |= candSetLineage
	}
	if v.hasExact() {
		flags |= candSetHasExact
	}
	if v.approx != nil {
		flags |= candSetHasBloom
	}
	dst = append(dst, flags)
	if v.hasExact() {
		dst = binary.AppendUvarint(dst, uint64(v.liveLen()))
		v.liveRefs(func(c cind.Capture) {
			dst = cind.AppendCapture(dst, c)
		})
	}
	if v.approx != nil {
		dst = v.approx.AppendBinary(dst)
	}
	return dst
}

func (candSetCodec) DecodeValue(src []byte) *candSet {
	count, n := binary.Varint(src)
	src = src[n:]
	flags := src[0]
	src = src[1:]
	cs := &candSet{count: int(count), lineage: flags&candSetLineage != 0}
	if flags&candSetHasExact != 0 {
		sz, n := binary.Uvarint(src)
		src = src[n:]
		refs := make([]cind.Capture, 0, min(sz, uint64(len(src)/cind.CaptureWireSize)))
		for i := uint64(0); i < sz; i++ {
			refs = append(refs, cind.CaptureAt(src))
			src = src[cind.CaptureWireSize:]
		}
		sort.Slice(refs, func(i, j int) bool { return captureLess(refs[i], refs[j]) })
		cs.refs = slices.Compact(refs)
		cs.bits = dataflow.NewBitmap(len(cs.refs))
		cs.bits.SetAll()
	}
	if flags&candSetHasBloom != 0 {
		f, _, err := bloom.FromBinary(src)
		if err != nil {
			panic(fmt.Sprintf("extract: corrupt spilled candidate set: %v", err))
		}
		cs.approx = f
	}
	return cs
}

// captureSetCodec spills Pair[cind.Capture, map[cind.Capture]struct{}] (the
// validation sets): a uvarint count followed by 11-byte captures.
type captureSetCodec struct{}

func (captureSetCodec) AppendKey(dst []byte, k cind.Capture) []byte {
	return cind.AppendCapture(dst, k)
}
func (captureSetCodec) DecodeKey(src []byte) cind.Capture { return cind.CaptureAt(src) }

func (captureSetCodec) AppendValue(dst []byte, v map[cind.Capture]struct{}) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(v)))
	for c := range v {
		dst = cind.AppendCapture(dst, c)
	}
	return dst
}

func (captureSetCodec) DecodeValue(src []byte) map[cind.Capture]struct{} {
	sz, n := binary.Uvarint(src)
	src = src[n:]
	set := make(map[cind.Capture]struct{}, sz)
	for i := uint64(0); i < sz; i++ {
		set[cind.CaptureAt(src)] = struct{}{}
		src = src[cind.CaptureWireSize:]
	}
	return set
}

// workUnitCodec carries Pair[int, workUnit] (the ext/place-units shuffle that
// spreads dominant-group slices across workers): each side of the unit is a
// uvarint-counted list of 11-byte captures.
type workUnitCodec struct{}

func (workUnitCodec) AppendKey(dst []byte, k int) []byte {
	return binary.BigEndian.AppendUint64(dst, uint64(int64(k)))
}
func (workUnitCodec) DecodeKey(src []byte) int { return int(int64(binary.BigEndian.Uint64(src))) }

func (workUnitCodec) AppendValue(dst []byte, v workUnit) []byte {
	dst = appendCaptures(dst, v.Deps)
	return appendCaptures(dst, v.All)
}

func (workUnitCodec) DecodeValue(src []byte) workUnit {
	deps, n := capturesAt(src)
	all, _ := capturesAt(src[n:])
	return workUnit{Deps: deps, All: all}
}

func appendCaptures(dst []byte, cs []cind.Capture) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(cs)))
	for _, c := range cs {
		dst = cind.AppendCapture(dst, c)
	}
	return dst
}

func capturesAt(src []byte) ([]cind.Capture, int) {
	sz, n := binary.Uvarint(src)
	cs := make([]cind.Capture, 0, sz)
	for i := uint64(0); i < sz; i++ {
		cs = append(cs, cind.CaptureAt(src[n:]))
		n += cind.CaptureWireSize
	}
	return cs, n
}

func init() {
	dataflow.RegisterPairCodec[cind.Capture, int](captureIntCodec{})
	dataflow.RegisterPairCodec[int, workUnit](workUnitCodec{})
	dataflow.RegisterPairCodec[cind.Capture, *candSet](candSetCodec{})
	dataflow.RegisterPairCodec[cind.Capture, map[cind.Capture]struct{}](captureSetCodec{})
}
