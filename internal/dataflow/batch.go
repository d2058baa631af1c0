package dataflow

// This file holds the column kernels that execute the lazy plan layer's
// fused chains (plan.go). Everything downstream of ingest is
// dictionary-encoded IDs, so instead of streaming one record at a time through
// nested closures, a chain moves column slices of up to batchSize records per
// call: the root slices its retained partitions into dense batches (zero
// copies), Map fills a per-worker scratch column, Filter clears bits in a
// selection Bitmap instead of compacting, and FlatMap compacts its emissions
// into a dense scratch column. The per-fused-op tallies count live records
// entering each operator, and the final sink in Dataset.force appends only
// the selected lanes, so every boundary (wide operators, spill codecs, the
// distributed wire format, retries from retained partitions) sees plain
// partitions in input order.
//
// Scratch discipline: each operator's feed closure owns per-worker scratch
// (a column and, for Filter, a selection bitmap) that it reuses across
// batches. That is safe because batches are consumed strictly depth-first —
// emit returns only after every downstream operator and the sink are done
// with the batch — and producers never re-read an emitted batch. For the same
// reason a downstream Filter may clear bits of an upstream Filter's selection
// in place. Root batches alias the retained input partitions, so no operator
// ever writes through b.vals it did not allocate itself.

// batchSize is the number of lanes in a dense root batch. 1024 keeps a
// uint64 column within 8 KiB — comfortably cache-resident — while amortizing
// the per-batch closure overhead over enough records to vanish.
const batchSize = 1024

// colBatch is a column of records plus an optional selection: sel's zero
// value (no words) means every lane is live; otherwise bit i set means lane
// i is live. vals may be longer than batchSize after a FlatMap expansion.
type colBatch[T any] struct {
	vals []T
	sel  Bitmap
}

// dense reports whether every lane is live without consulting bits.
func (b colBatch[T]) dense() bool { return b.sel.words == nil }

// live returns the number of live lanes.
func (b colBatch[T]) live() int64 {
	if b.dense() {
		return int64(len(b.vals))
	}
	return int64(b.sel.Count())
}

// batchFeed streams worker w's root partition through every chained function
// as column batches; it is a chain's feed.
type batchFeed[T any] func(w int, tally []int64, emit func(colBatch[T]))

// rootBatchFeed slices materialized partitions into dense batches without
// copying.
func rootBatchFeed[T any](parts [][]T) batchFeed[T] {
	return func(w int, _ []int64, emit func(colBatch[T])) {
		in := parts[w]
		for lo := 0; lo < len(in); lo += batchSize {
			hi := lo + batchSize
			if hi > len(in) {
				hi = len(in)
			}
			emit(colBatch[T]{vals: in[lo:hi:hi]})
		}
	}
}

// batchMap appends a Map to a chain's feed: f runs over the live lanes of
// the input column into a same-length scratch column, carrying the selection
// through unchanged (dead lanes keep stale scratch values no one reads).
func batchMap[T, U any](prev batchFeed[T], idx int, f func(T) U) batchFeed[U] {
	return func(w int, tally []int64, emit func(colBatch[U])) {
		var scratch []U
		prev(w, tally, func(b colBatch[T]) {
			if cap(scratch) < len(b.vals) {
				scratch = make([]U, len(b.vals))
			}
			out := scratch[:len(b.vals)]
			if b.dense() {
				tally[idx] += int64(len(b.vals))
				for i, t := range b.vals {
					out[i] = f(t)
				}
			} else {
				n := int64(0)
				b.sel.ForEach(func(i int) {
					out[i] = f(b.vals[i])
					n++
				})
				tally[idx] += n
			}
			emit(colBatch[U]{vals: out, sel: b.sel})
		})
	}
}

// batchFilter appends a Filter: a dense batch gets a fresh all-ones scratch
// selection with failing lanes cleared; an already-selected batch has its
// failing lanes cleared in place (safe, see the scratch discipline above).
// The input column is never copied or written.
func batchFilter[T any](prev batchFeed[T], idx int, pred func(T) bool) batchFeed[T] {
	return func(w int, tally []int64, emit func(colBatch[T])) {
		var scratch Bitmap
		prev(w, tally, func(b colBatch[T]) {
			if b.dense() {
				tally[idx] += int64(len(b.vals))
				scratch = scratch.resized(len(b.vals))
				scratch.SetAll()
				for i, t := range b.vals {
					if !pred(t) {
						scratch.Clear(i)
					}
				}
				emit(colBatch[T]{vals: b.vals, sel: scratch})
				return
			}
			n := int64(0)
			b.sel.ForEach(func(i int) {
				n++
				if !pred(b.vals[i]) {
					b.sel.Clear(i)
				}
			})
			tally[idx] += n
			emit(b)
		})
	}
}

// batchFlatMap appends a FlatMap: emissions from the live lanes compact into
// a dense scratch column (selection gaps cannot survive an expansion, whose
// output lanes no longer align with input lanes). Empty outputs emit nothing.
func batchFlatMap[T, U any](prev batchFeed[T], idx int, f func(T, func(U))) batchFeed[U] {
	return func(w int, tally []int64, emit func(colBatch[U])) {
		var scratch []U
		collect := func(u U) { scratch = append(scratch, u) }
		prev(w, tally, func(b colBatch[T]) {
			scratch = scratch[:0]
			if b.dense() {
				tally[idx] += int64(len(b.vals))
				for _, t := range b.vals {
					f(t, collect)
				}
			} else {
				n := int64(0)
				b.sel.ForEach(func(i int) {
					n++
					f(b.vals[i], collect)
				})
				tally[idx] += n
			}
			if len(scratch) > 0 {
				emit(colBatch[U]{vals: scratch})
			}
		})
	}
}

// batchMapPartitions starts a batch chain at a MapPartitions over
// materialized partitions: f still sees the whole partition slice, and its
// emissions are re-batched into dense batchSize columns.
func batchMapPartitions[T, U any](parts [][]T, f func(worker int, items []T, emit func(U))) batchFeed[U] {
	return func(w int, tally []int64, emit func(colBatch[U])) {
		tally[0] += int64(len(parts[w]))
		buf := make([]U, 0, batchSize)
		f(w, parts[w], func(u U) {
			buf = append(buf, u)
			if len(buf) == batchSize {
				emit(colBatch[U]{vals: buf})
				buf = buf[:0]
			}
		})
		if len(buf) > 0 {
			emit(colBatch[U]{vals: buf})
		}
	}
}
