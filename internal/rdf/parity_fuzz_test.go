package rdf

import (
	"fmt"
	"strings"
	"testing"
)

// FuzzReaderParity pins the document-level contract between the sequential
// reader and the parallel one: both parse lines with parseLineBytes, so what
// differs is the framing — bufio.Scanner line splitting against shard
// splitting. Over any input, ReadNTriples and ParseNTriples must agree
// *exactly* — same dataset (triples, dictionary IDs, decoded terms), same
// malformed-line reports, and same error text — in strict and lenient mode,
// at every shard count, including the over-cap rejection path. The only
// documented divergence is the sequential scanner's 16 MiB line cap, which
// fuzz inputs cannot reach.
func FuzzReaderParity(f *testing.F) {
	seeds := []string{
		"",
		"\n",
		"\r\n",
		"<s> <p> <o> .",   // no trailing newline
		"<s> <p> <o> .\n", // trailing newline
		"<s> <p> <o> .\r\n<s2> <p> <o> .\r\n", // CRLF throughout
		"<s> <p> <o> .\n<s2> <p> <o> .\r\n",   // mixed line endings
		"<s> <p> <o> .\r",                     // stray CR, no LF
		"# comment\n\n   \t\n<s> <p> <o> .\n",
		`<s> <p> "lit with \" escape"@en .` + "\n" + `<s> <p> "typed"^^<t> .`,
		"_:b0 <p> _:b1 .\n<a><b><c>.",
		// Malformed runs that cross the tiny lenient cap used below.
		"bad\nbad\nbad\nbad\nbad\n",
		"bad\n<ok> <ok> <ok> .\nbad\nbad\nbad\nbad\n<ok2> <ok2> <ok2> .",
		"<s> <p> <o>\n<s> <p> \"unterminated\n<s> <p> <unterminated\n",
		strings.Repeat("<s> <p> <o> .\n", 9) + "broken .\n",
	}
	for _, s := range seeds {
		f.Add(s)
	}

	f.Fuzz(func(t *testing.T, input string) {
		// Strict: error text and dataset must match at every shard count.
		seqDS, seqErr := ReadNTriples(strings.NewReader(input))
		for _, shards := range []int{1, 2, 4, 8} {
			parDS, parErr := ParseNTriples([]byte(input), shards)
			if !sameError(seqErr, parErr) {
				t.Fatalf("strict shards=%d: error diverged: %v vs %v", shards, parErr, seqErr)
			}
			if seqErr == nil {
				mustEqualDatasets(t, fmt.Sprintf("strict shards=%d", shards), seqDS, parDS)
			}
		}

		// Lenient with a tiny cap, so fuzzed inputs routinely cross it: the
		// over-cap error, the truncated report, and the dataset must all match.
		const errCap = 3
		seqDS, seqMal, seqErr := ReadNTriplesLenient(strings.NewReader(input), errCap)
		for _, shards := range []int{1, 2, 4, 8} {
			parDS, parMal, parErr := ParseNTriplesLenient([]byte(input), shards, errCap)
			if !sameError(seqErr, parErr) {
				t.Fatalf("lenient shards=%d: error diverged: %v vs %v", shards, parErr, seqErr)
			}
			if len(parMal) != len(seqMal) {
				t.Fatalf("lenient shards=%d: %d malformed reports vs %d", shards, len(parMal), len(seqMal))
			}
			for i := range seqMal {
				if parMal[i].Line != seqMal[i].Line || parMal[i].Error() != seqMal[i].Error() {
					t.Fatalf("lenient shards=%d: malformed report %d diverged: %v vs %v",
						shards, i, parMal[i], seqMal[i])
				}
			}
			if seqErr == nil {
				mustEqualDatasets(t, fmt.Sprintf("lenient shards=%d", shards), seqDS, parDS)
			}
		}
	})
}

// sameError reports whether two reader errors are interchangeable: both nil,
// or both non-nil with identical text.
func sameError(a, b error) bool {
	if (a == nil) != (b == nil) {
		return false
	}
	return a == nil || a.Error() == b.Error()
}

// mustEqualDatasets asserts full dataset equality: triple sequences, the
// dictionary's ID assignment, and the decoded surface terms.
func mustEqualDatasets(t *testing.T, label string, want, got *Dataset) {
	t.Helper()
	if got.Size() != want.Size() || got.Dict.Len() != want.Dict.Len() {
		t.Fatalf("%s: %d triples/%d terms, want %d/%d",
			label, got.Size(), got.Dict.Len(), want.Size(), want.Dict.Len())
	}
	for i := range want.Triples {
		if got.Triples[i] != want.Triples[i] {
			t.Fatalf("%s: triple %d = %+v, want %+v", label, i, got.Triples[i], want.Triples[i])
		}
	}
	for id := 0; id < want.Dict.Len(); id++ {
		if g, w := got.Dict.Decode(Value(id)), want.Dict.Decode(Value(id)); g != w {
			t.Fatalf("%s: term %d = %q, want %q", label, id, g, w)
		}
	}
}
