package rdf

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
)

// This file implements a reader and writer for the N-Triples serialization
// (https://www.w3.org/TR/n-triples/), the input format of RDFind (App. C).
// Terms are kept in their surface form — "<uri>", "_:blank", or a literal
// with optional datatype/language tag — so that parsing and writing round-
// trip. The paper treats blank nodes as URIs; we keep them as opaque terms,
// which has the same effect.

// SyntaxError describes one malformed N-Triples line, with its 1-based line
// number. It wraps the underlying parse error for errors.Is/As.
type SyntaxError struct {
	Line int
	Err  error
}

func (e *SyntaxError) Error() string { return fmt.Sprintf("ntriples: line %d: %v", e.Line, e.Err) }

// Unwrap exposes the underlying parse error.
func (e *SyntaxError) Unwrap() error { return e.Err }

// DefaultMaxParseErrors is the malformed-line cap of the lenient reader when
// the caller does not set one.
const DefaultMaxParseErrors = 1000

// ReadNTriples parses an N-Triples document into a dataset. Blank lines and
// comment lines (starting with '#') are skipped. Malformed lines yield a
// *SyntaxError naming the line number.
func ReadNTriples(r io.Reader) (*Dataset, error) {
	ds, _, err := readNTriples(r, 0, false)
	return ds, err
}

// ReadNTriplesLenient parses an N-Triples document, skipping malformed lines
// instead of aborting on the first: large dirty inputs degrade gracefully.
// The skipped lines are reported as *SyntaxErrors, capped at maxErrors
// (non-positive selects DefaultMaxParseErrors); when the document exceeds
// the cap, parsing stops with a non-nil error so a fundamentally broken file
// cannot masquerade as a dirty one. I/O errors always abort.
func ReadNTriplesLenient(r io.Reader, maxErrors int) (*Dataset, []*SyntaxError, error) {
	if maxErrors <= 0 {
		maxErrors = DefaultMaxParseErrors
	}
	return readNTriples(r, maxErrors, true)
}

// readNTriples is the shared scanning loop of the strict and lenient modes.
func readNTriples(r io.Reader, maxErrors int, lenient bool) (*Dataset, []*SyntaxError, error) {
	ds := NewDataset()
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	lineNo := 0
	var malformed []*SyntaxError
	for sc.Scan() {
		lineNo++
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 || line[0] == '#' {
			continue
		}
		s, p, o, err := parseLineBytes(line)
		if err != nil {
			serr := &SyntaxError{Line: lineNo, Err: err}
			if !lenient {
				return nil, nil, serr
			}
			malformed = append(malformed, serr)
			if len(malformed) > maxErrors {
				return nil, malformed[:maxErrors], fmt.Errorf(
					"ntriples: more than %d malformed lines, giving up (line %d: %v)",
					maxErrors, lineNo, err)
			}
			continue
		}
		ds.Triples = append(ds.Triples, Triple{
			S: ds.Dict.encodeBytes(s),
			P: ds.Dict.encodeBytes(p),
			O: ds.Dict.encodeBytes(o),
		})
	}
	if err := sc.Err(); err != nil {
		return nil, malformed, fmt.Errorf("ntriples: %w", err)
	}
	return ds, malformed, nil
}

// closingQuote finds the index of the unescaped closing quote of a literal
// that starts at in[0] == '"'.
func closingQuote[S ~string | ~[]byte](in S) int {
	for i := 1; i < len(in); i++ {
		switch in[i] {
		case '\\':
			i++ // skip the escaped character
		case '"':
			return i
		}
	}
	return -1
}

// WriteNTriples serializes a dataset as N-Triples. Terms that do not already
// carry N-Triples syntax (no '<', '"', or "_:" prefix) are wrapped as URIs so
// that programmatically built datasets serialize to valid documents.
func WriteNTriples(w io.Writer, ds *Dataset) error {
	bw := bufio.NewWriter(w)
	for _, t := range ds.Triples {
		s := formatTerm(ds.Dict.Decode(t.S))
		p := formatTerm(ds.Dict.Decode(t.P))
		o := formatTerm(ds.Dict.Decode(t.O))
		if _, err := fmt.Fprintf(bw, "%s %s %s .\n", s, p, o); err != nil {
			return err
		}
	}
	return bw.Flush()
}

func formatTerm(term string) string {
	if term == "" {
		return "<>"
	}
	switch term[0] {
	case '<', '"', '_':
		return term
	}
	return "<" + term + ">"
}
