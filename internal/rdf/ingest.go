package rdf

import (
	"bytes"
	"fmt"
	"io"
	"sort"
	"sync"
)

// This file implements the parallel ingest path: the input document is split
// into byte-range chunks aligned on line boundaries, each chunk is parsed and
// dictionary-encoded by its own goroutine against a private per-shard term
// table, and the shards are then merged deterministically into one global
// Dictionary. The merge walks the shards in document order and interns each
// shard's terms in their first-occurrence order, so every term receives
// exactly the ID the sequential reader would have assigned — parallel and
// sequential ingest are byte-for-byte interchangeable (the determinism suite
// pins this for shard counts 1, 2, 4, and 8).
//
// The shard scanner works directly on the input bytes: lines and terms are
// slices of the input buffer, and a string is materialized only when a term
// is new to the shard's table (a map lookup keyed by string(b) does not
// allocate in Go). That makes the kernel allocation-lean compared to the
// sequential bufio.Scanner path, which materializes every line: the parallel
// path wins even at one shard on one core, and scales with shard count on
// multi-core machines.

// shardDict is a per-shard term table: terms in first-occurrence order plus
// the reverse index. IDs are shard-local and remapped during the merge.
type shardDict struct {
	byStr map[string]uint32
	order []string
}

// newShardDict pre-sizes the term table for a chunk of about lines triples: a
// line holds three terms but most repeat (predicates, shared subjects), so
// one slot per line is a decent speculative size that avoids most of the
// incremental map growth without tripling the footprint.
func newShardDict(lines int) *shardDict {
	if lines < 16 {
		lines = 16
	}
	return &shardDict{
		byStr: make(map[string]uint32, lines),
		order: make([]string, 0, lines),
	}
}

// encode interns a term given as a byte slice, allocating a string only on
// first sight.
func (d *shardDict) encode(b []byte) uint32 {
	if id, ok := d.byStr[string(b)]; ok {
		return id
	}
	s := string(b)
	id := uint32(len(d.order))
	d.byStr[s] = id
	d.order = append(d.order, s)
	return id
}

// BlockTriple is a triple encoded against a block-local (or shard-local)
// term table: S, P, and O index the table's first-occurrence term order. It
// is the unit the streaming ingest layer (stream.go) ships between the
// scanner, the dictionary merge, and — in distributed ingest — the wire.
type BlockTriple struct {
	S, P, O uint32
}

// shardResult is the outcome of scanning one chunk.
type shardResult struct {
	dict    *shardDict
	triples []BlockTriple
	errs    []*SyntaxError // malformed lines, in chunk order
}

// ParseNTriples parses an N-Triples document held in memory using the given
// number of parallel shards (values below 1 select 1). The resulting dataset
// — triple order and dictionary ID assignment included — is identical to
// ReadNTriples over the same bytes; a malformed line aborts with the
// document's first *SyntaxError, like the sequential strict reader.
func ParseNTriples(data []byte, shards int) (*Dataset, error) {
	ds, _, err := parseNTriplesParallel(data, shards, 0, false)
	return ds, err
}

// ParseNTriplesLenient is ParseNTriples in lenient mode: malformed lines are
// skipped and reported as *SyntaxErrors (capped at maxErrors, non-positive
// selecting DefaultMaxParseErrors), mirroring ReadNTriplesLenient.
func ParseNTriplesLenient(data []byte, shards, maxErrors int) (*Dataset, []*SyntaxError, error) {
	if maxErrors <= 0 {
		maxErrors = DefaultMaxParseErrors
	}
	return parseNTriplesParallel(data, shards, maxErrors, true)
}

// ReadNTriplesParallel reads the whole stream into memory and parses it with
// ParseNTriples. For inputs already held as bytes, call ParseNTriples
// directly and avoid the copy.
func ReadNTriplesParallel(r io.Reader, shards int) (*Dataset, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("ntriples: %w", err)
	}
	return ParseNTriples(data, shards)
}

// ReadNTriplesParallelLenient is ReadNTriplesParallel in lenient mode.
func ReadNTriplesParallelLenient(r io.Reader, shards, maxErrors int) (*Dataset, []*SyntaxError, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, nil, fmt.Errorf("ntriples: %w", err)
	}
	return ParseNTriplesLenient(data, shards, maxErrors)
}

// parseNTriplesParallel is the shared strict/lenient driver: chunk, scan the
// chunks concurrently, then merge deterministically.
func parseNTriplesParallel(data []byte, shards, maxErrors int, lenient bool) (*Dataset, []*SyntaxError, error) {
	if shards < 1 {
		shards = 1
	}
	chunks := splitChunks(data, shards)

	// Scan every chunk concurrently. Each worker needs its chunk's starting
	// line number up front for error reporting; complete lines end in '\n',
	// and chunk boundaries sit just after one, so a newline count per
	// preceding chunk is exact.
	results := make([]shardResult, len(chunks))
	startLine := 1
	var wg sync.WaitGroup
	for i, chunk := range chunks {
		lines := bytes.Count(chunk, []byte{'\n'})
		wg.Add(1)
		go func(i int, chunk []byte, startLine, lines int) {
			defer wg.Done()
			results[i] = scanShard(chunk, startLine, lines)
		}(i, chunk, startLine, lines)
		startLine += lines
	}
	wg.Wait()

	// Error reconciliation mirrors the sequential readers exactly.
	var malformed []*SyntaxError
	for _, res := range results {
		malformed = append(malformed, res.errs...)
	}
	sort.Slice(malformed, func(i, j int) bool { return malformed[i].Line < malformed[j].Line })
	if !lenient {
		if len(malformed) > 0 {
			return nil, nil, malformed[0]
		}
	} else if len(malformed) > maxErrors {
		over := malformed[maxErrors]
		return nil, malformed[:maxErrors], fmt.Errorf(
			"ntriples: more than %d malformed lines, giving up (line %d: %v)",
			maxErrors, over.Line, over.Err)
	}

	return mergeShards(results), malformed, nil
}

// splitChunks cuts data into n byte ranges aligned just after '\n', so no
// line straddles two chunks. Chunks may be empty when lines are long or the
// input is small; the concatenation of all chunks is always the whole input.
func splitChunks(data []byte, n int) [][]byte {
	chunks := make([][]byte, 0, n)
	start := 0
	for i := 1; i < n; i++ {
		target := len(data) * i / n
		if target < start {
			target = start
		}
		end := target
		if nl := bytes.IndexByte(data[target:], '\n'); nl >= 0 {
			end = target + nl + 1
		} else {
			end = len(data)
		}
		chunks = append(chunks, data[start:end])
		start = end
	}
	return append(chunks, data[start:])
}

// scanShard parses one chunk of about the given number of lines into
// shard-local triples. It is the parallel counterpart of the sequential
// scanning loop in readNTriples: the same trimming, the same skip rules, the
// same per-line grammar.
func scanShard(chunk []byte, startLine, lines int) shardResult {
	res := shardResult{dict: newShardDict(lines)}
	if lines > 0 {
		res.triples = make([]BlockTriple, 0, lines+1)
	}
	// N-Triples documents run on their subject (all statements about one
	// entity in a row) and draw predicates from a small vocabulary, so a
	// last-seen memo per position short-circuits the term-table lookup with a
	// byte comparison for the common consecutive-repeat case.
	var lastS, lastP []byte
	var lastSID, lastPID uint32
	lineNo := startLine - 1
	for len(chunk) > 0 {
		var line []byte
		if nl := bytes.IndexByte(chunk, '\n'); nl >= 0 {
			line, chunk = chunk[:nl], chunk[nl+1:]
		} else {
			line, chunk = chunk, nil
		}
		lineNo++
		// Trim fast path: when both boundary bytes are ASCII non-space there
		// is nothing to trim (multi-byte Unicode whitespace never starts or
		// ends with such a byte), and TrimSpace's call cost is measurable at
		// one call per line.
		if n := len(line); n == 0 || line[0] <= ' ' || line[0] >= 0x80 || line[n-1] <= ' ' || line[n-1] >= 0x80 {
			line = bytes.TrimSpace(line)
		}
		if len(line) == 0 || line[0] == '#' {
			continue
		}
		s, p, o, err := parseLineBytes(line)
		if err != nil {
			res.errs = append(res.errs, &SyntaxError{Line: lineNo, Err: err})
			continue
		}
		if !bytes.Equal(s, lastS) {
			lastS, lastSID = s, res.dict.encode(s)
		}
		if !bytes.Equal(p, lastP) {
			lastP, lastPID = p, res.dict.encode(p)
		}
		res.triples = append(res.triples, BlockTriple{
			S: lastSID,
			P: lastPID,
			O: res.dict.encode(o),
		})
	}
	return res
}

// mergeShards builds the global dataset: shards are visited in document
// order, each shard's terms are interned in their first-occurrence order
// (already-known terms keep their earlier ID), and the shard's triples are
// remapped through the resulting local→global table. Because sequential
// ingest also assigns IDs in document first-occurrence order, the merged
// dictionary is identical to the sequential one.
func mergeShards(results []shardResult) *Dataset {
	terms, triples := 0, 0
	for _, res := range results {
		terms += len(res.dict.order)
		triples += len(res.triples)
	}
	ds := &Dataset{
		Dict:    NewDictionarySized(terms),
		Triples: make([]Triple, 0, triples),
	}
	var remap []Value
	for _, res := range results {
		remap = remap[:0]
		for _, term := range res.dict.order {
			remap = append(remap, ds.Dict.Encode(term))
		}
		for _, lt := range res.triples {
			ds.Triples = append(ds.Triples, Triple{
				S: remap[lt.S],
				P: remap[lt.P],
				O: remap[lt.O],
			})
		}
	}
	return ds
}

// parseLineBytes splits one statement into its three terms. It works on a
// byte slice so both the sequential reader and shard scanning can slice
// their input buffers instead of materializing line strings.
func parseLineBytes(line []byte) (s, p, o []byte, err error) {
	rest := line
	if s, rest, err = scanTermBytes(rest); err != nil {
		return nil, nil, nil, fmt.Errorf("subject: %w", err)
	}
	if p, rest, err = scanTermBytes(rest); err != nil {
		return nil, nil, nil, fmt.Errorf("predicate: %w", err)
	}
	if o, rest, err = scanTermBytes(rest); err != nil {
		return nil, nil, nil, fmt.Errorf("object: %w", err)
	}
	rest = bytes.TrimSpace(rest)
	if len(rest) != 1 || rest[0] != '.' {
		return nil, nil, nil, fmt.Errorf("expected terminating '.', got %q", rest)
	}
	return s, p, o, nil
}

// scanTermBytes consumes one term (URI, blank node, or literal) from the
// front of the input and returns it with the unconsumed remainder.
func scanTermBytes(in []byte) (term, rest []byte, err error) {
	for len(in) > 0 && (in[0] == ' ' || in[0] == '\t') {
		in = in[1:]
	}
	if len(in) == 0 {
		return nil, nil, fmt.Errorf("unexpected end of line")
	}
	switch in[0] {
	case '<':
		end := bytes.IndexByte(in, '>')
		if end < 0 {
			return nil, nil, fmt.Errorf("unterminated URI")
		}
		return in[:end+1], in[end+1:], nil
	case '_':
		end := indexSpaceTab(in)
		if end < 0 {
			end = len(in)
		}
		return in[:end], in[end:], nil
	case '"':
		end := closingQuote(in)
		if end < 0 {
			return nil, nil, fmt.Errorf("unterminated literal")
		}
		// Absorb an optional datatype (^^<...>) or language tag (@xx).
		rest = in[end+1:]
		if bytes.HasPrefix(rest, []byte("^^<")) {
			gt := bytes.IndexByte(rest, '>')
			if gt < 0 {
				return nil, nil, fmt.Errorf("unterminated datatype URI")
			}
			end += gt + 1
			rest = rest[gt+1:]
		} else if len(rest) > 0 && rest[0] == '@' {
			n := 1
			for n < len(rest) && rest[n] != ' ' && rest[n] != '\t' {
				n++
			}
			end += n
			rest = rest[n:]
		}
		return in[:end+1], rest, nil
	default:
		return nil, nil, fmt.Errorf("unexpected character %q", in[0])
	}
}

// indexSpaceTab finds the first space or tab, the byte-slice counterpart of
// strings.IndexAny(in, " \t").
func indexSpaceTab(in []byte) int {
	for i := 0; i < len(in); i++ {
		if in[i] == ' ' || in[i] == '\t' {
			return i
		}
	}
	return -1
}
