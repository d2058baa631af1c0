package main

import (
	"context"
	"fmt"
	"hash/fnv"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cind"
	"repro/internal/rdf"
	"repro/internal/sparql"
	"repro/internal/triplestore"
)

const (
	// maxRows caps a pool query's estimated result size, keeping single ops
	// in the sub-millisecond to millisecond range.
	maxRows = 500
	// opsLen is the length of the seeded op sequence the loops cycle through.
	opsLen = 1 << 14
	// lateBoundMS bounds the open-loop generator's own lateness at p99: a
	// client that was free but sent this much after an op's due time makes
	// the run invalid.
	lateBoundMS = 50.0
	// engineTimeout caps one query in the engine.
	engineTimeout = 10 * time.Second
	// openRate is the open loop's fixed arrival rate in ops/s, the same on
	// every workload: well below every workload's closed-loop capacity, so
	// latencies measure the engine rather than run-to-run swings in that
	// capacity on a shared host, and high enough that a run yields many
	// chunks of minWindowOps.
	openRate = 2000
	// minWindowOps is the size of the chunks open-loop latency quantiles are
	// taken over: the fewest ops for a p99 with ten samples beyond it.
	minWindowOps = 1000
)

// pool is the seeded serving workload: distinct queries, the subset built
// from discovered statements (which CIND minimization shortens), and the op
// sequence of engine queries and sparql.Minimize calls.
type pool struct {
	queries     []*sparql.Query
	minimizable []int // indices into queries
	ops         []op
}

type op struct {
	query    int // index into pool.queries
	minimize bool
}

// buildPool derives the query pool from the dataset and the discovery
// result: point lookups (?x p o), subject stars (s ?p ?o), two-pattern
// subject joins, and, for statements whose referenced capture has two
// constants, the two-pattern query the statement makes redundant. Of the
// ops, a share of wl.minimizeShare are Minimize calls.
//
// The pool does not depend on the run's seed: triples are drawn in an order
// fixed by their terms, not by the seeded line order, so every seed serves
// the same queries and the serving metrics vary only with the machine.
func buildPool(wl workload, e *env, know *cind.Result) *pool {
	poolSize, minimizeShare := wl.pool, wl.minimizeShare
	rng := rand.New(rand.NewSource(1))
	p := &pool{}
	dict, st := e.ds.Dict, e.st
	triples := canonicalOrder(e.ds)
	term := func(v rdf.Value) sparql.Term { return sparql.Constant(dict.Decode(v)) }
	x, y := sparql.Variable("x"), sparql.Variable("y")
	w := triplestore.Wildcard

	var redundant []cind.CIND
	for _, c := range know.CINDs {
		if c.Ref.Cond.IsBinary() {
			redundant = append(redundant, c)
		}
	}
	for _, ar := range know.ARs {
		redundant = append(redundant, ar.ImpliedCIND())
	}
	for tries := 0; len(p.queries) < poolSize && tries < 50*poolSize; tries++ {
		t := triples[rng.Intn(len(triples))]
		var q *sparql.Query
		switch kind := rng.Intn(4); {
		case kind == 0 && st.Cardinality(w, t.P, t.O) <= maxRows:
			q = &sparql.Query{Vars: []string{"x"}, Patterns: []sparql.Pattern{{S: x, P: term(t.P), O: term(t.O)}}}
		case kind == 1 && st.Cardinality(t.S, w, w) <= maxRows:
			q = &sparql.Query{Vars: []string{"p", "o"}, Patterns: []sparql.Pattern{{S: term(t.S), P: sparql.Variable("p"), O: sparql.Variable("o")}}}
		case kind == 2 && st.Cardinality(w, t.P, t.O) <= maxRows/4 && st.Cardinality(t.S, w, w) <= maxRows:
			var other []rdf.Triple
			st.Scan(t.S, w, w, func(u rdf.Triple) bool {
				if u.P != t.P {
					other = append(other, u)
				}
				return true
			})
			if len(other) == 0 {
				continue
			}
			// Scan order follows map iteration; fix it by the terms.
			sort.Slice(other, func(i, j int) bool {
				pi, pj := dict.Decode(other[i].P), dict.Decode(other[j].P)
				return pi < pj || pi == pj && dict.Decode(other[i].O) < dict.Decode(other[j].O)
			})
			u := other[rng.Intn(len(other))]
			q = &sparql.Query{Vars: []string{"x", "y"}, Patterns: []sparql.Pattern{
				{S: x, P: term(t.P), O: term(t.O)},
				{S: x, P: term(u.P), O: y},
			}}
		case kind == 3 && len(redundant) > 0:
			c := redundant[rng.Intn(len(redundant))]
			dep := captureConstants(c.Dep)
			if st.Cardinality(dep[0], dep[1], dep[2]) > maxRows {
				continue
			}
			q = &sparql.Query{Vars: []string{"x"}, Patterns: []sparql.Pattern{
				capturePattern(c.Dep, dict, x, y),
				capturePattern(c.Ref, dict, x, y),
			}}
			p.minimizable = append(p.minimizable, len(p.queries))
		default:
			continue
		}
		p.queries = append(p.queries, q)
	}

	// Zipf-popular queries repeat (plan-cache hits); when the pool exceeds
	// the plan cache, the tail keeps missing.
	zipf := rand.NewZipf(rng, 1.1, 4, uint64(len(p.queries)-1))
	perm := rng.Perm(len(p.queries))
	for len(p.ops) < opsLen {
		if rng.Float64() < minimizeShare {
			cands := p.minimizable
			if len(cands) == 0 {
				cands = perm // no redundant statements: minimize any query
			}
			p.ops = append(p.ops, op{query: cands[rng.Intn(len(cands))], minimize: true})
			continue
		}
		p.ops = append(p.ops, op{query: perm[zipf.Uint64()]})
	}
	return p
}

// digest identifies the pool's queries and op sequence, for the log: it is
// the same for every seed.
func (p *pool) digest() string {
	var b strings.Builder
	for _, q := range p.queries {
		b.WriteString(q.String())
	}
	for _, o := range p.ops {
		fmt.Fprintf(&b, "%d%v", o.query, o.minimize)
	}
	return digestOf([]byte(b.String()))[:12]
}

// canonicalOrder returns the dataset's triples ordered by a hash of their
// terms: a shuffled order that is the same for any line order of the input.
func canonicalOrder(ds *rdf.Dataset) []rdf.Triple {
	keys := make([]uint64, len(ds.Triples))
	h := fnv.New64a()
	for i, t := range ds.Triples {
		h.Reset()
		for _, v := range []rdf.Value{t.S, t.P, t.O} {
			h.Write([]byte(ds.Dict.Decode(v)))
			h.Write([]byte{0})
		}
		keys[i] = h.Sum64()
	}
	idx := make([]int, len(keys))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return keys[idx[a]] < keys[idx[b]] })
	out := make([]rdf.Triple, len(idx))
	for i, j := range idx {
		out[i] = ds.Triples[j]
	}
	return out
}

// captureConstants is the capture's condition as a store pattern, with the
// projection and the unconstrained position wildcards.
func captureConstants(c cind.Capture) [3]rdf.Value {
	vals := [3]rdf.Value{triplestore.Wildcard, triplestore.Wildcard, triplestore.Wildcard}
	vals[c.Cond.A1] = c.Cond.V1
	if c.Cond.IsBinary() {
		vals[c.Cond.A2] = c.Cond.V2
	}
	return vals
}

// capturePattern renders a capture as a triple pattern: proj at the
// projection position, the condition's constants, free elsewhere.
func capturePattern(c cind.Capture, dict *rdf.Dictionary, proj, free sparql.Term) sparql.Pattern {
	terms := [3]sparql.Term{free, free, free}
	terms[c.Proj] = proj
	terms[c.Cond.A1] = sparql.Constant(dict.Decode(c.Cond.V1))
	if c.Cond.IsBinary() {
		terms[c.Cond.A2] = sparql.Constant(dict.Decode(c.Cond.V2))
	}
	return sparql.Pattern{S: terms[0], P: terms[1], O: terms[2]}
}

// outcome is one op's record: which op, how long, and what it returned.
type outcome struct {
	op       int // index into pool.ops
	window   int
	seq      int // open loop: position in the loop's schedule
	latency  time.Duration
	late     time.Duration // open loop: how late the generator itself ran
	rowsHash uint64        // engine queries: digest of the result rows
	patterns int           // minimize: patterns left
	err      error
}

// loop is one serving loop against its own engine. Its ops run in windows
// that interleave with the run's discovery rounds; serving metrics are
// medians over the windows, so a burst of interference on the machine moves
// one window, not the result.
type loop struct {
	s        *server
	outcomes [][]outcome // per client
	// windowElapsed is each window's duration; for closed windows, less
	// the share of it the hypervisor stole (see stolenShare).
	windowElapsed []time.Duration
	first         int // position of the loop's first op in the op sequence
	next          int // open loop: position of the next window's first op
}

func (l *loop) ops() int {
	n := 0
	for _, c := range l.outcomes {
		n += len(c)
	}
	return n
}

// server runs ops against one engine.
type server struct {
	e    *env
	know *cind.Result
	p    *pool
	eng  *sparql.Engine
}

// do executes op i and times the library call only.
func (s *server) do(ctx context.Context, i int) outcome {
	o := s.p.ops[i]
	q := s.p.queries[o.query]
	out := outcome{op: i}
	if o.minimize {
		start := time.Now()
		min := sparql.Minimize(q, s.know, s.e.ds.Dict)
		out.latency = time.Since(start)
		out.patterns = len(min.Patterns)
		return out
	}
	start := time.Now()
	res, err := s.eng.Execute(ctx, q)
	out.latency = time.Since(start)
	if err != nil {
		out.err = err
		return out
	}
	out.rowsHash = hashRows(res.Rows)
	return out
}

// newLoop starts an engine for one serving loop. The loop's op sequence
// starts at offset.
//
// Every pool query runs once before timing starts, so the plan cache holds
// what fits in it; a pool larger than the cache keeps missing.
func newLoop(e *env, know *cind.Result, p *pool, offset int) *loop {
	eng := sparql.NewEngine(e.st, sparql.EngineConfig{
		Workers: nproc(), Knowledge: know, Timeout: engineTimeout,
	})
	for _, q := range p.queries {
		_, _ = eng.Execute(context.Background(), q) // errors recur in the timed ops
	}
	clients := nproc()
	return &loop{s: &server{e: e, know: know, p: p, eng: eng}, outcomes: make([][]outcome, clients), first: offset, next: offset}
}

// close stops the loop's engine.
func (l *loop) close() { l.s.eng.Close() }

// closedWindow runs the next window of a closed loop: nproc clients, each
// issuing its next op when the previous one returns, for d. Every window
// replays the op sequence from the loop's first op, so windows differ only
// in how fast the machine ran the same ops, not in their mix of cheap and
// expensive queries. Like the measured rdfind processes, the window runs on
// measuredProcs Ps.
func (l *loop) closedWindow(d time.Duration) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(measuredProcs))
	clients := len(l.outcomes)
	w := len(l.windowElapsed)
	base := l.first
	var issued atomic.Int64
	var wg sync.WaitGroup
	ticks := readCPUTicks()
	start := time.Now()
	stop := start.Add(d)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for time.Now().Before(stop) {
				i := base + int(issued.Add(1)) - 1
				o := l.s.do(context.Background(), i%len(l.s.p.ops))
				o.window = w
				l.outcomes[c] = append(l.outcomes[c], o)
			}
		}(c)
	}
	wg.Wait()
	active := float64(time.Since(start)) * (1 - stolenShare(ticks, readCPUTicks()))
	l.windowElapsed = append(l.windowElapsed, time.Duration(active))
}

// openWindow runs the next window of an open loop: ops are sent on a fixed
// schedule of openRate ops/s for d. Op k of the window is due at start + k/openRate
// and is sent by client k mod nproc; a client still busy at an op's due time
// sends it as soon as it is free, and the op's latency is measured from its
// due time, so an engine stall shows in every op it delays. The generator's
// own lateness — how long after max(due time, client free) the send
// happened, when the host or the runtime held the client back — is
// recorded separately and left out of the latency: an op's latency is its
// service time plus the time its client would still have been busy with
// earlier ops had every op been sent on time.
func (l *loop) openWindow(d time.Duration) {
	clients := len(l.outcomes)
	w := len(l.windowElapsed)
	total := int(openRate * d.Seconds())
	interval := time.Second / openRate
	base := l.next
	var wg sync.WaitGroup
	start := time.Now().Add(time.Millisecond)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			// free is when the client would have finished its previous op
			// had the generator sent every op on time.
			free := start
			for k := c; k < total; k += clients {
				// Spinning, not sleeping, until the op is due. A vCPU left
				// idle between ops halts, a shared host runs other guests
				// on its core, and the op would then start on caches they
				// emptied, its latency following their load. There are as
				// many clients as Ps, and a client blocks while its op
				// runs, so the engine worker runs on the P it gives up.
				due := start.Add(time.Duration(k) * interval)
				for time.Now().Before(due) {
				}
				sent := time.Now()
				o := l.s.do(context.Background(), (base+k)%len(l.s.p.ops))
				service := time.Since(sent)
				ready := maxTime(due, free)
				if sent.After(ready) {
					o.late = sent.Sub(ready)
				}
				o.latency = ready.Sub(due) + service
				free = ready.Add(service)
				o.window, o.seq = w, base+k
				l.outcomes[c] = append(l.outcomes[c], o)
			}
		}(c)
	}
	wg.Wait()
	l.windowElapsed = append(l.windowElapsed, d)
	l.next = base + total
}

// throughput is the median over the loop's windows of ops completed per
// second of the window's active time.
func (l *loop) throughput() float64 { return median(l.windowRates()) }

// windowRates returns each window's ops completed per second.
func (l *loop) windowRates() []float64 {
	counts := make([]int, len(l.windowElapsed))
	for _, c := range l.outcomes {
		for _, o := range c {
			counts[o.window]++
		}
	}
	var rates []float64
	for w, el := range l.windowElapsed {
		rates = append(rates, float64(counts[w])/el.Seconds())
	}
	return rates
}

// latencyQuantile is the q-quantile in ms of the latencies of the loop's ops
// of one kind: the ops, in the order they were due, are cut into chunks of minWindowOps (the
// last chunk takes the remainder), and the result is the median over chunks
// of each chunk's quantile, so a stall of the machine that hits a few
// chunks does not move it.
func (l *loop) latencyQuantile(q float64, kind func(op) bool) float64 {
	var all []outcome
	for _, c := range l.outcomes {
		for _, o := range c {
			if kind(l.s.p.ops[o.op]) {
				all = append(all, o)
			}
		}
	}
	sort.Slice(all, func(i, j int) bool { return all[i].seq < all[j].seq })
	chunks := max(len(all)/minWindowOps, 1)
	var qs []float64
	for i := 0; i < chunks; i++ {
		hi := (i + 1) * minWindowOps
		if i == chunks-1 {
			hi = len(all)
		}
		var ms []float64
		for _, o := range all[i*minWindowOps : hi] {
			ms = append(ms, float64(o.latency.Nanoseconds())/1e6)
		}
		qs = append(qs, quantile(ms, q))
	}
	return median(qs)
}

// lateP99 is the open loop generator's own lateness at p99, in ms.
func (l *loop) lateP99() float64 {
	var late []float64
	for _, c := range l.outcomes {
		for _, o := range c {
			late = append(late, float64(o.late.Nanoseconds())/1e6)
		}
	}
	return quantile(late, 0.99)
}

// latenciesMS returns the latencies in ms of the loop's ops of one kind.
func (l *loop) latenciesMS(kind func(op) bool) []float64 {
	var out []float64
	for _, c := range l.outcomes {
		for _, o := range c {
			if kind(l.s.p.ops[o.op]) {
				out = append(out, float64(o.latency.Nanoseconds())/1e6)
			}
		}
	}
	return out
}

func isMinimize(o op) bool { return o.minimize }
func isQuery(o op) bool    { return !o.minimize }

func maxTime(a, b time.Time) time.Time {
	if a.After(b) {
		return a
	}
	return b
}

func hashRows(rows [][]rdf.Value) uint64 {
	h := fnv.New64a()
	var buf [4]byte
	for _, row := range rows {
		for _, v := range row {
			buf[0], buf[1], buf[2], buf[3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
			h.Write(buf[:])
		}
		h.Write([]byte{0xff})
	}
	return h.Sum64()
}

// checker holds the serial oracles the serving checks compare against,
// computed once per distinct query.
type checker struct {
	e           *env
	p           *pool
	know        *cind.Result
	minimizable map[int]bool
	rows        map[int]uint64 // serial sparql.Execute result digest
	minimized   map[int]int    // patterns left by minimization, -1 if it changed the result
}

func newChecker(e *env, p *pool, know *cind.Result) *checker {
	c := &checker{e: e, p: p, know: know, minimizable: map[int]bool{},
		rows: map[int]uint64{}, minimized: map[int]int{}}
	for _, i := range p.minimizable {
		c.minimizable[i] = true
	}
	return c
}

// oracle returns the digest of query i's serial result, which uses no plan
// cache and no minimization.
func (c *checker) oracle(i int) (uint64, error) {
	if h, ok := c.rows[i]; ok {
		return h, nil
	}
	res, err := sparql.Execute(c.e.st, c.p.queries[i])
	if err != nil {
		return 0, err
	}
	c.rows[i] = hashRows(res.Rows)
	return c.rows[i], nil
}

// minimizedLen returns how many patterns minimizing query i leaves, or -1
// when the minimized query's serial result differs from the original's or
// a query built from a redundant statement kept all its patterns.
func (c *checker) minimizedLen(i int) (int, error) {
	if n, ok := c.minimized[i]; ok {
		return n, nil
	}
	q := c.p.queries[i]
	min := sparql.Minimize(q, c.know, c.e.ds.Dict)
	want, err := c.oracle(i)
	if err != nil {
		return 0, err
	}
	got, err := sparql.Execute(c.e.st, min)
	n := len(min.Patterns)
	switch {
	case err != nil:
		return 0, err
	case hashRows(got.Rows) != want, c.minimizable[i] && n == len(q.Patterns):
		n = -1
	}
	c.minimized[i] = n
	return n, nil
}

// checkServe checks every op of a loop after the timed region: an engine
// query must return exactly the rows of the serial oracle, and a
// minimization must match the serial one, preserve the query's result, and
// shorten every query built from a redundant statement.
func (c *checker) checkServe(l *loop, t *tally) {
	for _, outs := range l.outcomes {
		for _, o := range outs {
			t.attempt(1)
			op := c.p.ops[o.op]
			if o.err != nil {
				t.fail(1, fmt.Sprintf("op %d: %v", o.op, o.err))
				continue
			}
			if op.minimize {
				n, err := c.minimizedLen(op.query)
				if err != nil || n < 0 || o.patterns != n {
					t.fail(1, fmt.Sprintf("op %d: minimization to %d patterns is wrong (serial %d, %v)", o.op, o.patterns, n, err))
				}
				continue
			}
			h, err := c.oracle(op.query)
			if err != nil || o.rowsHash != h {
				t.fail(1, fmt.Sprintf("op %d: rows differ from the serial oracle (%v)", o.op, err))
			}
		}
	}
}
