package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"repro/internal/cind"
	"repro/internal/core"
	"repro/internal/rdf"
)

// sampleSize is how many reported statements the checker re-verifies
// against the dataset's semantics per distinct output.
const sampleSize = 40

// rdfindArgs is the command line of one measured discovery run.
func (w workload) rdfindArgs(inputs []string) []string {
	args := []string{"-support", strconv.Itoa(w.support), "-workers", "2"}
	if w.predOnly {
		args = append(args, "-pred-only-conditions")
	}
	if w.cluster > 0 {
		args = append(args, "-cluster", strconv.Itoa(w.cluster))
	}
	return append(args, "-input", strings.Join(inputs, ","))
}

// discoverLoop runs rdfind over the inputs until budget has elapsed and at
// least minRuns runs completed, numbering their outputs from first.
func discoverLoop(o options, e *env, budget time.Duration, minRuns, first int) ([]procRun, error) {
	var runs []procRun
	start := time.Now()
	for len(runs) < minRuns || time.Since(start) < budget {
		r, err := e.discoverOnce(o, first+len(runs))
		if err != nil {
			return nil, err
		}
		runs = append(runs, r)
	}
	return runs, nil
}

// discoverOnce is one untraced rdfind process run, output captured to a file.
func (e *env) discoverOnce(o options, i int) (procRun, error) {
	out := filepath.Join(e.dir, fmt.Sprintf("out-%d.txt", i))
	errPath := filepath.Join(e.dir, fmt.Sprintf("err-%d.txt", i))
	return runProc(e.dir, out, errPath, o.rdfind, o.w.rdfindArgs(e.inputs)...)
}

func digestOf(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// referenceDigest is the digest every discovery output must have: the one
// recorded for the benchmark's inputs when it was defined, or, at another
// scale, that of an in-process single-process run over the same dataset.
func (e *env) referenceDigest(o options) (string, error) {
	if o.scale == 1 && o.w.digest != "" {
		return o.w.digest, nil
	}
	res, _, err := core.DiscoverContext(context.Background(), e.ds, core.Config{
		Support: o.w.support, Workers: 2, PredicatesOnlyInConditions: o.w.predOnly,
	})
	if err != nil {
		return "", err
	}
	return digestOf([]byte(res.Format(e.ds.Dict))), nil
}

// knowledgeOf parses a run's output into the result the serving engine
// minimizes queries with. An unreadable output yields no knowledge; the
// discovery check reports the run as failed.
func knowledgeOf(r procRun, dict *rdf.Dictionary) *cind.Result {
	out, err := os.ReadFile(r.out)
	if err != nil {
		return &cind.Result{}
	}
	res, err := parseResult(string(out), dict)
	if err != nil {
		return &cind.Result{}
	}
	return res
}

// checkDiscovery checks every run after the timed region: a run fails on a
// nonzero exit, on an output whose digest differs from the reference, or
// when a seeded sample of its statements does not hold on the dataset.
func (e *env) checkDiscovery(o options, runs []procRun, t *tally) {
	want, err := e.referenceDigest(o)
	if err != nil {
		t.attempt(len(runs))
		t.fail(len(runs), "reference discovery: "+err.Error())
		return
	}
	verdicts := map[string]error{} // by output digest
	for i, r := range runs {
		t.attempt(1)
		if r.exit != 0 {
			t.fail(1, fmt.Sprintf("run %d exited %d", i, r.exit))
			continue
		}
		out, err := os.ReadFile(r.out)
		if err != nil {
			t.fail(1, err.Error())
			continue
		}
		d := digestOf(out)
		verdict, seen := verdicts[d]
		if !seen {
			verdict = checkOutput(out, d, want, e.ds, rand.New(rand.NewSource(o.seed)))
			verdicts[d] = verdict
		}
		if verdict != nil {
			t.fail(1, fmt.Sprintf("run %d: %v", i, verdict))
		}
	}
}

// checkOutput verifies one discovery output with digest d against the
// reference digest want and re-checks a seeded sample of its statements with
// cind.Holds, cind.ARHolds and cind.SupportOf.
func checkOutput(out []byte, d, want string, ds *rdf.Dataset, rng *rand.Rand) error {
	if d != want {
		return fmt.Errorf("output digest %.12s, want %.12s", d, want)
	}
	res, err := parseResult(string(out), ds.Dict)
	if err != nil {
		return err
	}
	n := len(res.ARs) + len(res.CINDs)
	for _, k := range rng.Perm(n)[:min(sampleSize, n)] {
		if k < len(res.ARs) {
			ar := res.ARs[k]
			if !cind.ARHolds(ds, ar) || cind.SupportOf(ds, ar.ImpliedCIND().Dep) != ar.Support {
				return fmt.Errorf("reported rule does not hold: %s", ar.Format(ds.Dict))
			}
			continue
		}
		c := res.CINDs[k-len(res.ARs)]
		if !cind.Holds(ds, c.Inclusion) || cind.SupportOf(ds, c.Dep) != c.Support {
			return fmt.Errorf("reported CIND does not hold: %s", c.Format(ds.Dict))
		}
	}
	return nil
}

// parseResult reads rdfind's text output back into a result.
func parseResult(text string, dict *rdf.Dictionary) (*cind.Result, error) {
	res := &cind.Result{}
	for _, line := range strings.Split(strings.TrimSuffix(text, "\n"), "\n") {
		switch {
		case line == "":
		case strings.HasPrefix(line, "AR "):
			ar, err := cind.ParseAR(strings.TrimSpace(line[len("AR "):]), dict)
			if err != nil {
				return nil, fmt.Errorf("output line %q: %w", line, err)
			}
			res.ARs = append(res.ARs, ar)
		case strings.HasPrefix(line, "CIND "):
			body, support, ok := strings.Cut(line[len("CIND "):], "  [support=")
			n, err := strconv.Atoi(strings.TrimSuffix(support, "]"))
			if !ok || err != nil {
				return nil, fmt.Errorf("output line %q lacks a support", line)
			}
			inc, err := cind.ParseInclusion(body, dict)
			if err != nil {
				return nil, fmt.Errorf("output line %q: %w", line, err)
			}
			res.CINDs = append(res.CINDs, cind.CIND{Inclusion: inc, Support: n})
		default:
			return nil, fmt.Errorf("unexpected output line %q", line)
		}
	}
	return res, nil
}
