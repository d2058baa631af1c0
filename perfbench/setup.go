package main

import (
	"bufio"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"repro/internal/datagen"
	"repro/internal/rdf"
	"repro/internal/source"
	"repro/internal/triplestore"
)

// env is what set-up leaves for the measured runs: the input files the
// program receives, the dataset as read back from them (for the checker and
// the triple store), and the store the serving loops query.
type env struct {
	dir        string
	inputs     []string // file names, relative to dir
	inputBytes int64
	ds         *rdf.Dataset
	st         *triplestore.Store
	storeBuild time.Duration
}

// setupSpan is how long set-up keeps repeating once it has run
// o.setupReps times, so cheap set-ups get a median over more samples.
const setupSpan = 3 * time.Second

// setUp builds the workload's inputs and the serving store at least
// o.setupReps times, and more until setupSpan has passed (at most
// 5×o.setupReps), and returns the last build with the median set-up time in
// seconds. Each set-up's time is its wall time less the share the
// hypervisor stole (see stolenShare).
func setUp(o options) (*env, float64, error) {
	var times []float64
	var e *env
	start := time.Now()
	for rep := 0; rep < o.setupReps || rep < 5*o.setupReps && time.Since(start) < setupSpan; rep++ {
		ticks := readCPUTicks()
		start := time.Now()
		var err error
		if e, err = buildEnv(o); err != nil {
			return nil, 0, err
		}
		times = append(times, time.Since(start).Seconds()*(1-stolenShare(ticks, readCPUTicks())))
	}
	return e, median(times), nil
}

func buildEnv(o options) (*env, error) {
	e := &env{dir: o.workdir}
	inputs, n, err := writeInputs(o.w, o.seed, o.scale, o.workdir)
	if err != nil {
		return nil, err
	}
	e.inputs, e.inputBytes = inputs, n
	if e.ds, err = readInputs(e.paths()); err != nil {
		return nil, err
	}
	start := time.Now()
	e.st = triplestore.New(e.ds)
	e.storeBuild = time.Since(start)
	return e, nil
}

// paths returns the input files' full paths.
func (e *env) paths() []string {
	out := make([]string, len(e.inputs))
	for i, in := range e.inputs {
		out[i] = filepath.Join(e.dir, in)
	}
	return out
}

// writeInputs generates the workload's dataset, permutes its triples with
// the seed, and writes them as N-Triples split into w.files contiguous
// files. It returns the file names and their total size.
func writeInputs(w workload, seed int64, scale float64, dir string) ([]string, int64, error) {
	spec, ok := datagen.ByName(w.dataset)
	if !ok {
		return nil, 0, fmt.Errorf("unknown dataset %q", w.dataset)
	}
	ds := spec.Generate(w.scale * scale)
	perm := rand.New(rand.NewSource(seed)).Perm(len(ds.Triples))
	shuffled := make([]rdf.Triple, len(perm))
	for i, j := range perm {
		shuffled[i] = ds.Triples[j]
	}
	var names []string
	var total int64
	for f := 0; f < w.files; f++ {
		lo, hi := f*len(shuffled)/w.files, (f+1)*len(shuffled)/w.files
		name := fmt.Sprintf("part%d.nt", f)
		n, err := writeNT(filepath.Join(dir, name), &rdf.Dataset{Dict: ds.Dict, Triples: shuffled[lo:hi]})
		if err != nil {
			return nil, 0, err
		}
		names = append(names, name)
		total += n
	}
	return names, total, nil
}

func writeNT(path string, ds *rdf.Dataset) (int64, error) {
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	bw := bufio.NewWriterSize(f, 1<<20)
	if err := rdf.WriteNTriples(bw, ds); err != nil {
		f.Close()
		return 0, fmt.Errorf("write %s: %w", path, err)
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return 0, fmt.Errorf("write %s: %w", path, err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return 0, err
	}
	return st.Size(), f.Close()
}

// readInputs reads the input files back the way rdfind's resident-dataset
// modes do, with two parse shards like the measured runs.
func readInputs(paths []string) (*rdf.Dataset, error) {
	resolved, err := source.Spec{Inputs: paths, Shards: 2}.Resolve()
	if err != nil {
		return nil, err
	}
	ds, bad, err := resolved.ReadDataset()
	if err != nil {
		return nil, err
	}
	if len(bad) > 0 {
		return nil, fmt.Errorf("%d malformed lines in generated input", len(bad))
	}
	return ds, nil
}
