package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"time"

	"sptrsv/internal/harness"
	"sptrsv/internal/mesh"
	"sptrsv/internal/native"
	"sptrsv/internal/registry"
	"sptrsv/internal/serve"
	"sptrsv/internal/sparse"
)

// matrixID is the id the serving workloads ingest their matrix under.
const matrixID = "bench"

// serving is a set-up serving stack with its matrix and the seeded
// right-hand sides.
type serving struct {
	st     *stack
	pr     *harness.Prepared // as ingested
	rhs    []*sparse.Block
	gs     genSum
	closed bool
	// counted makes swaps read the serve counters of every replaced
	// generation (traced runs only).
	counted bool

	setups, ingests samples // per cold set-up
	factorBytes     int64
}

// serveSetup builds the stack cold reps times — listener, registry,
// PUT spec?wait=1, first solve checked — and keeps the last one with the
// times of every set-up. n is the order of the matrix spec describes.
func serveSetup(cfg config, spec string, n, reps int, tr *tracer) (*serving, error) {
	var totals, ingests samples
	var st *stack
	b := randomBlock(n, 1, rand.New(rand.NewSource(1)))
	for i := 0; i < reps; i++ {
		if st != nil {
			st.close()
			st = nil
		}
		runtime.GC()
		root := tr.begin("setup", -1, 0)
		t0 := time.Now()
		s, err := startStack(tr)
		if err != nil {
			return nil, err
		}
		c := s.newClient(matrixID)
		t1 := time.Now()
		err = c.ingest(spec, tr, root)
		ingests.add(time.Since(t1))
		var x *sparse.Block
		if err == nil {
			x, err = c.solve(b, tr, root)
		}
		d := time.Since(t0)
		tr.end(root)
		c.close()
		if err != nil {
			s.close()
			return nil, fmt.Errorf("cold set-up: %w", err)
		}
		h, err := s.reg.Acquire(matrixID)
		if err != nil {
			s.close()
			return nil, err
		}
		r := harness.RelResidual(h.Prepared().A, x, b)
		h.Release()
		if !(r <= tol) {
			s.close()
			return nil, fmt.Errorf("cold set-up: first answer residual %g above %g", r, tol)
		}
		totals.add(d)
		st = s
	}
	h, err := st.reg.Acquire(matrixID)
	if err != nil {
		st.close()
		return nil, err
	}
	sw := &serving{st: st, pr: h.Prepared(), counted: cfg.trace, setups: totals, ingests: ingests, factorBytes: h.Factor().ValueBytes()}
	h.Release()
	rng := rand.New(rand.NewSource(cfg.seed))
	sw.rhs = make([]*sparse.Block, 32)
	for i := range sw.rhs {
		sw.rhs[i] = randomBlock(sw.pr.Sym.N, 1, rng)
	}
	return sw, nil
}

func gridSpec(n int) string { return fmt.Sprintf(`{"grid2d":"%dx%d"}`, n, n) }

// record reports a serving workload's set-up: setup_s is the median of
// the cold set-ups.
func (s *serving) record(rep *report) {
	rep.e2e["setup_s"] = s.setups.q(0.5) / 1e3
	rep.samples["setup"] = len(s.setups)
	rep.layer["registry.ingest_ms"] = s.ingests.q(0.5)
	rep.factorBytes = s.factorBytes
}

// close reads the current generation's counters when the run counts
// generations and shuts the stack; it is idempotent.
func (s *serving) close() {
	if s.closed {
		return
	}
	s.closed = true
	if old, err := s.current(); err == nil {
		s.retire(old)
	}
	s.st.close()
}

// finish records the registry gauges, closes the stack and records the
// serve counters summed over every generation it served.
func (s *serving) finish(l map[string]float64) {
	registryLayers(l, s.st.reg)
	s.close()
	serveLayers(l, &s.gs, s.st)
}

// swap installs set u%2 over HTTP through c and solves at once, checking
// that the answer solves exactly the installed set. It returns
// update-to-first-solve. The PUT is sent as any client sends it, so it
// pays the program's own teardown of the replaced generation. A traced
// run notes the replaced generation's server first and reads its
// counters once it has drained, after the timing (see current).
func (s *serving) swap(c *client, sets []valueSet, u int, tr *tracer, ans *tally) (time.Duration, error) {
	vs := sets[u%2]
	old, err := s.current()
	if err != nil {
		return 0, err
	}
	b := s.rhs[u%len(s.rhs)]
	root := tr.begin("update.request", -1, 0)
	t0 := time.Now()
	err = c.putValues(vs.a.Val, tr, root)
	var x *sparse.Block
	if err == nil {
		x, err = c.solve(b, tr, root)
	}
	d := time.Since(t0)
	tr.end(root)
	if err != nil {
		return 0, err
	}
	s.retire(old)
	hit, r := matches(sets, x, b)
	ans.check(len(hit) == 1 && hit[0] == vs.name,
		"first solve after installing %s over HTTP matches %v (residuals %v)", vs.name, hit, r)
	return d, nil
}

// current returns the server of the generation in service when the run
// counts generations (nil otherwise: a timed run reads no serve
// counters). It holds no pin, so the swap that replaces the generation
// tears it down as it would without the benchmark.
func (s *serving) current() (*serve.Server, error) {
	if !s.counted {
		return nil, nil
	}
	h, err := s.st.reg.Acquire(matrixID)
	if err != nil {
		return nil, err
	}
	defer h.Release()
	return h.Server(), nil
}

// retire adds the counters of a replaced generation's server once it has
// drained; a nil server is skipped.
func (s *serving) retire(old *serve.Server) {
	if old != nil {
		s.gs.add(drained(old))
	}
}

// residentSampler collects the registry's resident bytes; a median of
// samples, because the solver arena follows the latest batch width.
type residentSampler struct{ mb samples }

func (r *residentSampler) sample(reg *registry.Registry) {
	r.mb = append(r.mb, float64(reg.Stats().ResidentBytes)/1e6)
}

// serveHTTP is nproc closed-loop callers, each on its own keep-alive
// connection, sending single-RHS binary solves over loopback HTTP. Side
// path: the same callers in process (Acquire + Server.Solve), so the gap
// between the two is what HTTP and the codec cost. nproc callers keep
// the cores busy. With one caller they idle between hand-offs, and on a
// 2-core virtual machine the median then spread by a third of itself
// between runs of the same code, against a twentieth with two callers.
func serveHTTP(cfg config) (*report, error) {
	rep := newReport()
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
		if err := serveStages(cfg, tr, rep); err != nil {
			return nil, err
		}
	}
	s, err := serveSetup(cfg, gridSpec(cfg.serveGrid), cfg.serveGrid*cfg.serveGrid, cfg.serveReps, tr)
	if err != nil {
		return nil, err
	}
	defer s.close()
	s.record(rep)
	h, err := s.st.reg.Acquire(matrixID)
	if err != nil {
		return nil, err
	}
	ref := native.NewSolver(h.Factor(), native.Options{Workers: 1})
	h.Release()
	refs := make([]*sparse.Block, len(s.rhs))
	for i, b := range s.rhs {
		if refs[i], err = columnRefs(ref, b); err != nil {
			ref.Close()
			return nil, err
		}
	}
	ref.Close()

	callers := runtime.GOMAXPROCS(0)
	clients := make([]*client, callers)
	for i := range clients {
		clients[i] = s.st.newClient(matrixID)
		defer clients[i].close()
	}
	var ans tally
	var res residentSampler
	lat := make([]samples, callers)
	httpStep := func(tr *tracer) func(c, i int) {
		return func(c, i int) {
			k := (c*7 + i) % len(s.rhs)
			t0 := time.Now()
			x, err := clients[c].solve(s.rhs[k], tr, -1)
			d := time.Since(t0)
			if err != nil {
				ans.check(false, "serve-http rhs %d: %v", k, err)
				return
			}
			lat[c].add(d)
			ok, at := sameBits(x.Data, refs[k].Data)
			ans.check(ok, "serve-http rhs %d: differs from the in-process reference at row %d", k, at)
			if c == 0 && i%64 == 0 {
				res.sample(s.st.reg)
			}
		}
	}
	inprocStep := func(c, i int) {
		k := (c*7 + i) % len(s.rhs)
		t0 := time.Now()
		x, err := s.st.inprocSolve(matrixID, s.rhs[k].Data, nil)
		d := time.Since(t0)
		if err != nil {
			ans.check(false, "serve-http in-process rhs %d: %v", k, err)
			return
		}
		lat[c].add(d)
		ok, at := sameBits(x, refs[k].Data)
		ans.check(ok, "serve-http in-process rhs %d: differs from the reference at row %d", k, at)
	}
	merge := func() samples {
		var all samples
		for c := range lat {
			all = append(all, lat[c]...)
			lat[c] = nil
		}
		return all
	}
	closedLoop(callers, cfg.warmup, httpStep(nil))
	merge()

	if cfg.trace {
		l := rep.layer
		closedLoop(callers, cfg.dur*3/10, httpStep(nil))
		untraced := merge()
		closedLoop(callers, cfg.dur*3/10, httpStep(tr))
		traced := merge()
		traceOverhead(l, untraced.q(0.5), traced.q(0.5), tr)
		if err := serveTraceTail(cfg, s, callers, tr, &ans, l, clients...); err != nil {
			return nil, err
		}
		rep.add(&ans)
		return rep, tr.write(cfg.traceDir, "serve-http.spans.jsonl")
	}

	// HTTP and in-process rounds alternate, so both paths sample the
	// same stretches of the run; each gets half of it.
	const rounds = 5
	var prim, side samples
	var elapsed time.Duration
	for r := 0; r < rounds; r++ {
		elapsed += closedLoop(callers, cfg.dur/(2*rounds), httpStep(nil))
		prim = append(prim, merge()...)
		closedLoop(callers, cfg.dur/(2*rounds), inprocStep)
		side = append(side, merge()...)
	}
	rep.add(&ans)
	rep.e2eLatencies(prim, side, "http", "inproc")
	rep.named["rhs_per_s"] = float64(len(prim)) / elapsed.Seconds()
	rep.e2e["resident_mb"] = res.mb.q(0.5)
	return rep, nil
}

// serveStages times the library set-up stages of the served matrix in a
// traced run: the registry runs them out of reach of the benchmark's
// spans.
func serveStages(cfg config, tr *tracer, rep *report) error {
	gen := func() mesh.Problem { return grid2DProblem(cfg.serveGrid) }
	lb, err := coldBuilds(cfg.setupReps, gen, native.Options{}, tr, nil, rep)
	if err != nil {
		return err
	}
	lb.sv.Close()
	return nil
}

// serveTraceTail finishes serve-http's traced run: the layer
// probe with the workload's callers, the native metrics of the served
// solver, the mixed-precision rung, the predicted speedup, and the
// summed serve counters.
func serveTraceTail(cfg config, s *serving, callers int, tr *tracer, ans *tally, l map[string]float64, clients ...*client) error {
	nat, last, allocs, err := probeLayers(cfg, s, callers, tr, ans, l)
	if err != nil {
		return err
	}
	sweepStats(l, last, s.pr.Sym, 1, nat)
	l["native.allocs_per_solve"] = allocs
	h, err := s.st.reg.Acquire(matrixID)
	if err != nil {
		return err
	}
	pr := h.Prepared()
	h.Release()
	if err := mixedRung(cfg, pr, s.rhs, native.Options{Strategy: native.StrategyAuto}, tr, ans, l); err != nil {
		return err
	}
	statusLayers(l, clients...)
	if err := speedupVsSim(s.pr, 1, l); err != nil {
		return err
	}
	s.finish(l)
	return nil
}

// probeLibrary runs the layer probe for a library workload: the same
// matrix ingested once into a serving stack, probed with one caller.
func probeLibrary(cfg config, spec string, n int, tr *tracer, ans *tally, l map[string]float64) error {
	s, err := serveSetup(cfg, spec, n, 1, tr)
	if err != nil {
		return err
	}
	defer s.close()
	l["registry.ingest_ms"] = s.ingests.q(0.5)
	if _, _, _, err := probeLayers(cfg, s, 1, tr, ans, l); err != nil {
		return err
	}
	s.finish(l)
	return nil
}

// valueSet is one seeded numeric value set for the served pattern: the
// matrix rescaled as D·A·D with a seeded positive diagonal D, so it
// stays SPD and its solutions differ from every other set's.
type valueSet struct {
	a    *sparse.SymCSC
	name string
}

func rescaled(base *sparse.SymCSC, rng *rand.Rand, name string) valueSet {
	d := make([]float64, base.N)
	for i := range d {
		d[i] = math.Exp2(2*rng.Float64() - 1)
	}
	a := &sparse.SymCSC{N: base.N, ColPtr: base.ColPtr, RowIdx: base.RowIdx, Val: make([]float64, len(base.Val))}
	for j := 0; j < base.N; j++ {
		for p := base.ColPtr[j]; p < base.ColPtr[j+1]; p++ {
			a.Val[p] = d[base.RowIdx[p]] * base.Val[p] * d[j]
		}
	}
	return valueSet{a: a, name: name}
}

// matches reports which of the value sets x solves A·x = b for within
// tol; a correct answer matches exactly one.
func matches(sets []valueSet, x, b *sparse.Block) (hit []string, res []float64) {
	for _, vs := range sets {
		r := harness.RelResidual(vs.a, x, b)
		res = append(res, r)
		if r <= tol {
			hit = append(hit, vs.name)
		}
	}
	return hit, res
}
