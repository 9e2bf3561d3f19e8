package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"sptrsv/internal/chol"
	"sptrsv/internal/harness"
	"sptrsv/internal/machine"
	"sptrsv/internal/mesh"
	"sptrsv/internal/native"
	"sptrsv/internal/order"
	"sptrsv/internal/prec"
	"sptrsv/internal/sparse"
	"sptrsv/internal/symbolic"
)

// config sizes one run. fullSize is what the command runs; the smoke
// test shrinks every size and keeps every code path and check.
type config struct {
	seed     int64
	dur      time.Duration
	trace    bool
	traceDir string

	grid2D    int // sweep-2d-1rhs: GRID2D side
	cube      int // sweep-3d-wide: CUBE side
	serveGrid int // serve-http: GRID2D side ingested over HTTP

	setupReps int           // cold set-ups per run; setup_s is their median
	serveReps int           // cold stack set-ups per serving run
	warmup    time.Duration // untimed warm-up before each measured phase
}

func fullSize() config {
	return config{
		grid2D: 255, cube: 20, serveGrid: 63,
		setupReps: 5, serveReps: 51,
		warmup: 300 * time.Millisecond,
	}
}

// wideRHS is sweep-3d-wide's block width: the paper's widest NRHS.
const wideRHS = 30

// tol is the residual bound answers are checked against: the serving
// stack's and the precision guard's default.
const tol = 1e-10

func grid2DProblem(n int) mesh.Problem {
	return mesh.Problem{Name: fmt.Sprintf("GRID2D-%d", n), A: mesh.Grid2D(n, n), Geom: mesh.Grid2DGeometry(n, n)}
}

func cubeProblem(n int) mesh.Problem {
	return mesh.Problem{Name: fmt.Sprintf("CUBE-%d", n), A: mesh.Grid3D(n, n, n), Geom: mesh.Grid3DGeometry(n, n, n)}
}

// libBuild is one cold library set-up: the same ordering, analysis and
// amalgamation as harness.Prepare, called stage by stage so each stage
// is timed, then the factor, the solver, and a checked first solve.
type libBuild struct {
	pr     *harness.Prepared
	f      *chol.Factor
	sv     *native.Solver
	stages map[string]float64
}

// buildLibrary runs gen → order → analyze → amalgamate → factorize →
// NewSolver → first solve, returning the build with per-stage times.
func buildLibrary(gen func() mesh.Problem, opts native.Options, tr *tracer) (*libBuild, error) {
	st := make(map[string]float64)
	root := tr.begin("setup", -1, 0)
	defer tr.end(root)
	stage := func(name string, fn func()) {
		id := tr.begin(name, root, 0)
		t0 := time.Now()
		fn()
		st[name] = time.Since(t0).Seconds()
		tr.end(id)
	}
	var (
		p    mesh.Problem
		perm []int
		sym  *symbolic.Factor
		ap   *sparse.SymCSC
		f    *chol.Factor
		err  error
		sv   *native.Solver
	)
	stage("mesh.generate", func() { p = gen() })
	stage("order.nd", func() { perm = order.NestedDissectionGeom(p.A, p.Geom) })
	stage("symbolic.analyze", func() { sym, _, ap = symbolic.Analyze(p.A.PermuteSym(perm)) })
	stage("symbolic.amalgamate", func() { sym = symbolic.Amalgamate(sym, 0.15, 32) })
	stage("chol.factorize", func() { f, err = chol.Factorize(ap, sym) })
	if err != nil {
		return nil, fmt.Errorf("factorize %s: %w", p.Name, err)
	}
	stage("native.newsolver", func() { sv = native.NewSolver(f, opts) })
	pr := &harness.Prepared{Name: p.Name, A: ap, Sym: sym}
	b := randomBlock(sym.N, 1, rand.New(rand.NewSource(1)))
	x := sparse.NewBlock(sym.N, 1)
	stage("native.cold_solve", func() { _, err = sv.SolveInto(context.Background(), b, x) })
	if err != nil {
		sv.Close()
		return nil, fmt.Errorf("first solve %s: %w", p.Name, err)
	}
	if r := harness.RelResidual(ap, x, b); !(r <= tol) {
		sv.Close()
		return nil, fmt.Errorf("first solve %s: residual %g above %g", p.Name, r, tol)
	}
	return &libBuild{pr: pr, f: f, sv: sv, stages: st}, nil
}

// coldBuilds runs reps cold set-ups after a GC each and keeps the last.
// extra, when non-nil, finishes each build (it is part of the set-up).
// setup_s is the median of the totals; stage times are medians too.
func coldBuilds(reps int, gen func() mesh.Problem, opts native.Options, tr *tracer, extra func(*libBuild) error, rep *report) (*libBuild, error) {
	var last *libBuild
	totals := samples{}
	stages := map[string]samples{}
	for i := 0; i < reps; i++ {
		if last != nil {
			last.sv.Close()
			last = nil
		}
		runtime.GC()
		t0 := time.Now()
		b, err := buildLibrary(gen, opts, tr)
		if err != nil {
			return nil, err
		}
		if extra != nil {
			if err := extra(b); err != nil {
				b.sv.Close()
				return nil, err
			}
		}
		totals.add(time.Since(t0))
		for k, v := range b.stages {
			stages[k] = append(stages[k], v)
		}
		last = b
	}
	rep.e2e["setup_s"] = totals.q(0.5) / 1e3
	rep.samples["setup"] = len(totals)
	sym := last.pr.Sym
	l := rep.layer
	l["order.nd_s"] = stages["order.nd"].q(0.5)
	l["symbolic.analyze_s"] = stages["symbolic.analyze"].q(0.5)
	l["symbolic.amalgamate_s"] = stages["symbolic.amalgamate"].q(0.5)
	l["chol.factorize_s"] = stages["chol.factorize"].q(0.5)
	l["native.newsolver_ms"] = stages["native.newsolver"].q(0.5) * 1e3
	l["native.cold_solve_ms"] = stages["native.cold_solve"].q(0.5) * 1e3
	l["symbolic.nsuper"] = float64(sym.NSuper)
	l["symbolic.nnz_l"] = float64(sym.NnzL)
	l["symbolic.flops_per_rhs"] = float64(sym.SolveFlopsPerRHS)
	return last, nil
}

// randomBlock fills an n×m block with standard-normal values.
func randomBlock(n, m int, rng *rand.Rand) *sparse.Block {
	b := sparse.NewBlock(n, m)
	for i := range b.Data {
		b.Data[i] = rng.NormFloat64()
	}
	return b
}

// columnRefs solves every column of b on its own with the reference
// solver and returns the solution block: the per-RHS reference that
// answers from any worker count, kernel or batch width must equal
// bitwise.
func columnRefs(ref *native.Solver, b *sparse.Block) (*sparse.Block, error) {
	out := sparse.NewBlock(b.N, b.M)
	col := sparse.NewBlock(b.N, 1)
	x := sparse.NewBlock(b.N, 1)
	for j := 0; j < b.M; j++ {
		for i := 0; i < b.N; i++ {
			col.Data[i] = b.Data[i*b.M+j]
		}
		if _, err := ref.SolveInto(context.Background(), col, x); err != nil {
			return nil, err
		}
		for i := 0; i < b.N; i++ {
			out.Data[i*b.M+j] = x.Data[i]
		}
	}
	return out, nil
}

// sameBits reports whether two slices are bitwise equal (NaN payloads
// included), with the first differing index.
func sameBits(a, b []float64) (bool, int) {
	if len(a) != len(b) {
		return false, -1
	}
	for i := range a {
		if a[i] != b[i] && !(a[i] != a[i] && b[i] != b[i]) {
			return false, i
		}
	}
	return true, 0
}

// sweepStats records a native solve's scheduler and kernel metrics:
// sweep_ms is the median over the samples, the forward and backward
// split is the last solve's.
func sweepStats(l map[string]float64, st native.Stats, sym *symbolic.Factor, m int, sweep samples) {
	ms := sweep.q(0.5)
	l["native.sweep_ms"] = ms
	l["native.forward_ms"] = float64(st.Forward.Nanoseconds()) / 1e6
	l["native.backward_ms"] = float64(st.Backward.Nanoseconds()) / 1e6
	l["native.tasks"] = float64(st.Tasks)
	l["native.aggregated_tasks"] = float64(st.AggregatedTasks)
	l["native.levels"] = float64(st.Levels)
	l["native.arena_bytes"] += float64(st.AllocBytes)
	if ms > 0 {
		l["native.gflops"] = float64(sym.SolveFlopsPerRHS) * float64(m) / (ms / 1e3) / 1e9
	}
	// Computed, not measured: each sweep reads every factor entry of the
	// plane once and each RHS and solution entry once.
	plane := int64(8)
	if st.Precision == native.PrecisionFloat32 {
		plane = 4
	}
	l["native.bytes_computed"] = float64(sym.NnzL*plane + 2*int64(sym.N)*int64(m)*8)
	st.KernelTasks.Each(func(k string, n int64) { l["native.kernel_tasks."+k] += float64(n) })
}

// repeat calls fn with the iteration number until d has elapsed and fn
// ran at least n times, or until fn fails.
func repeat(n int, d time.Duration, fn func(i int) error) error {
	deadline := time.Now().Add(d)
	for i := 0; i < n || time.Now().Before(deadline); i++ {
		if err := fn(i); err != nil {
			return err
		}
	}
	return nil
}

// allocsPerSolve measures heap allocations per warm SolveInto.
func allocsPerSolve(sv *native.Solver, b, x *sparse.Block) (float64, error) {
	const n = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		if _, err := sv.SolveInto(context.Background(), b, x); err != nil {
			return 0, err
		}
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / n, nil
}

// speedupVsSim measures native speedup at nproc workers over one worker
// beside the simulator's predicted speedup at p = nproc, through
// harness.NativeVsSim. Worker counts must be powers of two; with one
// core both are 1.
func speedupVsSim(pr *harness.Prepared, nrhs int, l map[string]float64) error {
	p := 1
	for p*2 <= runtime.GOMAXPROCS(0) {
		p *= 2
	}
	rows, res, err := harness.NativeVsSim(pr, []int{p}, harness.NativeConfig{NRHS: nrhs, Reps: 5, Model: machine.T3D()})
	if err != nil {
		return err
	}
	if !(res <= tol) {
		return fmt.Errorf("NativeVsSim residual %g above %g", res, tol)
	}
	l["native.speedup"] = rows[0].MeasuredSpeedup
	l["sim.predicted_speedup"] = rows[0].PredictedSpeedup
	return nil
}

// sweep2D is the paper's NRHS = 1 case on a 2-D mesh: tiny supernodes,
// so the scheduler does most of the work. Side path: the same RHS on a
// 1-worker solver, the serial baseline (and the reference).
func sweep2D(cfg config) (*report, error) {
	rep := newReport()
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	gen := func() mesh.Problem { return grid2DProblem(cfg.grid2D) }
	lb, err := coldBuilds(cfg.setupReps, gen, native.Options{}, tr, nil, rep)
	if err != nil {
		return nil, err
	}
	defer lb.sv.Close()
	sv, pr, n := lb.sv, lb.pr, lb.pr.Sym.N
	ref := native.NewSolver(lb.f, native.Options{Workers: 1})
	defer ref.Close()

	rng := rand.New(rand.NewSource(cfg.seed))
	const pool = 16
	rhs := make([]*sparse.Block, pool)
	refs := make([]*sparse.Block, pool)
	for i := range rhs {
		rhs[i] = randomBlock(n, 1, rng)
		if refs[i], err = columnRefs(ref, rhs[i]); err != nil {
			return nil, err
		}
	}
	rep.factorBytes = lb.f.ValueBytes()
	x := sparse.NewBlock(n, 1)
	xs := sparse.NewBlock(n, 1)
	ctx := context.Background()
	var ans tally
	var prim, side samples
	var last native.Stats

	solve := func(i int, tr *tracer) error {
		k := i % pool
		id := tr.begin("native.solveinto", -1, int64(i))
		t0 := time.Now()
		st, err := sv.SolveInto(ctx, rhs[k], x)
		d := time.Since(t0)
		tr.end(id)
		if err != nil {
			return err
		}
		prim.add(d)
		last = st
		ok, at := sameBits(x.Data, refs[k].Data)
		ans.check(ok, "sweep-2d rhs %d: differs from the 1-worker reference at row %d", k, at)
		if i%4 == 0 {
			id := tr.begin("native.solveinto.serial", -1, int64(i))
			t0 := time.Now()
			_, err := ref.SolveInto(ctx, rhs[k], xs)
			d := time.Since(t0)
			tr.end(id)
			if err != nil {
				return err
			}
			side.add(d)
			ok, at := sameBits(xs.Data, refs[k].Data)
			ans.check(ok, "sweep-2d rhs %d: serial solve not deterministic at row %d", k, at)
		}
		return nil
	}
	if err := repeat(0, cfg.warmup, func(i int) error { return solve(i, nil) }); err != nil {
		return nil, err
	}
	prim, side = nil, nil
	if cfg.trace {
		if err := tracedPhases(cfg, rep, tr, &prim, solve); err != nil {
			return nil, err
		}
		sweepStats(rep.layer, last, pr.Sym, 1, prim)
		if rep.layer["native.allocs_per_solve"], err = allocsPerSolve(sv, rhs[0], x); err != nil {
			return nil, err
		}
		if err := speedupVsSim(pr, 1, rep.layer); err != nil {
			return nil, err
		}
		if err := mixedRung(cfg, pr, rhs, native.Options{}, tr, &ans, rep.layer); err != nil {
			return nil, err
		}
		if err := probeLibrary(cfg, gridSpec(cfg.grid2D), n, tr, &ans, rep.layer); err != nil {
			return nil, err
		}
		rep.add(&ans)
		return rep, tr.write(cfg.traceDir, "sweep-2d-1rhs.spans.jsonl")
	}
	if err := repeat(0, cfg.dur, func(i int) error { return solve(i, nil) }); err != nil {
		return nil, err
	}
	rep.add(&ans)
	rep.e2eLatencies(prim, side, "solve", "serial")
	rep.named["rhs_per_s"] = prim.rate(1)
	rep.e2e["resident_mb"] = float64(lb.f.ValueBytes()+sv.ArenaBytes()) / 1e6
	rep.named["speedup_vs_serial"] = side.q(0.5) / prim.q(0.5)
	return rep, nil
}

// tracedPhases runs the loop untraced and then traced, two fifths of the
// run each, recording the traced half's latencies into prim and the
// difference of the two medians as the tracing overhead.
func tracedPhases(cfg config, rep *report, tr *tracer, prim *samples, step func(int, *tracer) error) error {
	half := cfg.dur * 2 / 5
	if err := repeat(0, half, func(i int) error { return step(i, nil) }); err != nil {
		return err
	}
	untraced := *prim
	*prim = nil
	if err := repeat(0, half, func(i int) error { return step(i, tr) }); err != nil {
		return err
	}
	traceOverhead(rep.layer, untraced.q(0.5), prim.q(0.5), tr)
	return nil
}

func traceOverhead(l map[string]float64, untraced, traced float64, tr *tracer) {
	l["trace.untraced_p50_ms"] = untraced
	l["trace.traced_p50_ms"] = traced
	l["trace.overhead_ms"] = traced - untraced
	l["trace.spans"] = float64(tr.count())
}

// sweep3D is the paper's widest case (NRHS = 30) on a 3-D mesh: fat
// separator supernodes, so the kernels do most of the work. Each seeded
// block is solved on the float64 solver (primary) and through prec.Guard
// over a float32 solver of the same factor (side).
func sweep3D(cfg config) (*report, error) {
	rep := newReport()
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	var (
		sv32  *native.Solver
		guard *prec.Guard
	)
	// The mixed path is part of the set-up: float32 plane, its solver,
	// the guard and its first checked answer.
	mixed := func(lb *libBuild) error {
		if sv32 != nil {
			sv32.Close()
			guard.Close()
		}
		sv32 = native.NewSolver(lb.f.Demote(), native.Options{Precision: native.PrecisionFloat32})
		guard = prec.NewGuard(lb.pr, native.Options{}, tol)
		b := randomBlock(lb.pr.Sym.N, 1, rand.New(rand.NewSource(1)))
		res, err := guard.Solve(context.Background(), sv32, b)
		if err != nil {
			return err
		}
		if r := harness.RelResidual(lb.pr.A, res.X, b); !(r <= tol) {
			return fmt.Errorf("first mixed solve: residual %g above %g", r, tol)
		}
		return nil
	}
	gen := func() mesh.Problem { return cubeProblem(cfg.cube) }
	lb, err := coldBuilds(cfg.setupReps, gen, native.Options{}, tr, mixed, rep)
	if err != nil {
		return nil, err
	}
	defer lb.sv.Close()
	defer sv32.Close()
	defer guard.Close()
	sv, pr, n, m := lb.sv, lb.pr, lb.pr.Sym.N, wideRHS
	ref := native.NewSolver(lb.f, native.Options{Workers: 1})
	defer ref.Close()

	rng := rand.New(rand.NewSource(cfg.seed))
	const pool = 4
	rhs := make([]*sparse.Block, pool)
	refs := make([]*sparse.Block, pool)
	for i := range rhs {
		rhs[i] = randomBlock(n, m, rng)
		if refs[i], err = columnRefs(ref, rhs[i]); err != nil {
			return nil, err
		}
	}
	ref.Close()
	rep.factorBytes = lb.f.ValueBytes()
	x := sparse.NewBlock(n, m)
	ctx := context.Background()
	var ans tally
	var prim, side samples
	var last native.Stats
	paths := map[harness.Path]int{}
	var iters int

	step := func(i int, tr *tracer) error {
		k := i % pool
		id := tr.begin("native.solveinto", -1, int64(i))
		t0 := time.Now()
		st, err := sv.SolveInto(ctx, rhs[k], x)
		d := time.Since(t0)
		tr.end(id)
		if err != nil {
			return err
		}
		prim.add(d)
		last = st
		ok, at := sameBits(x.Data, refs[k].Data)
		ans.check(ok, "sweep-3d block %d: differs from the per-RHS reference at word %d", k, at)

		id = tr.begin("prec.guard_solve", -1, int64(i))
		t0 = time.Now()
		res, err := guard.Solve(ctx, sv32, rhs[k])
		d = time.Since(t0)
		tr.end(id)
		if err != nil {
			ans.check(false, "sweep-3d block %d: mixed solve failed: %v", k, err)
			return nil
		}
		side.add(d)
		r := harness.RelResidual(pr.A, res.X, rhs[k])
		ans.check(r <= tol && res.Path != "", "sweep-3d block %d: mixed residual %g (tol %g) on rung %q", k, r, tol, res.Path)
		paths[res.Path]++
		iters += res.Iters
		return nil
	}
	if err := repeat(0, cfg.warmup, func(i int) error { return step(i, nil) }); err != nil {
		return nil, err
	}
	prim, side = nil, nil
	if cfg.trace {
		if err := tracedPhases(cfg, rep, tr, &prim, step); err != nil {
			return nil, err
		}
		l := rep.layer
		sweepStats(l, last, pr.Sym, m, prim)
		if err := mixedRung(cfg, pr, rhs, native.Options{}, tr, &ans, l); err != nil {
			return nil, err
		}
		if l["native.allocs_per_solve"], err = allocsPerSolve(sv, rhs[0], x); err != nil {
			return nil, err
		}
		if err := speedupVsSim(pr, m, l); err != nil {
			return nil, err
		}
		if err := probeLibrary(cfg, fmt.Sprintf(`{"cube":%d}`, cfg.cube), n, tr, &ans, l); err != nil {
			return nil, err
		}
		rep.add(&ans)
		return rep, tr.write(cfg.traceDir, "sweep-3d-wide.spans.jsonl")
	}
	if err := repeat(0, cfg.dur, func(i int) error { return step(i, nil) }); err != nil {
		return nil, err
	}
	rep.add(&ans)
	rep.e2eLatencies(prim, side, "f64", "mixed")
	rep.named["rhs_per_s"] = prim.rate(m)
	rep.named["mixed_rhs_per_s"] = side.rate(m)
	rep.named["mixed_over_f64_p50"] = side.q(0.5) / prim.q(0.5)
	rep.named["refine_iters_per_block"] = float64(iters) / float64(max(1, len(side)))
	for p, c := range paths {
		rep.named["path."+string(p)] = float64(c)
	}
	rep.e2e["resident_mb"] = float64(lb.f.ValueBytes()+sv.ArenaBytes()+sv32.ArenaBytes()) / 1e6
	return rep, nil
}
