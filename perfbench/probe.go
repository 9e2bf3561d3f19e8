package main

import (
	"context"
	"fmt"
	"math/rand"
	"sync/atomic"
	"time"

	"sptrsv/internal/chol"
	"sptrsv/internal/harness"
	"sptrsv/internal/native"
	"sptrsv/internal/prec"
	"sptrsv/internal/sparse"
)

// probeLayers is the traced run's entry-point ladder on the workload's
// served matrix, so every layer is measured on every workload. The same
// single-RHS solves run in turn through HTTP, through registry.Acquire
// and the coalescing server in process, and on the served solver alone
// (callers closed-loop callers on the first two rungs, one on the last).
// Then one value update at a time runs through HTTP (PUT + first POST
// solve), in process (registry.UpdateValues + Acquire + Server.Solve),
// and in the library (chol.Refactorize + native.NewSolverLike + first
// SolveInto). The differences between rungs are the layers' self times.
// Before the ladder, an untraced HTTP rung (spans allocate) measures the
// heap bytes per request and the GC's share of CPU time. It returns the
// native rung's latencies, its last Stats, and the served solver's heap
// allocations per warm solve.
func probeLayers(cfg config, s *serving, callers int, tr *tracer, ans *tally, l map[string]float64) (samples, native.Stats, float64, error) {
	rung := cfg.dur / 20
	h, err := s.st.reg.Acquire(matrixID)
	if err != nil {
		return nil, native.Stats{}, 0, err
	}
	a, served := h.Prepared().A, h.Server().Solver()
	ref := native.NewSolver(h.Factor(), native.Options{Workers: 1})
	h.Release()
	refs := make([]*sparse.Block, len(s.rhs))
	for k, b := range s.rhs {
		if refs[k], err = columnRefs(ref, b); err != nil {
			ref.Close()
			return nil, native.Stats{}, 0, err
		}
	}
	ref.Close()
	check := func(what string, k int, x *sparse.Block) {
		r := harness.RelResidual(a, x, s.rhs[k])
		ans.check(r <= tol, "%s rhs %d: residual %g above %g", what, k, r, tol)
	}

	clients := make([]*client, callers)
	for i := range clients {
		clients[i] = s.st.newClient(matrixID)
		defer clients[i].close()
	}
	lat := make([]samples, callers)
	rungP50 := func() float64 {
		var all samples
		for c := range lat {
			all = append(all, lat[c]...)
			lat[c] = nil
		}
		return all.q(0.5)
	}
	var requests atomic.Int64
	m0 := readRuntime()
	closedLoop(callers, rung, func(c, i int) {
		k := (c*7 + i) % len(s.rhs)
		x, err := clients[c].solve(s.rhs[k], nil, -1)
		if err != nil {
			ans.check(false, "probe untraced HTTP rhs %d: %v", k, err)
			return
		}
		requests.Add(1)
		ok, at := sameBits(x.Data, refs[k].Data)
		ans.check(ok, "probe untraced HTTP rhs %d: differs from the reference at row %d", k, at)
	})
	m0.since(l, int(requests.Load()))
	closedLoop(callers, rung, func(c, i int) {
		k := (c*7 + i) % len(s.rhs)
		t0 := time.Now()
		x, err := clients[c].solve(s.rhs[k], tr, -1)
		d := time.Since(t0)
		if err != nil {
			ans.check(false, "probe HTTP rhs %d: %v", k, err)
			return
		}
		lat[c] = append(lat[c], float64(d.Nanoseconds())/1e6)
		check("probe HTTP", k, x)
	})
	l["ladder.http_ms"] = rungP50()
	closedLoop(callers, rung, func(c, i int) {
		k := (c*7 + i) % len(s.rhs)
		t0 := time.Now()
		x, err := s.st.inprocSolve(matrixID, s.rhs[k].Data, tr)
		d := time.Since(t0)
		if err != nil {
			ans.check(false, "probe in-process rhs %d: %v", k, err)
			return
		}
		lat[c] = append(lat[c], float64(d.Nanoseconds())/1e6)
		check("probe in-process", k, sparse.BlockFromVec(x))
	})
	l["ladder.inproc_ms"] = rungP50()
	x := sparse.NewBlock(s.pr.Sym.N, 1)
	var nat samples
	var last native.Stats
	if err := repeat(0, rung, func(i int) error {
		k := i % len(s.rhs)
		id := tr.begin("native.solveinto", -1, 0)
		t0 := time.Now()
		st, err := served.SolveInto(context.Background(), s.rhs[k], x)
		nat.add(time.Since(t0))
		tr.end(id)
		if err != nil {
			return err
		}
		last = st
		check("probe served solver", k, x)
		return nil
	}); err != nil {
		return nil, last, 0, err
	}
	// Before the update ladder swaps the served solver out and closes it.
	allocs, err := allocsPerSolve(served, s.rhs[0], x)
	if err != nil {
		return nil, last, 0, err
	}
	l["ladder.native_ms"] = nat.q(0.5)
	l["ladder.transport_self_ms"] = l["ladder.http_ms"] - l["ladder.inproc_ms"]
	l["ladder.serve_self_ms"] = l["ladder.inproc_ms"] - l["ladder.native_ms"]
	httpLayers(l, tr)
	statusLayers(l, clients...)

	if err := updateLadder(cfg, s, clients[0], tr, ans, l); err != nil {
		return nil, last, 0, err
	}
	return nat, last, allocs, nil
}

// updateLadder times value updates at the three rungs, each alone and
// back to back, alternating two seeded value sets of the served pattern.
func updateLadder(cfg config, s *serving, c *client, tr *tracer, ans *tally, l map[string]float64) error {
	const minUpdates = 3
	rung := cfg.dur / 20
	rng := rand.New(rand.NewSource(cfg.seed ^ 0x7a11))
	sets := []valueSet{rescaled(s.pr.A, rng, "P"), rescaled(s.pr.A, rng, "Q")}
	var httpU, upd, inproc, refac, lib samples
	if err := repeat(minUpdates, rung, func(u int) error {
		d, err := s.swap(c, sets, u, tr, ans)
		httpU.add(d)
		return err
	}); err != nil {
		return err
	}

	reg := s.st.reg
	if err := repeat(minUpdates, rung, func(u int) error {
		vs, b := sets[u%2], s.rhs[u%len(s.rhs)]
		old, err := s.current()
		if err != nil {
			return err
		}
		defer s.retire(old)
		root := tr.begin("update.inproc", -1, 0)
		sp := tr.begin("registry.update_values", root, 0)
		t0 := time.Now()
		err = reg.UpdateValues(matrixID, vs.a.Val)
		upd.add(time.Since(t0))
		tr.end(sp)
		var x []float64
		if err == nil {
			x, err = s.st.inprocSolve(matrixID, b.Data, tr)
		}
		inproc.add(time.Since(t0))
		tr.end(root)
		if err != nil {
			return err
		}
		hit, r := matches(sets, sparse.BlockFromVec(x), b)
		ans.check(len(hit) == 1 && hit[0] == vs.name, "in-process update to %s: matches %v (residuals %v)", vs.name, hit, r)
		return nil
	}); err != nil {
		return err
	}

	h, err := reg.Acquire(matrixID)
	if err != nil {
		return err
	}
	defer h.Release()
	f, like := h.Factor(), h.Server().Solver()
	x := sparse.NewBlock(s.pr.Sym.N, 1)
	if err := repeat(minUpdates, rung, func(u int) error {
		vs, b := sets[u%2], s.rhs[u%len(s.rhs)]
		root := tr.begin("update.lib", -1, 0)
		sp := tr.begin("chol.refactorize", root, 0)
		t0 := time.Now()
		nf, err := f.Refactorize(vs.a)
		refac.add(time.Since(t0))
		tr.end(sp)
		if err != nil {
			tr.end(root)
			return err
		}
		sp = tr.begin("native.newsolverlike", root, 0)
		sv := native.NewSolverLike(nf, like)
		tr.end(sp)
		sp = tr.begin("native.solveinto", root, 0)
		_, err = sv.SolveInto(context.Background(), b, x)
		tr.end(sp)
		lib.add(time.Since(t0))
		tr.end(root)
		sv.Close()
		if err != nil {
			return err
		}
		hit, r := matches(sets, x, b)
		ans.check(len(hit) == 1 && hit[0] == vs.name, "library refactorization to %s: matches %v (residuals %v)", vs.name, hit, r)
		return nil
	}); err != nil {
		return err
	}
	l["registry.update_ms"] = upd.q(0.5)
	l["chol.refactorize_ms"] = refac.q(0.5)
	l["ladder.update_http_ms"] = httpU.q(0.5)
	l["ladder.update_inproc_ms"] = inproc.q(0.5)
	l["ladder.update_lib_ms"] = lib.q(0.5)
	l["ladder.update_transport_self_ms"] = l["ladder.update_http_ms"] - l["ladder.update_inproc_ms"]
	l["ladder.update_registry_self_ms"] = l["ladder.update_inproc_ms"] - l["ladder.update_lib_ms"]
	return nil
}

// mixedRung prices the mixed-precision path on the workload's own
// matrix and RHS width: a float32 solver with the workload's options
// over a fresh factor of the same matrix, the f32 sweep alone, and
// prec.Guard's refined answer.
func mixedRung(cfg config, pr *harness.Prepared, rhs []*sparse.Block, opts native.Options, tr *tracer, ans *tally, l map[string]float64) error {
	f, err := chol.Factorize(pr.A, pr.Sym)
	if err != nil {
		return err
	}
	opts32 := opts
	opts32.Precision = native.PrecisionFloat32
	sv := native.NewSolver(f.Demote(), opts32)
	defer sv.Close()
	guard := prec.NewGuard(pr, opts, tol)
	defer guard.Close()
	var sweep, guarded samples
	var iters, fallbacks int
	var resMax float64
	x := sparse.NewBlock(pr.Sym.N, rhs[0].M)
	var last native.Stats
	if err := repeat(3, cfg.dur/20, func(i int) error {
		b := rhs[i%len(rhs)]
		t0 := time.Now()
		st, err := sv.SolveInto(context.Background(), b, x)
		sweep.add(time.Since(t0))
		if err != nil {
			return err
		}
		last = st
		id := tr.begin("prec.guard_solve", -1, int64(i))
		t0 = time.Now()
		res, err := guard.Solve(context.Background(), sv, b)
		guarded.add(time.Since(t0))
		tr.end(id)
		if err != nil {
			return fmt.Errorf("mixed solve: %w", err)
		}
		r := harness.RelResidual(pr.A, res.X, b)
		ans.check(r <= tol, "mixed rung rhs %d: residual %g (tol %g) on rung %q", i, r, tol, res.Path)
		iters += res.Iters
		if res.Path == harness.PathFloat64Fallback {
			fallbacks++
		}
		resMax = max(resMax, r)
		return nil
	}); err != nil {
		return err
	}
	l["native.f32_sweep_ms"] = sweep.q(0.5)
	l["native.arena_bytes"] += float64(last.AllocBytes)
	last.KernelTasks.Each(func(k string, c int64) { l["native.kernel_tasks."+k] += float64(c) })
	l["prec.guard_ms"] = guarded.q(0.5)
	l["prec.refine_iters_per_block"] = float64(iters) / float64(len(guarded))
	l["prec.fallbacks"] = float64(fallbacks)
	l["prec.residual_max"] = resMax
	return nil
}

// httpLayers reads the transport, registry and serve spans of the traced
// requests. The round trip's self time is the part the handler does not
// cover: client and server net/http plus loopback.
func httpLayers(l map[string]float64, tr *tracer) {
	dur, self := tr.durations(), tr.selfTimes()
	l["transport.encode_us"] = dur["transport.encode"].q(0.5) * 1e3
	l["transport.decode_us"] = dur["transport.decode"].q(0.5) * 1e3
	l["transport.handler_ms"] = dur["transport.handler"].q(0.5)
	l["transport.rtt_ms"] = dur["http.roundtrip"].q(0.5)
	l["transport.net_ms"] = self["http.roundtrip"].q(0.5)
	l["registry.acquire_us"] = dur["registry.acquire"].q(0.5) * 1e3
	l["serve.solve_ms"] = dur["serve.solve"].q(0.5)
}
