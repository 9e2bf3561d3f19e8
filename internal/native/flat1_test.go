package native

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"

	"sptrsv/internal/mesh"
	"sptrsv/internal/sparse"
)

// The tests in this file pin the single-RHS back-substitution kernel's
// fast path — four interleaved partial sums with the zero skip dropped
// while every value they read is finite — against the serial zero-skip
// loop the simulator runs, bit for bit, including the non-finite inputs
// that must fall back to the skip.

// refBackwardSupernode1 is the serial reference for backwardSupernode1
// (and its f32 mirror) after the parent gather: per block, one partial
// sum at a time with the simulator's zero skip, then the block's
// triangular solve.
func refBackwardSupernode1[T float32 | float64](panel []T, ns, t, bsz int, v []float64) {
	for r0 := (t - 1) / bsz * bsz; r0 >= 0; r0 -= bsz {
		r1 := min(r0+bsz, t)
		bw := r1 - r0
		for j := 0; j < bw; j++ {
			col := panel[(r0+j)*ns : (r0+j+1)*ns]
			acc := 0.0
			for li := r1; li < ns; li++ {
				lij := col[li]
				if lij == 0 {
					continue
				}
				acc += float64(lij) * v[li]
			}
			v[r0+j] -= acc
		}
		for j := bw - 1; j >= 0; j-- {
			col := panel[(r0+j)*ns : (r0+j+1)*ns]
			xj := v[r0+j]
			for i := j + 1; i < bw; i++ {
				xj -= float64(col[r0+i]) * v[r0+i]
			}
			v[r0+j] = xj * (1 / float64(col[r0+j]))
		}
	}
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// TestBackwardSupernode1MatchesZeroSkip drives backwardSupernode1 and its
// f32 mirror directly on trapezoids of every width 1..17 — so the last
// backward block takes every width bw = 1..8 and every remainder of the
// four-way interleave — with explicit zeros injected below the diagonal.
// Each shape runs with finite inputs and with a ±Inf/NaN planted in the
// gathered parent rows or in the supernode's own rows; the result must be
// bitwise equal to the zero-skip reference every time, which the
// non-finite cases only meet if the kernel takes the skip path (0·Inf is
// NaN, a skipped zero is not).
func TestBackwardSupernode1MatchesZeroSkip(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for w := 1; w <= 17; w++ {
		h := w + rng.Intn(40)
		f := trapezoidFactor(t, rng, h, w)
		s := -1
		for c := 0; c < f.Sym.NSuper; c++ {
			if f.Sym.Width(c) == w && f.Sym.Height(c) == h {
				s = c
				break
			}
		}
		for j := 0; j < w; j++ {
			for i := j + 1; i < h; i++ {
				if rng.Intn(3) == 0 {
					f.Panels[s][j*h+i] = 0
				}
			}
		}
		for _, prec := range []Precision{PrecisionFloat64, PrecisionFloat32} {
			sv := NewSolver(f, Options{Workers: 1, Precision: prec})
			kernel, ref := sv.backwardSupernode1, func(v []float64) {
				refBackwardSupernode1(f.Panels[s], h, w, sv.shape[s].bsz, v)
			}
			if prec == PrecisionFloat32 {
				kernel, ref = sv.backwardSupernode1F32, func(v []float64) {
					refBackwardSupernode1(f.Panels32[s], h, w, sv.shape[s].bsz, v)
				}
			}
			checkBackward1(t, rng, sv, s, kernel, ref)
			sv.Close()
		}
	}
}

// checkBackward1 runs one supernode's single-RHS backward kernel against
// ref on random inputs, clean and with each non-finite value planted.
func checkBackward1(t *testing.T, rng *rand.Rand, sv *Solver, s int, kernel func(int) error, ref func([]float64)) {
	t.Helper()
	sym := sv.F.Sym
	h, w, j0, par := sym.Height(s), sym.Width(s), sym.Super[s], sym.SParent[s]
	if _, _, err := sv.SolveCtx(context.Background(), mesh.RandomRHS(sym.N, 1, 1)); err != nil {
		t.Fatal(err)
	}
	x := sparse.NewBlock(sym.N, 1)
	sv.cur.x, sv.cur.m = x, 1
	defer func() { sv.cur.x = nil }()
	for _, poison := range []float64{0, math.Inf(1), math.Inf(-1), math.NaN()} { // 0: none
		v := sv.arena.bufs[s]
		for i := range v {
			v[i] = rng.NormFloat64()
		}
		if par >= 0 {
			for i := range sv.arena.bufs[par] {
				sv.arena.bufs[par][i] = rng.NormFloat64()
			}
		}
		if poison != 0 {
			if k := rng.Intn(h); k < w || par < 0 {
				v[k%w] = poison
			} else {
				sv.arena.bufs[par][sv.parentPos[s][k-w]] = poison
			}
		}
		want := append([]float64(nil), v...)
		if par >= 0 {
			for i, pos := range sv.parentPos[s] {
				want[w+i] = sv.arena.bufs[par][pos]
			}
		}
		ref(want)
		if err := kernel(s); err != nil {
			t.Fatalf("%d×%d %s poison=%v: %v", h, w, sv.precision, poison, err)
		}
		for i := range want {
			if !sameBits(v[i], want[i]) {
				t.Fatalf("%d×%d %s poison=%v: v[%d] = %v, zero-skip reference %v", h, w, sv.precision, poison, i, v[i], want[i])
			}
		}
		for j := 0; j < w; j++ {
			if !sameBits(x.Data[j0+j], want[j]) {
				t.Fatalf("%d×%d %s poison=%v: x[%d] not scattered from v", h, w, sv.precision, poison, j0+j)
			}
		}
	}
}

// TestNonFiniteRHSBreakdownMatchesSimulator solves right-hand sides
// carrying +Inf, -Inf and NaN on an amalgamated grid (whose rectangles
// hold explicit zeros): the native solve must fail with the *BreakdownError
// the simulator's p=1 solution scan yields — same supernode, column and
// value bits — and leave that same solution behind, at one worker and
// through the pool.
func TestNonFiniteRHSBreakdownMatchesSimulator(t *testing.T) {
	_, f := setupAmalgamated(t, grid2DProblem(31, 31))
	for _, bad := range []float64{math.Inf(1), math.Inf(-1), math.NaN()} {
		b := mesh.RandomRHS(f.Sym.N, 1, 5)
		b.Data[f.Sym.N/3] = bad
		sim := simulatorP1Solve(t, f, b)
		var want *BreakdownError
		if !errors.As(f.ScanFinite(sim), &want) {
			t.Fatalf("rhs %v: simulator solution is finite; the test needs a breakdown", bad)
		}
		for _, workers := range []int{1, 2} {
			sv := NewSolver(f, Options{Workers: workers})
			x := sparse.NewBlock(f.Sym.N, 1)
			_, err := sv.SolveInto(context.Background(), b, x)
			sv.Close()
			var got *BreakdownError
			if !errors.As(err, &got) {
				t.Fatalf("rhs %v workers=%d: err = %v, want *BreakdownError", bad, workers, err)
			}
			if got.Supernode != want.Supernode || got.Column != want.Column || !sameBits(got.Pivot, want.Pivot) {
				t.Fatalf("rhs %v workers=%d: got %v, simulator scan %v", bad, workers, got, want)
			}
			for i, v := range x.Data {
				if !sameBits(v, sim.Data[i]) {
					t.Fatalf("rhs %v workers=%d: x[%d] = %v, simulator %v", bad, workers, i, v, sim.Data[i])
				}
			}
		}
	}
}

// BenchmarkFlat1Sweeps times the warm single-RHS forward and backward
// sweeps separately on GRID2D-127 (amalgamated, one worker: the flat
// kernels and the sequential task walk, no pool) and reports ns per
// factor entry — the figure a kernel change moves. A/B two builds with
//
//	go test -run=NONE -bench=Flat1Sweeps -count=10 ./internal/native
func BenchmarkFlat1Sweeps(b *testing.B) {
	_, f := setupAmalgamated(b, grid2DProblem(127, 127))
	sv := NewSolver(f, Options{Workers: 1})
	defer sv.Close()
	rhs := mesh.RandomRHS(f.Sym.N, 1, 1)
	x := sparse.NewBlock(f.Sym.N, 1)
	ctx := context.Background()
	if _, err := sv.SolveInto(ctx, rhs, x); err != nil {
		b.Fatal(err)
	}
	sv.cur.b, sv.cur.x, sv.cur.m = rhs, x, 1
	defer func() { sv.cur.b, sv.cur.x = nil, nil }()
	perEntry := func(b *testing.B) {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/(float64(b.N)*float64(f.Sym.NnzL)), "ns/entry")
	}
	b.Run("forward", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if err := sv.runSweep(ctx, ForwardPhase); err != nil {
				b.Fatal(err)
			}
		}
		perEntry(b)
	})
	// Every backward pass starts from the same forward result.
	if err := sv.runSweep(ctx, ForwardPhase); err != nil {
		b.Fatal(err)
	}
	fwd := append([]float64(nil), sv.arena.slab...)
	b.Run("backward", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			copy(sv.arena.slab, fwd)
			b.StartTimer()
			if err := sv.runSweep(ctx, BackwardPhase); err != nil {
				b.Fatal(err)
			}
		}
		perEntry(b)
	})
}
