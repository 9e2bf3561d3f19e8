package native

import (
	"sptrsv/internal/chol"
)

// This file holds the dense numeric kernels, one specialization per RHS
// shape: the m==1 sweeps work on flat vectors with no inner RHS loop,
// the multi-RHS sweeps hoist their row subslices once per row with full
// capacity caps. Every variant performs exactly the same floating-point
// operations in the same order as the simulator's p=1 pipeline — children
// ascending, then RHS, then columns ascending with reciprocal scaling
// forward; blocked descending partial sums with the zero skip backward —
// so the solution stays bitwise identical across kernels, grain values,
// and worker counts.

// forwardSupernode1 is the single-RHS forward-elimination task body:
// gather finished children, add the right-hand side, run the trapezoid
// sweep — all on flat vectors.
func (sv *Solver) forwardSupernode1(s int) error {
	sym := sv.F.Sym
	ns := sym.Height(s)
	t := sym.Width(s)
	j0 := sym.Super[s]
	panel := sv.F.Panels[s]
	v := sv.arena.bufs[s]
	clear(v) // the task owns this buffer; accumulation below starts from zero
	for _, c := range sym.SChildren[s] {
		cv := sv.arena.bufs[c]
		tc := sym.Width(c)
		for i, pos := range sv.parentPos[c] {
			v[pos] += cv[tc+i]
		}
	}
	bd := sv.cur.b.Data
	for j := 0; j < t; j++ {
		v[j] += bd[j0+j]
	}
	for j := 0; j < t; j++ {
		col := panel[j*ns : (j+1)*ns]
		if chol.BadPivot(col[j]) {
			return &BreakdownError{Supernode: s, Column: j0 + j, Pivot: col[j]}
		}
		xj := v[j] * (1 / col[j])
		v[j] = xj
		for i := j + 1; i < ns; i++ {
			v[i] -= col[i] * xj
		}
	}
	return nil
}

// forwardSupernodeM is the multi-RHS forward-elimination task body, with
// row subslices hoisted out of the inner RHS loops.
func (sv *Solver) forwardSupernodeM(s int) error {
	sym := sv.F.Sym
	ns := sym.Height(s)
	t := sym.Width(s)
	j0 := sym.Super[s]
	m := sv.cur.m
	panel := sv.F.Panels[s]
	v := sv.arena.bufs[s]
	clear(v) // the task owns this buffer; accumulation below starts from zero
	sv.gatherForwardM(s, t, j0, m, v)
	for j := 0; j < t; j++ {
		col := panel[j*ns : (j+1)*ns]
		xj := v[j*m : (j+1)*m : (j+1)*m]
		if chol.BadPivot(col[j]) {
			return &BreakdownError{Supernode: s, Column: j0 + j, Pivot: col[j]}
		}
		inv := 1 / col[j]
		for c := range xj {
			xj[c] *= inv
		}
		for i := j + 1; i < ns; i++ {
			lij := col[i]
			dst := v[i*m : (i+1)*m : (i+1)*m]
			for c := range dst {
				dst[c] -= lij * xj[c]
			}
		}
	}
	return nil
}

// backwardSupernode1 is the single-RHS back-substitution task body. The
// blocked structure (width, descending block order, per-block partial
// sums with the simulator's zero skip) is the generic kernel's; with one
// RHS the partial sums live in registers, so no accumulator buffer is
// needed — each v[r0+j] subtraction reads only rows at or beyond the
// block end, which later scaling never touches, keeping the operation
// order per element identical to the buffered variant.
func (sv *Solver) backwardSupernode1(s int) error {
	sym := sv.F.Sym
	ns := sym.Height(s)
	t := sym.Width(s)
	j0 := sym.Super[s]
	panel := sv.F.Panels[s]
	v := sv.arena.bufs[s]
	if par := sym.SParent[s]; par >= 0 {
		pv := sv.arena.bufs[par]
		for i, pos := range sv.parentPos[s] {
			v[t+i] = pv[pos]
		}
	}
	finite := allFinite(v[t:ns])
	bsz := sv.shape[s].bsz // the simulator's p=1 blocking, hoisted to NewSolver
	tb := (t + bsz - 1) / bsz
	for k := tb - 1; k >= 0; k-- {
		r0 := k * bsz
		r1 := r0 + bsz
		if r1 > t {
			r1 = t
		}
		bw := r1 - r0
		backwardSums1(panel, ns, r0, r1, v, finite)
		for j := bw - 1; j >= 0; j-- {
			col := panel[(r0+j)*ns : (r0+j+1)*ns]
			xj := v[r0+j]
			for i := j + 1; i < bw; i++ {
				xj -= col[r0+i] * v[r0+i]
			}
			if chol.BadPivot(col[r0+j]) {
				return &BreakdownError{Supernode: s, Column: j0 + r0 + j, Pivot: col[r0+j]}
			}
			v[r0+j] = xj * (1 / col[r0+j])
		}
		// the next block's sums also read the rows just solved
		finite = finite && allFinite(v[r0:r1])
	}
	xd := sv.cur.x.Data
	for j := 0; j < t; j++ {
		xd[j0+j] = v[j]
	}
	return nil
}

// backwardSums1 subtracts from each v[j], r0 ≤ j < r1, the back-
// substitution partial sum acc_j = Σ L[li,j]·v[li] over li = r1..ns-1 in
// ascending li order, panel being one supernode's trapezoid (column-major,
// leading dimension ns) in either storage precision. The sums are
// independent, so four run interleaved in one pass over v[r1:ns] — four
// FP-add chains in flight instead of one serial chain — and the
// remainder one at a time; each sum still accumulates in ascending row
// order from +0, so every acc_j is bitwise the serial one.
//
// The simulator skips zero entries (lij == 0 → no add). When finite
// reports that every v[li] the sums read is finite, the skip is dropped
// without changing a bit: acc starts at +0 and, under round-to-nearest,
// an addition returns −0 only when both operands are −0, so acc is never
// −0; for finite v[li], 0·v[li] is ±0, and adding ±0 to any acc other
// than −0 returns acc unchanged (NaN and ±Inf included). The loop then
// has no data-dependent branch — amalgamation leaves ~9% explicit zeros
// scattered through the rectangles, an unpredictable branch per entry.
// A non-finite v[li] would turn 0·v[li] into NaN, so then the exact
// zero-skip loop runs instead.
func backwardSums1[T float32 | float64](panel []T, ns, r0, r1 int, v []float64, finite bool) {
	src := v[r1:ns]
	if !finite {
		for j := r0; j < r1; j++ {
			col := panel[j*ns+r1 : (j+1)*ns]
			col = col[:len(src)]
			acc := 0.0
			for i, x := range src {
				lij := col[i]
				if lij == 0 {
					continue
				}
				acc += float64(lij) * x
			}
			v[j] -= acc
		}
		return
	}
	j := r0
	for ; j+4 <= r1; j += 4 {
		c0 := panel[j*ns+r1 : (j+1)*ns]
		c1 := panel[(j+1)*ns+r1 : (j+2)*ns]
		c2 := panel[(j+2)*ns+r1 : (j+3)*ns]
		c3 := panel[(j+3)*ns+r1 : (j+4)*ns]
		c0, c1, c2, c3 = c0[:len(src)], c1[:len(src)], c2[:len(src)], c3[:len(src)]
		a0, a1, a2, a3 := 0.0, 0.0, 0.0, 0.0
		for i, x := range src {
			a0 += float64(c0[i]) * x
			a1 += float64(c1[i]) * x
			a2 += float64(c2[i]) * x
			a3 += float64(c3[i]) * x
		}
		v[j] -= a0
		v[j+1] -= a1
		v[j+2] -= a2
		v[j+3] -= a3
	}
	for ; j < r1; j++ {
		col := panel[j*ns+r1 : (j+1)*ns]
		col = col[:len(src)]
		acc := 0.0
		for i, x := range src {
			acc += float64(col[i]) * x
		}
		v[j] -= acc
	}
}

// allFinite reports whether every element of xs is finite (x−x is 0 for
// finite x and NaN for ±Inf and NaN).
func allFinite(xs []float64) bool {
	for _, x := range xs {
		if x-x != 0 {
			return false
		}
	}
	return true
}

// backwardSupernodeM is the multi-RHS back-substitution task body. The
// per-block partial-sum accumulator comes from worker w's arena scratch
// instead of a per-block make — the allocation that used to sit inside
// the innermost scheduling unit.
func (sv *Solver) backwardSupernodeM(s, w int) error {
	sym := sv.F.Sym
	ns := sym.Height(s)
	t := sym.Width(s)
	j0 := sym.Super[s]
	m := sv.cur.m
	panel := sv.F.Panels[s]
	v := sv.arena.bufs[s]
	sv.gatherBackwardM(s, t, m, v)
	bsz := sv.shape[s].bsz // the simulator's p=1 blocking, hoisted to NewSolver
	tb := (t + bsz - 1) / bsz
	for k := tb - 1; k >= 0; k-- {
		r0 := k * bsz
		r1 := r0 + bsz
		if r1 > t {
			r1 = t
		}
		bw := r1 - r0
		acc := sv.arena.scratch[w][: bw*m : bw*m]
		clear(acc)
		for j := 0; j < bw; j++ {
			col := panel[(r0+j)*ns : (r0+j+1)*ns]
			aj := acc[j*m : (j+1)*m : (j+1)*m]
			for li := r1; li < ns; li++ {
				lij := col[li]
				if lij == 0 {
					continue
				}
				src := v[li*m : (li+1)*m : (li+1)*m]
				for c := range aj {
					aj[c] += lij * src[c]
				}
			}
		}
		xk := v[r0*m : r1*m]
		for i := range acc {
			xk[i] -= acc[i]
		}
		for j := bw - 1; j >= 0; j-- {
			col := panel[(r0+j)*ns : (r0+j+1)*ns]
			xj := xk[j*m : (j+1)*m : (j+1)*m]
			for i := j + 1; i < bw; i++ {
				lij := col[r0+i]
				xi := xk[i*m : (i+1)*m : (i+1)*m]
				for c := range xj {
					xj[c] -= lij * xi[c]
				}
			}
			if chol.BadPivot(col[r0+j]) {
				return &BreakdownError{Supernode: s, Column: j0 + r0 + j, Pivot: col[r0+j]}
			}
			inv := 1 / col[r0+j]
			for c := range xj {
				xj[c] *= inv
			}
		}
	}
	sv.scatterBackwardM(j0, t, m, v)
	return nil
}
