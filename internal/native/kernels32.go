package native

import (
	"sptrsv/internal/chol"
)

// This file holds the float32-plane sweep kernels: one mirror per
// float64 kernel (kernels.go, kernels_tiled.go), reading the factor's
// Panels32 trapezoids instead of Panels. Storage is float32, arithmetic
// is float64 — every panel element is widened as it is loaded
// (float64(col[i]) compiles to a single CVTSS2SD on amd64), and the
// right-hand-side / solution buffers stay float64 in the shared arena.
// The sweeps are memory-bandwidth-bound, so halving the panel bytes is
// the whole speedup; the widened arithmetic keeps the only rounding
// introduced to the one storage rounding per factor entry, which is what
// the refinement contraction bound in internal/prec relies on.
//
// Structure is copied line for line from the float64 kernels: same
// ascending-column forward order with reciprocal scaling, same blocked
// descending backward partial sums with the simulator's zero skip (the
// single-RHS sums are one shared generic helper, backwardSums1), same
// tile/strip geometry, and the shared gather/scatter prologues are
// reused verbatim (they touch only arena buffers, never the panels).
// The float64 kernels stay byte-for-byte untouched, preserving their
// bitwise-identity guarantee.
//
// Pivot guards test the widened float32 value — the number the sweep
// actually divides by. A pivot that underflows to zero in the demotion
// is therefore caught here even though the float64 plane was fine.

// forwardSupernode1F32 mirrors forwardSupernode1 on the f32 plane.
func (sv *Solver) forwardSupernode1F32(s int) error {
	sym := sv.F.Sym
	ns := sym.Height(s)
	t := sym.Width(s)
	j0 := sym.Super[s]
	panel := sv.F.Panels32[s]
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
		piv := float64(col[j])
		if chol.BadPivot(piv) {
			return &BreakdownError{Supernode: s, Column: j0 + j, Pivot: piv}
		}
		xj := v[j] * (1 / piv)
		v[j] = xj
		for i := j + 1; i < ns; i++ {
			v[i] -= float64(col[i]) * xj
		}
	}
	return nil
}

// forwardSupernodeMF32 mirrors forwardSupernodeM on the f32 plane.
func (sv *Solver) forwardSupernodeMF32(s int) error {
	sym := sv.F.Sym
	ns := sym.Height(s)
	t := sym.Width(s)
	j0 := sym.Super[s]
	m := sv.cur.m
	panel := sv.F.Panels32[s]
	v := sv.arena.bufs[s]
	clear(v) // the task owns this buffer; accumulation below starts from zero
	sv.gatherForwardM(s, t, j0, m, v)
	for j := 0; j < t; j++ {
		col := panel[j*ns : (j+1)*ns]
		xj := v[j*m : (j+1)*m : (j+1)*m]
		piv := float64(col[j])
		if chol.BadPivot(piv) {
			return &BreakdownError{Supernode: s, Column: j0 + j, Pivot: piv}
		}
		inv := 1 / piv
		for c := range xj {
			xj[c] *= inv
		}
		for i := j + 1; i < ns; i++ {
			lij := float64(col[i])
			dst := v[i*m : (i+1)*m : (i+1)*m]
			for c := range dst {
				dst[c] -= lij * xj[c]
			}
		}
	}
	return nil
}

// backwardSupernode1F32 mirrors backwardSupernode1 on the f32 plane.
func (sv *Solver) backwardSupernode1F32(s int) error {
	sym := sv.F.Sym
	ns := sym.Height(s)
	t := sym.Width(s)
	j0 := sym.Super[s]
	panel := sv.F.Panels32[s]
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
				xj -= float64(col[r0+i]) * v[r0+i]
			}
			piv := float64(col[r0+j])
			if chol.BadPivot(piv) {
				return &BreakdownError{Supernode: s, Column: j0 + r0 + j, Pivot: piv}
			}
			v[r0+j] = xj * (1 / piv)
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

// backwardSupernodeMF32 mirrors backwardSupernodeM on the f32 plane.
func (sv *Solver) backwardSupernodeMF32(s, w int) error {
	sym := sv.F.Sym
	ns := sym.Height(s)
	t := sym.Width(s)
	j0 := sym.Super[s]
	m := sv.cur.m
	panel := sv.F.Panels32[s]
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
				w64 := float64(lij)
				src := v[li*m : (li+1)*m : (li+1)*m]
				for c := range aj {
					aj[c] += w64 * src[c]
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
				lij := float64(col[r0+i])
				xi := xk[i*m : (i+1)*m : (i+1)*m]
				for c := range xj {
					xj[c] -= lij * xi[c]
				}
			}
			piv := float64(col[r0+j])
			if chol.BadPivot(piv) {
				return &BreakdownError{Supernode: s, Column: j0 + r0 + j, Pivot: piv}
			}
			inv := 1 / piv
			for c := range xj {
				xj[c] *= inv
			}
		}
	}
	sv.scatterBackwardM(j0, t, m, v)
	return nil
}

// forwardSupernodeTiledF32 mirrors forwardSupernodeTiled on the f32
// plane.
func (sv *Solver) forwardSupernodeTiledF32(s int) error {
	sym := sv.F.Sym
	ns := sym.Height(s)
	t := sym.Width(s)
	j0 := sym.Super[s]
	m := sv.cur.m
	panel := sv.F.Panels32[s]
	v := sv.arena.bufs[s]
	clear(v) // the task owns this buffer; accumulation below starts from zero
	sv.gatherForwardM(s, t, j0, m, v)
	c0 := 0
	for ; c0+tileW <= m; c0 += tileW {
		for j := 0; j < t; j++ {
			col := panel[j*ns : (j+1)*ns]
			piv := float64(col[j])
			if chol.BadPivot(piv) {
				return &BreakdownError{Supernode: s, Column: j0 + j, Pivot: piv}
			}
			inv := 1 / piv
			o := j*m + c0
			xj := v[o : o+tileW : o+tileW]
			x0 := xj[0] * inv
			x1 := xj[1] * inv
			x2 := xj[2] * inv
			x3 := xj[3] * inv
			xj[0], xj[1], xj[2], xj[3] = x0, x1, x2, x3
			for i := j + 1; i < ns; i++ {
				lij := float64(col[i])
				oi := i*m + c0
				vi := v[oi : oi+tileW : oi+tileW]
				vi[0] -= lij * x0
				vi[1] -= lij * x1
				vi[2] -= lij * x2
				vi[3] -= lij * x3
			}
		}
	}
	return sv.forwardTailFromF32(s, c0)
}

// forwardSupernodeTiledTallF32 mirrors forwardSupernodeTiledTall on the
// f32 plane.
func (sv *Solver) forwardSupernodeTiledTallF32(s int) error {
	sym := sv.F.Sym
	ns := sym.Height(s)
	t := sym.Width(s)
	j0 := sym.Super[s]
	m := sv.cur.m
	panel := sv.F.Panels32[s]
	v := sv.arena.bufs[s]
	clear(v) // the task owns this buffer; accumulation below starts from zero
	sv.gatherForwardM(s, t, j0, m, v)
	strip := sv.shape[s].strip
	c0 := 0
	for ; c0+tileW <= m; c0 += tileW {
		for j := 0; j < t; j++ {
			col := panel[j*ns : (j+1)*ns]
			piv := float64(col[j])
			if chol.BadPivot(piv) {
				return &BreakdownError{Supernode: s, Column: j0 + j, Pivot: piv}
			}
			inv := 1 / piv
			o := j*m + c0
			xj := v[o : o+tileW : o+tileW]
			x0 := xj[0] * inv
			x1 := xj[1] * inv
			x2 := xj[2] * inv
			x3 := xj[3] * inv
			xj[0], xj[1], xj[2], xj[3] = x0, x1, x2, x3
			for i := j + 1; i < t; i++ {
				lij := float64(col[i])
				oi := i*m + c0
				vi := v[oi : oi+tileW : oi+tileW]
				vi[0] -= lij * x0
				vi[1] -= lij * x1
				vi[2] -= lij * x2
				vi[3] -= lij * x3
			}
		}
		for r0 := t; r0 < ns; r0 += strip {
			r1 := r0 + strip
			if r1 > ns {
				r1 = ns
			}
			for j := 0; j < t; j++ {
				col := panel[j*ns : (j+1)*ns]
				o := j*m + c0
				xj := v[o : o+tileW : o+tileW]
				x0 := xj[0]
				x1 := xj[1]
				x2 := xj[2]
				x3 := xj[3]
				for i := r0; i < r1; i++ {
					lij := float64(col[i])
					oi := i*m + c0
					vi := v[oi : oi+tileW : oi+tileW]
					vi[0] -= lij * x0
					vi[1] -= lij * x1
					vi[2] -= lij * x2
					vi[3] -= lij * x3
				}
			}
		}
	}
	return sv.forwardTailFromF32(s, c0)
}

// forwardTailFromF32 mirrors forwardTailFrom on the f32 plane.
func (sv *Solver) forwardTailFromF32(s, c0 int) error {
	sym := sv.F.Sym
	ns := sym.Height(s)
	t := sym.Width(s)
	j0 := sym.Super[s]
	m := sv.cur.m
	panel := sv.F.Panels32[s]
	v := sv.arena.bufs[s]
	for ; c0 < m; c0++ {
		for j := 0; j < t; j++ {
			col := panel[j*ns : (j+1)*ns]
			piv := float64(col[j])
			if chol.BadPivot(piv) {
				return &BreakdownError{Supernode: s, Column: j0 + j, Pivot: piv}
			}
			xj := v[j*m+c0] * (1 / piv)
			v[j*m+c0] = xj
			for i := j + 1; i < ns; i++ {
				v[i*m+c0] -= float64(col[i]) * xj
			}
		}
	}
	return nil
}

// backwardSupernodeTiledF32 mirrors backwardSupernodeTiled on the f32
// plane.
func (sv *Solver) backwardSupernodeTiledF32(s int) error {
	sym := sv.F.Sym
	ns := sym.Height(s)
	t := sym.Width(s)
	j0 := sym.Super[s]
	m := sv.cur.m
	panel := sv.F.Panels32[s]
	v := sv.arena.bufs[s]
	sv.gatherBackwardM(s, t, m, v)
	bsz := sv.shape[s].bsz // the simulator's p=1 blocking
	tb := (t + bsz - 1) / bsz
	c0 := 0
	for ; c0+tileW <= m; c0 += tileW {
		for k := tb - 1; k >= 0; k-- {
			r0 := k * bsz
			r1 := r0 + bsz
			if r1 > t {
				r1 = t
			}
			bw := r1 - r0
			for j := 0; j < bw; j++ {
				col := panel[(r0+j)*ns : (r0+j+1)*ns]
				var a0, a1, a2, a3 float64
				for li := r1; li < ns; li++ {
					lij := col[li]
					if lij == 0 {
						continue
					}
					w64 := float64(lij)
					oi := li*m + c0
					vi := v[oi : oi+tileW : oi+tileW]
					a0 += w64 * vi[0]
					a1 += w64 * vi[1]
					a2 += w64 * vi[2]
					a3 += w64 * vi[3]
				}
				o := (r0+j)*m + c0
				xj := v[o : o+tileW : o+tileW]
				xj[0] -= a0
				xj[1] -= a1
				xj[2] -= a2
				xj[3] -= a3
			}
			if err := sv.backwardBlockSubstTileF32(s, j0, r0, bw, c0); err != nil {
				return err
			}
		}
	}
	if err := sv.backwardTailFromF32(s, c0); err != nil {
		return err
	}
	sv.scatterBackwardM(j0, t, m, v)
	return nil
}

// backwardSupernodeTiledTallF32 mirrors backwardSupernodeTiledTall on
// the f32 plane.
func (sv *Solver) backwardSupernodeTiledTallF32(s, w int) error {
	sym := sv.F.Sym
	ns := sym.Height(s)
	t := sym.Width(s)
	j0 := sym.Super[s]
	m := sv.cur.m
	panel := sv.F.Panels32[s]
	v := sv.arena.bufs[s]
	sv.gatherBackwardM(s, t, m, v)
	bsz := sv.shape[s].bsz // the simulator's p=1 blocking
	strip := sv.shape[s].strip
	tb := (t + bsz - 1) / bsz
	c0 := 0
	for ; c0+tileW <= m; c0 += tileW {
		for k := tb - 1; k >= 0; k-- {
			r0 := k * bsz
			r1 := r0 + bsz
			if r1 > t {
				r1 = t
			}
			bw := r1 - r0
			// bw*tileW <= b*m holds here because this loop requires m >= tileW.
			acc := sv.arena.scratch[w][: bw*tileW : bw*tileW]
			clear(acc)
			for lr0 := r1; lr0 < ns; lr0 += strip {
				lr1 := lr0 + strip
				if lr1 > ns {
					lr1 = ns
				}
				for j := 0; j < bw; j++ {
					col := panel[(r0+j)*ns : (r0+j+1)*ns]
					aj := acc[j*tileW : (j+1)*tileW : (j+1)*tileW]
					a0 := aj[0]
					a1 := aj[1]
					a2 := aj[2]
					a3 := aj[3]
					for li := lr0; li < lr1; li++ {
						lij := col[li]
						if lij == 0 {
							continue
						}
						w64 := float64(lij)
						oi := li*m + c0
						vi := v[oi : oi+tileW : oi+tileW]
						a0 += w64 * vi[0]
						a1 += w64 * vi[1]
						a2 += w64 * vi[2]
						a3 += w64 * vi[3]
					}
					aj[0], aj[1], aj[2], aj[3] = a0, a1, a2, a3
				}
			}
			for j := 0; j < bw; j++ {
				o := (r0+j)*m + c0
				aj := acc[j*tileW : (j+1)*tileW : (j+1)*tileW]
				xj := v[o : o+tileW : o+tileW]
				xj[0] -= aj[0]
				xj[1] -= aj[1]
				xj[2] -= aj[2]
				xj[3] -= aj[3]
			}
			if err := sv.backwardBlockSubstTileF32(s, j0, r0, bw, c0); err != nil {
				return err
			}
		}
	}
	if err := sv.backwardTailFromF32(s, c0); err != nil {
		return err
	}
	sv.scatterBackwardM(j0, t, m, v)
	return nil
}

// backwardBlockSubstTileF32 mirrors backwardBlockSubstTile on the f32
// plane.
func (sv *Solver) backwardBlockSubstTileF32(s, j0, r0, bw, c0 int) error {
	sym := sv.F.Sym
	ns := sym.Height(s)
	m := sv.cur.m
	panel := sv.F.Panels32[s]
	v := sv.arena.bufs[s]
	for j := bw - 1; j >= 0; j-- {
		col := panel[(r0+j)*ns : (r0+j+1)*ns]
		o := (r0+j)*m + c0
		xj := v[o : o+tileW : o+tileW]
		x0 := xj[0]
		x1 := xj[1]
		x2 := xj[2]
		x3 := xj[3]
		for i := j + 1; i < bw; i++ {
			lij := float64(col[r0+i])
			oi := (r0+i)*m + c0
			xi := v[oi : oi+tileW : oi+tileW]
			x0 -= lij * xi[0]
			x1 -= lij * xi[1]
			x2 -= lij * xi[2]
			x3 -= lij * xi[3]
		}
		piv := float64(col[r0+j])
		if chol.BadPivot(piv) {
			return &BreakdownError{Supernode: s, Column: j0 + r0 + j, Pivot: piv}
		}
		inv := 1 / piv
		xj[0] = x0 * inv
		xj[1] = x1 * inv
		xj[2] = x2 * inv
		xj[3] = x3 * inv
	}
	return nil
}

// backwardTailFromF32 mirrors backwardTailFrom on the f32 plane.
func (sv *Solver) backwardTailFromF32(s, c0 int) error {
	sym := sv.F.Sym
	ns := sym.Height(s)
	t := sym.Width(s)
	j0 := sym.Super[s]
	m := sv.cur.m
	panel := sv.F.Panels32[s]
	v := sv.arena.bufs[s]
	bsz := sv.shape[s].bsz
	tb := (t + bsz - 1) / bsz
	for ; c0 < m; c0++ {
		for k := tb - 1; k >= 0; k-- {
			r0 := k * bsz
			r1 := r0 + bsz
			if r1 > t {
				r1 = t
			}
			bw := r1 - r0
			for j := 0; j < bw; j++ {
				col := panel[(r0+j)*ns : (r0+j+1)*ns]
				acc := 0.0
				for li := r1; li < ns; li++ {
					lij := col[li]
					if lij == 0 {
						continue
					}
					acc += float64(lij) * v[li*m+c0]
				}
				v[(r0+j)*m+c0] -= acc
			}
			for j := bw - 1; j >= 0; j-- {
				col := panel[(r0+j)*ns : (r0+j+1)*ns]
				xj := v[(r0+j)*m+c0]
				for i := j + 1; i < bw; i++ {
					xj -= float64(col[r0+i]) * v[(r0+i)*m+c0]
				}
				piv := float64(col[r0+j])
				if chol.BadPivot(piv) {
					return &BreakdownError{Supernode: s, Column: j0 + r0 + j, Pivot: piv}
				}
				v[(r0+j)*m+c0] = xj * (1 / piv)
			}
		}
	}
	return nil
}
