package chol

import (
	"fmt"
	"slices"

	"sptrsv/internal/dense"
	"sptrsv/internal/sparse"
)

// This file implements the numeric refactorization fast path: rebuilding
// the factor's values from a new matrix with the *same sparsity pattern*,
// skipping ordering and symbolic analysis entirely. This is the
// transient-simulation workload (circuit/time-stepping codes re-factor one
// pattern with new values thousands of times): the symbolic structure,
// elimination tree, and supernode partition are all invariant, so the only
// work left is the dense numeric kernels. Refactorize precomputes every
// index computation of the multifrontal assembly once into a plan (scatter
// maps for original entries and child extend-adds, a static multifrontal
// update stack layout) and replays it allocation-lean on each call, so the
// cost approaches the PartialCholesky kernels alone.

// PatternError reports a matrix whose sparsity pattern is incompatible
// with the factor's symbolic analysis: a refactorization (or initial
// factorization) was asked to place a nonzero the symbolic pattern cannot
// hold. Callers match it with errors.As to distinguish "re-run the full
// ingest pipeline" from numerical breakdown.
type PatternError struct {
	// Reason is "dim" (matrix size differs from the symbolic size) or
	// "entry" (a nonzero falls outside its supernode's row pattern).
	Reason string
	// Row, Col locate the offending entry and Super its supernode when
	// Reason == "entry".
	Row, Col, Super int
	// Got, Want carry the mismatched sizes when Reason == "dim".
	Got, Want int
}

func (e *PatternError) Error() string {
	if e.Reason == "dim" {
		return fmt.Sprintf("chol: pattern mismatch: matrix size %d != symbolic size %d", e.Got, e.Want)
	}
	return fmt.Sprintf("chol: pattern mismatch: A(%d,%d) outside supernode %d pattern", e.Row, e.Col, e.Super)
}

// refactorPlan caches every index computation of the multifrontal
// traversal for one (symbolic structure, matrix pattern) pair. It is
// immutable once built and shared by every Factor descended from the same
// Refactorize chain; the mutable frontal/update workspace lives in the
// per-call refactorization, never here.
type refactorPlan struct {
	colPtr []int // the A pattern the plan was built against
	rowIdx []int
	// asm[p] is the front-local index (lj·ns + fi) where original-matrix
	// nonzero p of A scatters, aligned with A.Val.
	asm []int32
	// ext[s] lists, child by child in SChildren[s] order, the front-local
	// target index of each child update entry, in the (cj, ci≥cj) order
	// the update slab is read.
	ext [][]int32
	// updOff[s] is the offset of supernode s's update matrix in the
	// multifrontal stack slab; updStack is the slab's total (peak) size
	// and maxFront the largest ns² front.
	updOff   []int
	updStack int
	maxFront int
}

// samePattern reports whether a's pattern is the one the plan was built
// against, with an O(1) pointer fast path for the value-swap case where
// the caller shares the index slices of the original matrix.
func (pl *refactorPlan) samePattern(a *sparse.SymCSC) bool {
	if len(a.ColPtr) == len(pl.colPtr) && len(a.RowIdx) == len(pl.rowIdx) &&
		(len(a.ColPtr) == 0 || &a.ColPtr[0] == &pl.colPtr[0]) &&
		(len(a.RowIdx) == 0 || &a.RowIdx[0] == &pl.rowIdx[0]) {
		return true
	}
	return slices.Equal(a.ColPtr, pl.colPtr) && slices.Equal(a.RowIdx, pl.rowIdx)
}

// buildRefactorPlan walks the supernodal tree once, validating a's pattern
// against the symbolic structure and recording every scatter index the
// numeric traversal will need.
func (f *Factor) buildRefactorPlan(a *sparse.SymCSC) (*refactorPlan, error) {
	sym := f.Sym
	if a.N != sym.N {
		return nil, &PatternError{Reason: "dim", Got: a.N, Want: sym.N}
	}
	pl := &refactorPlan{
		colPtr: a.ColPtr,
		rowIdx: a.RowIdx,
		asm:    make([]int32, len(a.RowIdx)),
		ext:    make([][]int32, sym.NSuper),
		updOff: make([]int, sym.NSuper),
	}
	pos := make([]int, sym.N)
	for i := range pos {
		pos[i] = -1
	}
	top := 0
	for s := 0; s < sym.NSuper; s++ {
		rows := sym.Rows[s]
		ns := len(rows)
		t := sym.Width(s)
		j0 := sym.Super[s]
		if ns*ns > pl.maxFront {
			pl.maxFront = ns * ns
		}
		for k, r := range rows {
			pos[r] = k
		}
		for j := j0; j < j0+t; j++ {
			lj := j - j0
			for p := a.ColPtr[j]; p < a.ColPtr[j+1]; p++ {
				i := a.RowIdx[p]
				fi := pos[i]
				if fi < 0 {
					return nil, &PatternError{Reason: "entry", Row: i, Col: j, Super: s}
				}
				pl.asm[p] = int32(lj*ns + fi)
			}
		}
		// Child updates obey multifrontal stack discipline under the
		// postorder traversal: when s is reached, its children's updates
		// are the top of the stack, lowest-numbered child deepest.
		var ext []int32
		for _, c := range sym.SChildren[s] {
			tc := sym.Width(c)
			crows := sym.Rows[c][tc:]
			nu := len(crows)
			for cj := 0; cj < nu; cj++ {
				fj := pos[crows[cj]]
				for ci := cj; ci < nu; ci++ {
					ext = append(ext, int32(fj*ns+pos[crows[ci]]))
				}
			}
		}
		pl.ext[s] = ext
		if ch := sym.SChildren[s]; len(ch) > 0 {
			top = pl.updOff[ch[0]] // pop all children
		}
		pl.updOff[s] = top
		if nu := ns - t; nu > 0 {
			top += nu * nu
			if top > pl.updStack {
				pl.updStack = top
			}
		}
		for _, r := range rows {
			pos[r] = -1
		}
	}
	return pl, nil
}

// Refactorize computes a fresh numeric factorization of a — a matrix with
// the same sparsity pattern as the one this factor was built from — reusing
// the symbolic analysis, elimination tree, and supernode partition. It
// never mutates f: in-flight solves against the old factor stay bitwise
// stable while the caller swaps the returned factor in. The result is
// bitwise identical to Factorize(a, f.Sym) (same assembly and update
// order, same kernels), at a fraction of the cost: no ordering, no
// symbolic analysis, no per-supernode index search or allocation.
//
// A pattern that the symbolic structure cannot hold yields a
// *PatternError; numerical breakdown surfaces exactly as in Factorize.
func (f *Factor) Refactorize(a *sparse.SymCSC) (*Factor, error) {
	sym := f.Sym
	pl := f.plan
	if pl == nil || !pl.samePattern(a) {
		var err error
		if pl, err = f.buildRefactorPlan(a); err != nil {
			return nil, err
		}
	}
	// One slab for every panel, freed as a unit when the swapped-out
	// factor drains.
	panels := carvePanels[float64](sym)
	front := make([]float64, pl.maxFront)
	stack := make([]float64, pl.updStack)
	for s := 0; s < sym.NSuper; s++ {
		ns := sym.Height(s)
		t := sym.Width(s)
		j0 := sym.Super[s]
		fr := front[:ns*ns]
		// Only the lower triangle is ever read (assembly, extend-add,
		// PartialCholesky, and the extractions below all stay on or
		// below the diagonal), so only it needs clearing; the strictly
		// upper part keeps stale garbage harmlessly.
		for j := 0; j < ns; j++ {
			clear(fr[j*ns+j : (j+1)*ns])
		}
		for p := a.ColPtr[j0]; p < a.ColPtr[j0+t]; p++ {
			fr[pl.asm[p]] += a.Val[p]
		}
		e := 0
		ext := pl.ext[s]
		for _, c := range sym.SChildren[s] {
			nu := sym.Height(c) - sym.Width(c)
			u := stack[pl.updOff[c]:]
			for cj := 0; cj < nu; cj++ {
				for ci := cj; ci < nu; ci++ {
					fr[ext[e]] += u[cj*nu+ci]
					e++
				}
			}
		}
		if err := dense.PartialCholesky(fr, ns, ns, t); err != nil {
			return nil, fmt.Errorf("chol: supernode %d (cols %d..%d): %w", s, j0, j0+t-1, err)
		}
		// The slab arrives zeroed from make, so the strictly-upper part
		// of each panel's triangular top is already correct; copy each
		// column from the diagonal down (contiguous on both sides).
		panel := panels[s]
		for j := 0; j < t; j++ {
			copy(panel[j*ns+j:(j+1)*ns], fr[j*ns+j:(j+1)*ns])
		}
		if nu := ns - t; nu > 0 {
			u := stack[pl.updOff[s]:]
			for j := 0; j < nu; j++ {
				copy(u[j*nu+j:(j+1)*nu], fr[(t+j)*ns+(t+j):(t+j)*ns+(t+nu)])
			}
		}
	}
	nf := &Factor{Sym: sym, Panels: panels, plan: pl}
	// A factor carrying the float32 plane propagates it: value updates
	// against a demoted (mixed-precision) factor keep working, and the
	// serving layer's swap-in re-demotes without a second conversion pass.
	if f.Panels32 != nil {
		nf.EnsureFloat32()
	}
	return nf, nil
}
