package chol

import (
	"errors"
	"testing"
	"unsafe"

	"sptrsv/internal/mesh"
	"sptrsv/internal/order"
	"sptrsv/internal/sparse"
)

// perturb returns a copy of a sharing the pattern slices but with every
// value scaled — SPD-preserving (s·A is SPD for s > 0), so the perturbed
// matrix factors cleanly.
func perturb(a *sparse.SymCSC, s float64) *sparse.SymCSC {
	vals := make([]float64, len(a.Val))
	for i, v := range a.Val {
		vals[i] = s * v
	}
	return &sparse.SymCSC{N: a.N, ColPtr: a.ColPtr, RowIdx: a.RowIdx, Val: vals}
}

// checkSlabLayout asserts the panel layout both Factorize and Refactorize
// promise: every panel is carved from one slab, back to back in
// supernode order, with its capacity clamped to its length (so an append
// on one panel can never overwrite the next).
func checkSlabLayout[T float32 | float64](t *testing.T, what string, panels [][]T) {
	t.Helper()
	var elem T
	for s, p := range panels {
		if cap(p) != len(p) {
			t.Fatalf("%s: panel %d has cap %d != len %d", what, s, cap(p), len(p))
		}
		if s == 0 {
			continue
		}
		prev := panels[s-1]
		end := uintptr(unsafe.Pointer(unsafe.SliceData(prev))) + uintptr(len(prev))*unsafe.Sizeof(elem)
		if start := uintptr(unsafe.Pointer(unsafe.SliceData(p))); start != end {
			t.Fatalf("%s: panel %d does not start where panel %d ends (not one slab in supernode order)", what, s, s-1)
		}
	}
}

// TestRefactorizeBitwise pins the core contract: Refactorize(a') is
// bitwise identical to a from-scratch Factorize(a', sym) — same assembly
// order, same extend-add order, same kernels — on both 2-D and 3-D
// problems, across repeated refactorizations (exercising the cached plan
// on the returned factor).
func TestRefactorizeBitwise(t *testing.T) {
	cases := []struct {
		name string
		a    *sparse.SymCSC
		perm []int
	}{
		{"grid2d-9x9", mesh.Grid2D(9, 9), order.NestedDissectionGeom(mesh.Grid2D(9, 9), mesh.Grid2DGeometry(9, 9))},
		{"cube-4", mesh.Grid3D(4, 4, 4), order.NestedDissectionGeom(mesh.Grid3D(4, 4, 4), mesh.Grid3DGeometry(4, 4, 4))},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f, ap := prep(t, tc.a, tc.perm)
			checkSlabLayout(t, "Factorize", f.Panels)
			cur := f
			for round, scale := range []float64{2.5, 0.125, 7} {
				na := perturb(ap, scale)
				nf, err := cur.Refactorize(na)
				if err != nil {
					t.Fatalf("round %d: Refactorize: %v", round, err)
				}
				if nf == cur || nf.Sym != f.Sym {
					t.Fatalf("round %d: want a fresh factor sharing the symbolic analysis", round)
				}
				want, err := Factorize(na, f.Sym)
				if err != nil {
					t.Fatalf("round %d: Factorize oracle: %v", round, err)
				}
				checkSlabLayout(t, "Refactorize", nf.Panels)
				checkSlabLayout(t, "Factorize oracle", want.Panels)
				for s := range nf.Panels {
					for k, v := range nf.Panels[s] {
						if v != want.Panels[s][k] {
							t.Fatalf("round %d: panel %d entry %d: got %v, want %v (not bitwise identical)", round, s, k, v, want.Panels[s][k])
						}
					}
				}
				// The old factor must be untouched (in-flight solves
				// depend on it staying bitwise stable).
				for s := range cur.Panels {
					for k, v := range cur.Panels[s] {
						if round == 0 && v != f.Panels[s][k] {
							t.Fatalf("Refactorize mutated the source factor at panel %d entry %d", s, k)
						}
					}
				}
				cur = nf
			}
			cur.EnsureFloat32()
			checkSlabLayout(t, "EnsureFloat32", cur.Panels32)
		})
	}
}

// TestRefactorizePatternMismatch pins the typed error contract: a matrix
// whose size or pattern is incompatible with the symbolic analysis yields
// a *PatternError, never garbage values.
func TestRefactorizePatternMismatch(t *testing.T) {
	a := mesh.Grid2D(6, 6)
	perm := order.NestedDissectionGeom(a, mesh.Grid2DGeometry(6, 6))
	f, ap := prep(t, a, perm)

	var pe *PatternError
	if _, err := f.Refactorize(mesh.Grid2D(5, 5)); !errors.As(err, &pe) || pe.Reason != "dim" {
		t.Fatalf("size mismatch: got %v, want *PatternError{Reason: dim}", err)
	}

	// Same size, different structure: a dense first column introduces
	// entries outside the separator-ordered supernode patterns.
	n := ap.N
	bad := &sparse.SymCSC{N: n, ColPtr: make([]int, n+1)}
	for j := 0; j < n; j++ {
		bad.ColPtr[j] = len(bad.RowIdx)
		if j == 0 {
			for i := 0; i < n; i++ {
				bad.RowIdx = append(bad.RowIdx, i)
				bad.Val = append(bad.Val, 1)
			}
		} else {
			bad.RowIdx = append(bad.RowIdx, j)
			bad.Val = append(bad.Val, 4)
		}
	}
	bad.ColPtr[n] = len(bad.RowIdx)
	pe = nil
	if _, err := f.Refactorize(bad); !errors.As(err, &pe) || pe.Reason != "entry" {
		t.Fatalf("pattern mismatch: got %v, want *PatternError{Reason: entry}", err)
	}

	// Factorize reports the same typed error for out-of-pattern entries.
	pe = nil
	if _, err := Factorize(bad, f.Sym); !errors.As(err, &pe) {
		t.Fatalf("Factorize pattern mismatch: got %v, want *PatternError", err)
	}
}
