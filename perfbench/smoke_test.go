package main

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"strings"
	"testing"
	"time"

	"sptrsv/internal/mesh"
	"sptrsv/internal/sparse"
)

// tinySize keeps every workload's code path and checks at sizes that
// run in well under a second each.
func tinySize(t *testing.T, trace bool) config {
	return config{
		seed: 7, dur: 400 * time.Millisecond, trace: trace, traceDir: t.TempDir(),
		grid2D: 15, cube: 5, serveGrid: 9,
		setupReps: 2, serveReps: 2,
		warmup: 50 * time.Millisecond,
	}
}

type declared struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// TestSmoke runs every declared workload, timed and traced, at tiny sizes
// through the same code and checks, and holds the printed result to the
// metric names and units BENCHMARK.json declares.
func TestSmoke(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var decl declared
	if err := json.Unmarshal(raw, &decl); err != nil {
		t.Fatal(err)
	}
	if len(decl.Workloads) != 3 {
		t.Fatalf("BENCHMARK.json declares %d workloads, want 3", len(decl.Workloads))
	}
	for _, w := range decl.Workloads {
		for _, trace := range []bool{false, true} {
			want := map[string]string{}
			for _, m := range decl.EndToEnd {
				want[m.Name] = m.Unit
			}
			if trace {
				want = map[string]string{}
				for _, m := range decl.PerLayer {
					want[m.Name] = m.Unit
				}
			}
			rep, err := runWorkload(w.Name, tinySize(t, trace))
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, trace, err)
			}
			if rep.failed != 0 || rep.attempted == 0 {
				t.Fatalf("%s trace=%v: %d of %d answers failed: %v", w.Name, trace, rep.failed, rep.attempted, rep.misses)
			}
			var out bytes.Buffer
			if err := rep.write(&out, trace); err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, trace, err)
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res struct {
				Correct   bool
				Attempted int64
				Failed    int64
				Metrics   map[string]metric
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s: last line is not the result: %v", w.Name, err)
			}
			if !res.Correct || res.Attempted < 1 || len(res.Metrics) != len(want) {
				t.Fatalf("%s trace=%v: result %+v, want %d metrics", w.Name, trace, res, len(want))
			}
			for name, m := range res.Metrics {
				if unit, ok := want[name]; !ok || unit != m.Unit {
					t.Errorf("%s: metric %s unit %q, BENCHMARK.json says %q (declared %v)", w.Name, name, m.Unit, unit, ok)
				}
				if !trace && !(m.Value > 0) {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.Name, name, m.Value)
				}
			}
		}
	}
}

// TestChecksCatchWrongAnswers pins the verification the workloads rely
// on: a one-ulp difference fails the bitwise check, and an answer for a
// blend of two value sets matches neither.
func TestChecksCatchWrongAnswers(t *testing.T) {
	a := []float64{1, 2, 3}
	b := []float64{1, math.Nextafter(2, 3), 3}
	if ok, at := sameBits(a, b); ok || at != 1 {
		t.Fatalf("sameBits missed a one-ulp difference: ok=%v at=%d", ok, at)
	}
	base := mesh.Grid2D(6, 6)
	rng := rand.New(rand.NewSource(1))
	sets := []valueSet{rescaled(base, rng, "A"), rescaled(base, rng, "B")}
	blend := &sparse.SymCSC{N: base.N, ColPtr: base.ColPtr, RowIdx: base.RowIdx, Val: make([]float64, len(base.Val))}
	for i := range blend.Val {
		blend.Val[i] = (sets[0].a.Val[i] + sets[1].a.Val[i]) / 2
	}
	x := randomBlock(base.N, 1, rng)
	rhs := sparse.NewBlock(base.N, 1)
	for _, vs := range []*sparse.SymCSC{sets[0].a, blend} {
		vs.MulBlock(x, rhs)
		hit, _ := matches(sets, x, rhs)
		if want := vs == sets[0].a; (len(hit) == 1 && hit[0] == "A") != want {
			t.Fatalf("matches = %v for the %s value set", hit, map[bool]string{true: "first", false: "blended"}[want])
		}
	}
}
