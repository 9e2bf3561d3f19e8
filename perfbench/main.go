// Command perfbench is the repository benchmark. It drives the solver
// stack from outside, through its public entry points, on three seeded
// workloads, checks every answer, and prints one JSON result line.
//
//	perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Workloads (see workloads in BENCHMARK.json for why each exists):
//
//	sweep-2d-1rhs  one caller, warm native.Solver.SolveInto on GRID2D-255, NRHS 1
//	sweep-3d-wide  one caller, CUBE-20, NRHS 30: float64 solver, then prec.Guard
//	               over a float32 solver of the same factor, per seeded block
//	serve-http     registry → transport.Service on loopback HTTP, GRID2D-63x63,
//	               nproc closed-loop callers on their own keep-alive connections
//
// Run it from the repository root as bash perfbench/run.sh with the same
// flags; go -C perfbench test runs all three at tiny sizes.
//
// With --trace 0 the last stdout line carries the end-to-end metrics:
// latency medians over every sample of the run, set-up the median of
// several cold set-ups, and resident bytes. With --trace 1 it carries
// the per-layer metrics of a separate traced run, whose spans are
// written to .bench_build/traces/; its layer probe runs on every
// workload's own matrix, so every layer is measured on every workload.
// The line before it is a summary with the environment, the
// workload-specific names of the generic end-to-end metrics, and the
// ungated p90 latencies and rates. Any wrong
// answer makes the command exit non-zero after printing the result.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload: sweep-2d-1rhs | sweep-3d-wide | serve-http")
	seed := fs.Int64("seed", 1, "seed of the generated right-hand sides and value sets")
	seconds := fs.Float64("seconds", 10, "length of the measured phase in seconds")
	trace := fs.Int("trace", 0, "1 runs the traced per-layer run instead of the timed run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	cfg := fullSize()
	cfg.seed = *seed
	cfg.dur = time.Duration(*seconds * float64(time.Second))
	cfg.trace = *trace == 1
	cfg.traceDir = ".bench_build/traces"

	rep, err := runWorkload(*workload, cfg)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *workload, err)
		return 1
	}
	if err := rep.write(stdout, cfg.trace); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	if rep.failed > 0 {
		fmt.Fprintf(stderr, "perfbench: %s: %d of %d answers failed verification\n", *workload, rep.failed, rep.attempted)
		for _, m := range rep.misses {
			fmt.Fprintln(stderr, "  ", m)
		}
		return 1
	}
	return 0
}

// runWorkload dispatches one workload by name.
func runWorkload(name string, cfg config) (*report, error) {
	var fn func(config) (*report, error)
	switch name {
	case "sweep-2d-1rhs":
		fn = sweep2D
	case "sweep-3d-wide":
		fn = sweep3D
	case "serve-http":
		fn = serveHTTP
	default:
		return nil, fmt.Errorf("unknown workload %q", name)
	}
	total0, steal0 := cpuTicks()
	rep, err := fn(cfg)
	if err != nil {
		return nil, err
	}
	if total1, steal1 := cpuTicks(); total1 > total0 {
		rep.stealShare = float64(steal1-steal0) / float64(total1-total0)
	}
	rep.workload = name
	return rep, nil
}

// write prints the summary line and then the result line the benchmark
// contract reads: exactly correct, attempted, failed and metrics.
func (r *report) write(w io.Writer, trace bool) error {
	names := endToEnd
	vals := r.e2e
	if trace {
		names, vals = perLayerNames(), r.layer
	}
	metrics := make(map[string]metric, len(names))
	for _, n := range names {
		v, ok := vals[n]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("%s: metric %q was not measured (%v)", r.workload, n, v)
		}
		metrics[n] = metric{Value: v, Unit: unitOf(n)}
	}
	summary := map[string]any{
		"workload":   r.workload,
		"env":        environment(r.factorBytes, r.stealShare),
		"named":      r.named,
		"error_rate": r.errorRate(),
		"samples":    r.samples,
	}
	if err := json.NewEncoder(w).Encode(summary); err != nil {
		return err
	}
	return json.NewEncoder(w).Encode(struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.failed == 0, r.attempted, r.failed, metrics})
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}
