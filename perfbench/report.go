package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"
)

// endToEnd names the metrics a user of the stack sees, reported by every
// workload. side_p50_ms is the workload's second path: the 1-worker
// baseline solve (sweep-2d-1rhs), the mixed-precision guard block
// (sweep-3d-wide), and the in-process serving path without HTTP
// (serve-http). Only medians are gated: on a shared 2-core host the p90
// latencies, and serve-http's rate (a mean over the run), spread between
// runs of the same code by more than the largest bound allowed, so the
// summary line carries them ungated, beside the medians under
// workload-specific names.
var endToEnd = []string{"setup_s", "solve_p50_ms", "side_p50_ms", "resident_mb"}

// kernelNames are the concrete kernel variants native dispatches to
// (native.KernelTasks.Map keys).
var kernelNames = []string{
	"flat1", "generic", "tiled", "tiledtall",
	"flat1f32", "genericf32", "tiledf32", "tiledtallf32",
}

// perLayerNames lists the traced run's metrics. Every workload measures
// all of them: the layer probe drives the serving stack on the
// workload's own matrix, so no layer is bypassed in a traced run.
func perLayerNames() []string {
	names := []string{
		// set-up analysis (mesh/order/symbolic/chol/native)
		"order.nd_s", "symbolic.analyze_s", "symbolic.amalgamate_s", "chol.factorize_s",
		"native.newsolver_ms", "native.cold_solve_ms", "registry.ingest_ms",
		"symbolic.nsuper", "symbolic.nnz_l", "symbolic.flops_per_rhs",
		// native scheduler
		"native.sweep_ms", "native.forward_ms", "native.backward_ms",
		"native.tasks", "native.aggregated_tasks", "native.levels",
		"native.speedup", "sim.predicted_speedup", "native.allocs_per_solve",
		// native kernels
		"native.gflops", "native.bytes_computed", "native.arena_bytes", "native.f32_sweep_ms",
	}
	for _, k := range kernelNames {
		names = append(names, "native.kernel_tasks."+k)
	}
	return append(names,
		// prec/refine
		"prec.guard_ms", "prec.refine_iters_per_block", "prec.fallbacks", "prec.residual_max",
		// serve
		"serve.solve_ms", "serve.batches", "serve.mean_batch_width", "serve.max_queue_depth",
		"serve.rejected_overload", "serve.failed", "serve.generations", "serve.accepted_gap",
		"serve.path.native", "serve.path.sequential_refine", "serve.path.mixed_refine", "serve.path.float64_fallback",
		// registry and chol refactorization
		"registry.acquire_us", "registry.resident_bytes", "registry.update_ms",
		"registry.refactorizations", "chol.refactorize_ms",
		// transport and runtime
		"transport.encode_us", "transport.decode_us", "transport.handler_ms",
		"transport.rtt_ms", "transport.net_ms",
		"transport.status.2xx", "transport.status.4xx", "transport.status.5xx",
		"runtime.alloc_bytes_per_req", "runtime.gc_cpu_share",
		// entry-point ladder: p50 per rung and self time per rung
		"ladder.http_ms", "ladder.inproc_ms", "ladder.native_ms",
		"ladder.transport_self_ms", "ladder.serve_self_ms",
		"ladder.update_http_ms", "ladder.update_inproc_ms", "ladder.update_lib_ms",
		"ladder.update_transport_self_ms", "ladder.update_registry_self_ms",
		// tracing cost
		"trace.untraced_p50_ms", "trace.traced_p50_ms", "trace.overhead_ms", "trace.spans",
	)
}

// unitOf derives a metric's unit from its name.
func unitOf(name string) string {
	switch name {
	case "rhs_per_s":
		return "1/s"
	case "resident_mb":
		return "MB"
	case "native.speedup", "sim.predicted_speedup":
		return "x"
	case "native.gflops":
		return "GFLOP/s"
	case "runtime.gc_cpu_share":
		return "share"
	case "serve.mean_batch_width", "prec.refine_iters_per_block":
		return "rhs"
	case "prec.residual_max":
		return "ratio"
	}
	switch {
	case strings.HasSuffix(name, "_ms"):
		return "ms"
	case strings.HasSuffix(name, "_us"):
		return "us"
	case strings.HasSuffix(name, "_s"):
		return "s"
	case strings.Contains(name, "bytes"):
		return "bytes"
	}
	return "count"
}

// report is one workload run's outcome.
type report struct {
	workload          string
	attempted, failed int64
	misses            []string
	e2e, layer        map[string]float64
	// named repeats the end-to-end metrics under workload-specific names
	// (mixed_p50_ms, inproc_p50_ms, …) for the summary line.
	named       map[string]float64
	samples     map[string]int
	factorBytes int64
	stealShare  float64 // share of CPU time stolen by the hypervisor during the run
}

func newReport() *report {
	return &report{
		e2e: map[string]float64{}, layer: map[string]float64{},
		named: map[string]float64{}, samples: map[string]int{},
	}
}

func (r *report) errorRate() float64 {
	if r.attempted == 0 {
		return 0
	}
	return float64(r.failed) / float64(r.attempted)
}

// add folds a tally of answers into the report.
func (r *report) add(t *tally) {
	t.mu.Lock()
	defer t.mu.Unlock()
	r.attempted += t.attempted
	r.failed += t.failed
	for _, m := range t.misses {
		if len(r.misses) < maxMisses {
			r.misses = append(r.misses, m)
		}
	}
}

const maxMisses = 5

// tally counts verified answers; safe for concurrent callers.
type tally struct {
	mu                sync.Mutex
	attempted, failed int64
	misses            []string
}

// check records one answer: ok false is a miss, described by the format.
func (t *tally) check(ok bool, format string, args ...any) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attempted++
	if !ok {
		t.failed++
		if len(t.misses) < maxMisses {
			t.misses = append(t.misses, fmt.Sprintf(format, args...))
		}
	}
}

// samples is a latency sample set in milliseconds.
type samples []float64

func (s *samples) add(d time.Duration) { *s = append(*s, float64(d.Nanoseconds())/1e6) }

// q returns the p-quantile (0..1) with linear interpolation between
// order statistics; 0 for an empty set.
func (s samples) q(p float64) float64 {
	if len(s) == 0 {
		return 0
	}
	xs := slices.Clone(s)
	slices.Sort(xs)
	pos := p * float64(len(xs)-1)
	lo := int(pos)
	if lo+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	return xs[lo] + (pos-float64(lo))*(xs[lo+1]-xs[lo])
}

// rate is m columns per call over the time the calls took: the
// throughput of a single closed-loop caller.
func (s samples) rate(m int) float64 {
	var t float64
	for _, v := range s {
		t += v
	}
	return float64(len(s)*m) / (t / 1e3)
}

// e2eLatencies records the medians of the primary and side latency
// samples, over every sample of the run, as the end-to-end latency
// metrics, and both medians and p90s under workload-specific names.
func (r *report) e2eLatencies(prim, side samples, primName, sideName string) {
	r.e2e["solve_p50_ms"] = prim.q(0.5)
	r.e2e["side_p50_ms"] = side.q(0.5)
	r.named[primName+"_p50_ms"] = r.e2e["solve_p50_ms"]
	r.named[primName+"_p90_ms"] = prim.q(0.9)
	r.named[sideName+"_p50_ms"] = r.e2e["side_p50_ms"]
	r.named[sideName+"_p90_ms"] = side.q(0.9)
	r.samples[primName] = len(prim)
	r.samples[sideName] = len(side)
}

// environment records what the numbers were measured on. factorBytes is
// the workload's resident factor value bytes, reported next to the
// last-level cache size: a factor that fits in the LLC makes the
// kernels' byte counts computed cache traffic, not a bandwidth claim.
func environment(factorBytes int64, stealShare float64) map[string]any {
	commit := os.Getenv("PERFBENCH_COMMIT")
	if commit == "" {
		commit = "unknown"
	}
	model, llc := cpuInfo()
	return map[string]any{
		"nproc":         runtime.NumCPU(),
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"go":            runtime.Version(),
		"commit":        commit,
		"cpu":           model,
		"llc_bytes":     llc,
		"factor_bytes":  factorBytes,
		"factor_in_llc": llc > 0 && factorBytes <= llc,
		"steal_share":   stealShare,
	}
}

// cpuTicks reads the machine's busy and stolen CPU time from
// /proc/stat (0, 0 elsewhere). Stolen time is time the hypervisor gave
// this machine's virtual CPUs to someone else: its share over a run is
// reported so noise from outside the process shows next to the figures.
func cpuTicks() (total, steal uint64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	for i, v := range f[1:] {
		n, _ := strconv.ParseUint(v, 10, 64)
		total += n
		if i == 7 {
			steal = n
		}
	}
	return total, steal
}

// cpuInfo reads the CPU model and the largest cache size of cpu0 from
// the Linux proc and sys interfaces; "unknown" and 0 elsewhere.
func cpuInfo() (string, int64) {
	model := "unknown"
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				model = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	var llc int64
	for i := 0; i < 8; i++ {
		b, err := os.ReadFile(fmt.Sprintf("/sys/devices/system/cpu/cpu0/cache/index%d/size", i))
		if err != nil {
			break
		}
		s := strings.TrimSpace(string(b))
		mult := int64(1)
		switch {
		case strings.HasSuffix(s, "K"):
			mult, s = 1<<10, strings.TrimSuffix(s, "K")
		case strings.HasSuffix(s, "M"):
			mult, s = 1<<20, strings.TrimSuffix(s, "M")
		}
		if n, err := strconv.ParseInt(s, 10, 64); err == nil && n*mult > llc {
			llc = n * mult
		}
	}
	return model, llc
}
