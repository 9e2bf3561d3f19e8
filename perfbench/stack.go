package main

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"runtime/metrics"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"sptrsv/internal/native"
	"sptrsv/internal/registry"
	"sptrsv/internal/serve"
	"sptrsv/internal/sparse"
	"sptrsv/internal/transport"
)

// Trace headers carry the client's round-trip span id and request id to
// the wrapping handler, so server-side spans nest under client spans.
const (
	hdrSpan = "X-Bench-Span"
	hdrReq  = "X-Bench-Req"
)

// stack is the daemon's serving stack in this process: a registry with
// the daemon's default flags (strategy auto, kernel auto, float64,
// maxbatch 30, linger 200µs) behind transport.Service on a loopback
// listener. The handler is wrapped so a traced run can time
// Service.ServeHTTP from the outside.
type stack struct {
	reg    *registry.Registry
	srv    *http.Server
	base   string
	served chan error
	tr     *tracer
	req    atomic.Int64 // request ids
	solved atomic.Int64 // solves answered through the serve layer
}

func startStack(tr *tracer) (*stack, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &stack{
		reg:    registry.New(registry.Config{Serve: serve.Config{Strategy: native.StrategyAuto}}),
		base:   "http://" + ln.Addr().String(),
		served: make(chan error, 1),
		tr:     tr,
	}
	svc := transport.New(s.reg)
	s.srv = &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := -1
		if s.tr != nil && r.Header.Get(hdrSpan) != "" {
			parent, perr := strconv.Atoi(r.Header.Get(hdrSpan))
			req, rerr := strconv.ParseInt(r.Header.Get(hdrReq), 10, 64)
			if perr != nil || rerr != nil {
				parent, req = -1, 0
			}
			id = s.tr.begin("transport.handler", parent, req)
		}
		svc.ServeHTTP(w, r)
		s.tr.end(id)
	})}
	go func() { s.served <- s.srv.Serve(ln) }()
	return s, nil
}

// close shuts the listener down, drains the registry and waits for the
// serving goroutine to return.
func (s *stack) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.srv.Shutdown(ctx); err != nil {
		s.srv.Close()
	}
	s.reg.Close()
	<-s.served
}

// client is one caller with its own keep-alive connection.
type client struct {
	hc     *http.Client
	tp     *http.Transport
	st     *stack
	id     string
	out    []byte
	in     bytes.Buffer
	status [6]int64 // responses by status class (index code/100)
}

func (s *stack) newClient(id string) *client {
	tp := &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true}
	return &client{hc: &http.Client{Transport: tp, Timeout: time.Minute}, tp: tp, st: s, id: id}
}

func (c *client) close() { c.tp.CloseIdleConnections() }

// do sends one request and returns the response body (valid until the
// next call) or an error for any status but 200.
func (c *client) do(method, path, ctype string, body []byte, tr *tracer, span int, req int64) ([]byte, error) {
	hr, err := http.NewRequest(method, c.st.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	hr.Header.Set("Content-Type", ctype)
	if tr != nil {
		hr.Header.Set(hdrSpan, strconv.Itoa(span))
		hr.Header.Set(hdrReq, strconv.FormatInt(req, 10))
	}
	resp, err := c.hc.Do(hr)
	if err != nil {
		return nil, err
	}
	c.in.Reset()
	_, err = c.in.ReadFrom(resp.Body)
	resp.Body.Close()
	if k := resp.StatusCode / 100; k >= 0 && k < len(c.status) {
		c.status[k]++
	}
	if err != nil {
		return nil, fmt.Errorf("%s %s: reading body: %w", method, path, err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(c.in.Bytes()))
	}
	return c.in.Bytes(), nil
}

// solve posts one right-hand side and decodes the answer.
func (c *client) solve(rhs *sparse.Block, tr *tracer, parent int) (*sparse.Block, error) {
	req := c.st.req.Add(1)
	root := tr.begin("client.request", parent, req)
	defer tr.end(root)
	id := tr.begin("transport.encode", root, req)
	c.out = transport.EncodeBlock(c.out[:0], rhs)
	tr.end(id)
	rt := tr.begin("http.roundtrip", root, req)
	body, err := c.do(http.MethodPost, "/v1/solve/"+c.id, "application/octet-stream", c.out, tr, rt, req)
	tr.end(rt)
	if err != nil {
		return nil, err
	}
	id = tr.begin("transport.decode", root, req)
	x, err := transport.DecodeBlock(body)
	tr.end(id)
	if err == nil {
		c.st.solved.Add(1)
	}
	return x, err
}

// ingest registers the matrix and waits until it is resident.
func (c *client) ingest(spec string, tr *tracer, parent int) error {
	req := c.st.req.Add(1)
	id := tr.begin("http.ingest", parent, req)
	defer tr.end(id)
	_, err := c.do(http.MethodPut, "/v1/matrix/"+c.id+"?wait=1", "application/json", []byte(spec), tr, id, req)
	return err
}

// putValues streams a new value set for the matrix's pattern.
func (c *client) putValues(vals []float64, tr *tracer, parent int) error {
	req := c.st.req.Add(1)
	id := tr.begin("http.put_values", parent, req)
	defer tr.end(id)
	c.out = transport.EncodeBlock(c.out[:0], sparse.BlockFromVec(vals))
	_, err := c.do(http.MethodPut, "/v1/matrix/"+c.id+"/values", "application/octet-stream", c.out, tr, id, req)
	return err
}

// inprocSolve is the in-process rung: registry.Acquire, the coalescing
// server's Solve, Release — the serving path without HTTP.
func (s *stack) inprocSolve(id string, rhs []float64, tr *tracer) ([]float64, error) {
	req := s.req.Add(1)
	root := tr.begin("inproc.request", -1, req)
	defer tr.end(root)
	sp := tr.begin("registry.acquire", root, req)
	h, err := s.reg.Acquire(id)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	sp = tr.begin("serve.solve", root, req)
	x, err := h.Server().Solve(context.Background(), rhs)
	tr.end(sp)
	sp = tr.begin("registry.release", root, req)
	h.Release()
	tr.end(sp)
	if err == nil {
		s.solved.Add(1)
	}
	return x, err
}

// closedLoop runs callers goroutines, each calling fn with its caller
// index and iteration until d has elapsed, and returns how long they ran.
func closedLoop(callers int, d time.Duration, fn func(c, i int)) time.Duration {
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; time.Now().Before(deadline); i++ {
				fn(c, i)
			}
		}(c)
	}
	wg.Wait()
	return time.Since(start)
}

// genSum adds serve.Snapshot counters across server generations. A
// snapshot belongs to one generation and restarts at every value swap,
// so the workload reads each generation once it has drained and sums.
type genSum struct {
	mu       sync.Mutex
	gens     int
	accepted uint64
	batches  uint64
	widthSum float64
	maxQueue int
	overload uint64
	failed   uint64
	paths    [4]uint64 // native, sequential+refine, mixed+refine, float64-fallback
}

func (g *genSum) add(s serve.Snapshot) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.gens++
	g.accepted += s.Accepted
	g.batches += s.Batches
	g.widthSum += s.MeanBatchWidth * float64(s.Batches)
	g.maxQueue = max(g.maxQueue, s.MaxQueueDepth)
	g.overload += s.RejectedOverload
	g.failed += s.Failed
	g.paths[0] += s.PathNative
	g.paths[1] += s.PathSequentialRefine
	g.paths[2] += s.PathMixedRefine
	g.paths[3] += s.PathFloat64Fallback
}

// drained returns srv's snapshot once no admitted request is still in
// flight on it. A replaced generation's server keeps its counters after
// the registry closes it.
func drained(srv *serve.Server) serve.Snapshot {
	deadline := time.Now().Add(2 * time.Second)
	snap := srv.Snapshot()
	for snap.InFlight > 0 && time.Now().Before(deadline) {
		time.Sleep(100 * time.Microsecond)
		snap = srv.Snapshot()
	}
	return snap
}

// serveLayers records the serve counters summed over generations.
func serveLayers(l map[string]float64, g *genSum, s *stack) {
	g.mu.Lock()
	defer g.mu.Unlock()
	l["serve.generations"] = float64(g.gens)
	l["serve.batches"] = float64(g.batches)
	if g.batches > 0 {
		l["serve.mean_batch_width"] = g.widthSum / float64(g.batches)
	}
	l["serve.max_queue_depth"] = float64(g.maxQueue)
	l["serve.rejected_overload"] = float64(g.overload)
	l["serve.failed"] = float64(g.failed)
	l["serve.path.native"] = float64(g.paths[0])
	l["serve.path.sequential_refine"] = float64(g.paths[1])
	l["serve.path.mixed_refine"] = float64(g.paths[2])
	l["serve.path.float64_fallback"] = float64(g.paths[3])
	// Every request the serve layer answered must appear in exactly one
	// generation's snapshot; a gap means counts were lost at a swap.
	l["serve.accepted_gap"] = float64(int64(g.accepted) - s.solved.Load())
}

// registryLayers records the registry gauges; read them before the
// registry closes.
func registryLayers(l map[string]float64, reg *registry.Registry) {
	rs := reg.Stats()
	l["registry.resident_bytes"] = float64(rs.ResidentBytes)
	l["registry.refactorizations"] = float64(rs.Refactorizations)
}

// statusLayers sums the clients' response status classes.
func statusLayers(l map[string]float64, clients ...*client) {
	for _, c := range clients {
		l["transport.status.2xx"] += float64(c.status[2])
		l["transport.status.4xx"] += float64(c.status[4])
		l["transport.status.5xx"] += float64(c.status[5])
	}
}

// runtimeMeter measures heap bytes allocated and the GC's share of CPU
// time over a phase of the run.
type runtimeMeter struct {
	alloc     uint64
	gc, total float64
}

func readRuntime() runtimeMeter {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	return runtimeMeter{alloc: ms.TotalAlloc, gc: s[0].Value.Float64(), total: s[1].Value.Float64()}
}

func (m runtimeMeter) since(l map[string]float64, requests int) {
	now := readRuntime()
	if requests > 0 {
		l["runtime.alloc_bytes_per_req"] = float64(now.alloc-m.alloc) / float64(requests)
	}
	// The runtime brings its CPU classes up to date at the end of each
	// GC cycle: no change means no cycle ended in the phase.
	l["runtime.gc_cpu_share"] = 0
	if dt := now.total - m.total; dt > 0 {
		l["runtime.gc_cpu_share"] = (now.gc - m.gc) / dt
	}
}
