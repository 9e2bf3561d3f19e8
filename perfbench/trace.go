package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call from the benchmark into a layer.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"` // index of the enclosing span, -1 for a root
	Req    int64  `json:"req"`    // request the span belongs to
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so the timed runs pay one nil check per boundary.
type tracer struct {
	base  time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{base: time.Now()} }

// begin opens a span and returns its id (-1 from a nil tracer).
func (t *tracer) begin(name string, parent int, req int64) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.base).Nanoseconds()
	t.mu.Lock()
	id := len(t.spans)
	t.spans = append(t.spans, span{Name: name, Start: now, End: -1, Parent: parent, Req: req})
	t.mu.Unlock()
	return id
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := time.Since(t.base).Nanoseconds()
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

func (t *tracer) count() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// selfTimes returns, per span name, each closed span's self time: its
// duration minus the part of it that its children cover.
func (t *tracer) selfTimes() map[string]samples {
	t.mu.Lock()
	defer t.mu.Unlock()
	kids := make(map[int][]int)
	for i, s := range t.spans {
		if s.Parent >= 0 && s.End >= 0 {
			kids[s.Parent] = append(kids[s.Parent], i)
		}
	}
	out := make(map[string]samples)
	for i, s := range t.spans {
		if s.End < 0 {
			continue
		}
		covered := coveredNs(s, t.spans, kids[i])
		out[s.Name] = append(out[s.Name], float64(s.End-s.Start-covered)/1e6)
	}
	return out
}

// coveredNs is the length of the union of the children's intervals
// clipped to the parent's.
func coveredNs(p span, all []span, kids []int) int64 {
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, b := max(all[k].Start, p.Start), min(all[k].End, p.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, curA, curB int64 = 0, -1, -1
	for _, v := range ivs {
		if v.a > curB {
			total += curB - curA
			curA, curB = v.a, v.b
		} else if v.b > curB {
			curB = v.b
		}
	}
	return total + curB - curA
}

// durations returns the closed spans' full durations per name.
func (t *tracer) durations() map[string]samples {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[string]samples)
	for _, s := range t.spans {
		if s.End >= 0 {
			out[s.Name] = append(out[s.Name], float64(s.End-s.Start)/1e6)
		}
	}
	return out
}

// write stores the spans as JSON lines in dir/name.
func (t *tracer) write(dir, name string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, name))
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
