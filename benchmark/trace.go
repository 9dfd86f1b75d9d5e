package main

import (
	"bufio"
	"encoding/json"
	"os"
	"runtime"
	"slices"
	"strings"
	"time"

	"snmpv3fp/internal/obs"
)

// span is one timed call into a layer, recorded by the benchmark around the
// call (nothing inside the program is instrumented). Times are nanoseconds
// since the tracer's epoch.
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"` // 0 = root
	Name     string `json:"name"`
	Workload string `json:"workload"`
	Cycle    int    `json:"cycle"`
	Campaign int    `json:"campaign,omitempty"`
	// Tail marks the spans of a pipeline run's tail, which is outside what
	// wall_s measures and so outside the ledger.
	Tail  bool  `json:"tail,omitempty"`
	Start int64 `json:"start_ns"`
	End   int64 `json:"end_ns"`
	// Mallocs and AllocBytes are process-wide runtime.MemStats deltas over
	// the span, so they include whatever ran beside it (the store's
	// background compactor during an ingest, for one).
	Deep       bool   `json:"deep,omitempty"`
	Mallocs    uint64 `json:"mallocs,omitempty"`
	AllocBytes uint64 `json:"alloc_bytes,omitempty"`
	// Obs holds the non-zero obs.Registry deltas over the span (counters,
	// histogram sums and counts).
	Obs map[string]float64 `json:"obs,omitempty"`
	// Counts is the work the call reported doing (probes sent, datagrams
	// folded, samples acknowledged), recorded at the same boundary.
	Counts map[string]float64 `json:"counts,omitempty"`
}

func (s *span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer records spans on the benchmark's main goroutine. Timing is always
// on (the end-to-end metrics need the same instants); the MemStats and
// registry deltas, which stop the world and take the store lock, are taken
// only when deep is set, so an untraced run pays two clock reads per call.
type tracer struct {
	workload string
	epoch    time.Time
	deep     bool
	reg      *obs.Registry // registry of the store/server under test; swapped per build
	cycle    int
	tail     bool
	spans    []span
	stack    []int
	// starts holds the deep-mode readings taken at begin, by span id.
	starts map[int]*spanStart
}

func newTracer(workload string) *tracer {
	return &tracer{workload: workload, epoch: time.Now(), starts: map[int]*spanStart{}}
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// do runs f inside a span and returns the span's duration.
func (t *tracer) do(name string, campaign int, f func()) time.Duration {
	id := t.begin(name, campaign)
	f()
	return t.end(id)
}

type spanStart struct {
	mem runtime.MemStats
	reg *obs.Registry
	obs map[string]float64
}

func (t *tracer) begin(name string, campaign int) int {
	parent := 0
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Workload: t.workload, Cycle: t.cycle, Campaign: campaign, Tail: t.tail})
	t.stack = append(t.stack, id)
	if t.deep {
		st := &spanStart{reg: t.reg, obs: flattenRegistry(t.reg)}
		runtime.ReadMemStats(&st.mem)
		t.starts[id] = st
	}
	t.spans[id-1].Start = t.now()
	return id
}

func (t *tracer) end(id int) time.Duration {
	s := &t.spans[id-1]
	s.End = t.now()
	t.stack = t.stack[:len(t.stack)-1]
	if st := t.starts[id]; st != nil {
		delete(t.starts, id)
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		s.Deep = true
		s.Mallocs = m.Mallocs - st.mem.Mallocs
		s.AllocBytes = m.TotalAlloc - st.mem.TotalAlloc
		if st.reg != t.reg {
			return s.dur() // the store was reopened under a new registry: no common base
		}
		for k, v := range flattenRegistry(t.reg) {
			if d := v - st.obs[k]; d != 0 {
				if s.Obs == nil {
					s.Obs = map[string]float64{}
				}
				s.Obs[k] = d
			}
		}
	}
	return s.dur()
}

// setCounts records the work the call inside span id reported doing.
func (t *tracer) setCounts(id int, counts map[string]float64) { t.spans[id-1].Counts = counts }

// flattenRegistry reads every series into name{labels} → value; histograms
// contribute _sum and _count.
func flattenRegistry(reg *obs.Registry) map[string]float64 {
	out := map[string]float64{}
	for _, p := range reg.Snapshot() {
		key := p.Name
		if p.Labels != "" {
			key += "{" + p.Labels + "}"
		}
		if p.Type == obs.TypeHistogram {
			out[key+"_sum"] = p.Sum
			out[key+"_count"] = float64(p.Count)
		} else {
			out[key] = p.Value
		}
	}
	return out
}

// layerOf maps a span name to its ledger layer: the prefix before the first
// dot when that is a module, "harness" otherwise.
func layerOf(name string) string {
	prefix, _, _ := strings.Cut(name, ".")
	if slices.Contains(ledgerLayers, prefix) {
		return prefix
	}
	return "harness"
}

// selfTimes sums, per layer, each included span's duration minus its direct
// children's. Children never overlap: the tracer is single-goroutine.
func (t *tracer) selfTimes(include func(*span) bool) map[string]time.Duration {
	children := map[int]time.Duration{}
	for i := range t.spans {
		s := &t.spans[i]
		children[s.Parent] += s.dur()
	}
	out := map[string]time.Duration{}
	for i := range t.spans {
		s := &t.spans[i]
		if include(s) {
			out[layerOf(s.Name)] += s.dur() - children[s.ID]
		}
	}
	return out
}

// requestSpan is one query of the closed loop, kept compact because a run
// makes millions; the writer expands a sample of them into span lines.
type requestSpan struct {
	start int64
	dur   int32
	class uint8
}

// writeTrace writes every span, then at most maxRequestSpans request spans
// per class, each under the query span it started in, as JSON lines.
func (t *tracer) writeTrace(path string, requests []requestSpan) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	const maxRequestSpans = 2000
	written := make([]int, len(queryClasses))
	id := len(t.spans)
	for _, r := range requests {
		if written[r.class] >= maxRequestSpans {
			continue
		}
		written[r.class]++
		id++
		s := span{ID: id, Name: "serve.request." + queryClasses[r.class], Workload: t.workload,
			Start: r.start, End: r.start + int64(r.dur)}
		for i := range t.spans {
			if p := &t.spans[i]; isQuerySpan(p) && p.Start <= r.start && r.start <= p.End {
				s.Parent, s.Cycle = p.ID, p.Cycle
				break
			}
		}
		if err := enc.Encode(&s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// named matches the spans of the given names.
func named(names ...string) func(*span) bool {
	return func(s *span) bool { return slices.Contains(names, s.Name) }
}

// isQuerySpan matches the spans closed-loop clients run inside.
var isQuerySpan = named("serve.query", "workload.live_unit")
