package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// percentile is the nearest-rank p-th percentile of xs (0 for none).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rankIndex(len(s), p)]
}

// rankIndex is the 0-based index of the nearest-rank p-th percentile.
func rankIndex(n int, p float64) int {
	k := int(math.Ceil(p / 100 * float64(n)))
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	return k - 1
}

// samplesBeyond counts the samples strictly above the nearest-rank
// p-th percentile's position.
func samplesBeyond(n int, p float64) int {
	if n == 0 {
		return 0
	}
	return n - 1 - rankIndex(n, p)
}

func median(xs []float64) float64 { return percentile(xs, 50) }

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}

func maxOf(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		m = math.Max(m, x)
	}
	return m
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// span is one timed call the benchmark made into a layer. Spans of
// one unit of work share a parent chain rooted at that unit.
type span struct {
	ID      int64  `json:"id"`
	Parent  int64  `json:"parent,omitempty"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// aggregate folds a per-request boundary into a count and a total
// instead of one span per call.
type aggregate struct {
	n, ns atomic.Int64
}

func (a *aggregate) add(d time.Duration) {
	a.n.Add(1)
	a.ns.Add(int64(d))
}

func (a *aggregate) nsPer() float64 {
	if n := a.n.Load(); n > 0 {
		return float64(a.ns.Load()) / float64(n)
	}
	return 0
}

// tracer keeps spans and aggregates in memory; write dumps them at the
// end of the run. A nil tracer records nothing.
type tracer struct {
	t0    time.Time
	next  atomic.Int64
	mu    sync.Mutex
	spans []span
	aggs  map[string]*aggregate
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), aggs: map[string]*aggregate{}}
}

// newID reserves a span ID, so children can name a parent that has
// not ended yet.
func (t *tracer) newID() int64 {
	if t == nil {
		return 0
	}
	return t.next.Add(1)
}

// record stores a finished span and returns its duration.
func (t *tracer) record(id, parent int64, name string, start time.Time) time.Duration {
	end := time.Now()
	if t != nil {
		if id == 0 {
			id = t.newID()
		}
		t.recordSpan(id, parent, name, start, end)
	}
	return end.Sub(start)
}

// recordSpan stores a span whose times were taken elsewhere.
func (t *tracer) recordSpan(id, parent int64, name string, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name,
		StartNS: int64(start.Sub(t.t0)), EndNS: int64(end.Sub(t.t0))})
	t.mu.Unlock()
}

// agg returns the named aggregate (created on first use).
func (t *tracer) agg(name string) *aggregate {
	t.mu.Lock()
	defer t.mu.Unlock()
	a, ok := t.aggs[name]
	if !ok {
		a = &aggregate{}
		t.aggs[name] = a
	}
	return a
}

func (t *tracer) len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// durations lists the durations (ms) of every span with the name.
func (t *tracer) durations(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.EndNS-s.StartNS)/1e6)
		}
	}
	return out
}

func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	aggs := map[string]map[string]int64{}
	for k, a := range t.aggs {
		aggs[k] = map[string]int64{"count": a.n.Load(), "total_ns": a.ns.Load()}
	}
	b, err := json.Marshal(map[string]any{"spans": t.spans, "aggregates": aggs})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// Runtime metrics read around the traced phase.
const (
	rtGCCPU     = "/cpu/classes/gc/total:cpu-seconds"
	rtTotalCPU  = "/cpu/classes/total:cpu-seconds"
	rtIdleCPU   = "/cpu/classes/idle:cpu-seconds"
	rtGCCycles  = "/gc/cycles/total:gc-cycles"
	rtAllocObjs = "/gc/heap/allocs:objects"
	rtAllocB    = "/gc/heap/allocs:bytes"
	rtHeapObjs  = "/memory/classes/heap/objects:bytes"
	rtHeapLive  = "/gc/heap/live:bytes"
)

// rtRead samples the named runtime metrics as float64s.
func rtRead(names ...string) map[string]float64 {
	samples := make([]metrics.Sample, len(names))
	for i, n := range names {
		samples[i].Name = n
	}
	metrics.Read(samples)
	out := make(map[string]float64, len(names))
	for _, s := range samples {
		switch s.Value.Kind() {
		case metrics.KindUint64:
			out[s.Name] = float64(s.Value.Uint64())
		case metrics.KindFloat64:
			out[s.Name] = s.Value.Float64()
		}
	}
	return out
}

// heapMiB is the heap-object footprint right now, including garbage
// not yet swept.
func heapMiB() float64 { return rtRead(rtHeapObjs)[rtHeapObjs] / (1 << 20) }

// liveHeapMiB is the heap the last garbage collection found live.
func liveHeapMiB() float64 { return rtRead(rtHeapLive)[rtHeapLive] / (1 << 20) }

// allocMeter measures allocations around a single-goroutine section.
type allocMeter struct{ objs, bytes float64 }

func startAllocs() allocMeter {
	m := rtRead(rtAllocObjs, rtAllocB)
	return allocMeter{m[rtAllocObjs], m[rtAllocB]}
}

func (a allocMeter) since() (objs, bytes float64) {
	m := rtRead(rtAllocObjs, rtAllocB)
	return m[rtAllocObjs] - a.objs, m[rtAllocB] - a.bytes
}

// profiler is the traced phase's instrumentation: a CPU profile, a
// heap sampler and runtime GC counters.
type profiler struct {
	buf      bytes.Buffer
	start    map[string]float64
	cpu0     float64
	stop     chan struct{}
	done     chan struct{}
	heapPeak float64 // MiB; written by the sampler, read after it exits
}

func startProfiler() (*profiler, error) {
	p := &profiler{stop: make(chan struct{}), done: make(chan struct{})}
	p.start = rtRead(rtGCCPU, rtTotalCPU, rtIdleCPU, rtGCCycles)
	p.cpu0 = cpuSeconds()
	if err := pprof.StartCPUProfile(&p.buf); err != nil {
		return nil, err
	}
	go func() {
		defer close(p.done)
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			p.heapPeak = max(p.heapPeak, heapMiB())
			select {
			case <-p.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return p, nil
}

// finish stops the profile and reports the runtime and per-layer CPU
// metrics into r.
func (p *profiler) finish(r *run) error {
	pprof.StopCPUProfile()
	close(p.stop)
	<-p.done
	end := rtRead(rtGCCPU, rtTotalCPU, rtIdleCPU, rtGCCycles)
	used := (end[rtTotalCPU] - p.start[rtTotalCPU]) - (end[rtIdleCPU] - p.start[rtIdleCPU])
	gcPct := 0.0
	if used > 0 {
		gcPct = 100 * (end[rtGCCPU] - p.start[rtGCCPU]) / used
	}
	r.set("runtime.gc_cpu_pct", gcPct)
	r.set("runtime.gc_cycles", end[rtGCCycles]-p.start[rtGCCycles])
	r.set("runtime.heap_peak_mib", p.heapPeak)
	prof, err := parseProfile(p.buf.Bytes())
	if err != nil {
		return err
	}
	shares := prof.groupShares()
	for _, g := range cpuGroups {
		r.set(g+".cpu_pct", 100*shares[g])
	}
	r.notef("cpu profile: %d samples, %.2f s process CPU in the traced phase", prof.nSamples, cpuSeconds()-p.cpu0)
	return nil
}

// rssWatch samples the process's resident set size every few
// milliseconds and keeps the peak; take returns the peak since the
// previous take. Per-unit peaks, whose median is reported, are steadier
// than the process lifetime's single maximum.
type rssWatch struct {
	peak atomic.Int64
	stop chan struct{}
	done chan struct{}
}

func watchRSS() *rssWatch {
	w := &rssWatch{stop: make(chan struct{}), done: make(chan struct{})}
	w.peak.Store(rssBytes())
	go func() {
		defer close(w.done)
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-w.stop:
				return
			case <-tick.C:
				w.note(rssBytes())
			}
		}
	}()
	return w
}

func (w *rssWatch) note(b int64) {
	for {
		old := w.peak.Load()
		if b <= old || w.peak.CompareAndSwap(old, b) {
			return
		}
	}
}

// take returns the peak (MiB) since the previous take.
func (w *rssWatch) take() float64 {
	now := rssBytes()
	w.note(now)
	return float64(w.peak.Swap(now)) / (1 << 20)
}

func (w *rssWatch) close() {
	close(w.stop)
	<-w.done
}

// rssBytes reads the resident set size from /proc/self/statm.
func rssBytes() int64 {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	f := bytes.Fields(b)
	if len(f) < 2 {
		return 0
	}
	pages, _ := strconv.ParseInt(string(f[1]), 10, 64)
	return pages * int64(os.Getpagesize())
}

// cpuStat is the host's cumulative CPU accounting from /proc/stat, in
// USER_HZ ticks summed over CPUs.
type cpuStat struct{ busy, steal float64 }

func readCPUStat() cpuStat {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuStat{}
	}
	line, _, _ := bytes.Cut(b, []byte("\n"))
	f := bytes.Fields(line)
	if len(f) < 9 || string(f[0]) != "cpu" {
		return cpuStat{}
	}
	v := func(i int) float64 {
		x, _ := strconv.ParseFloat(string(f[i]), 64)
		return x
	}
	// user nice system idle iowait irq softirq steal
	return cpuStat{busy: v(1) + v(2) + v(3) + v(6) + v(7), steal: v(8)}
}

// unit times one unit of work (a grid, a replay pass, a serve round):
// wall time, process CPU, and host steal — the share of the CPU time
// the VM's tasks demanded that the hypervisor gave to other guests.
type unit struct {
	t0   time.Time
	cpu0 float64
	st0  cpuStat
}

func startUnit() unit { return unit{time.Now(), cpuSeconds(), readCPUStat()} }

type unitTime struct {
	wall  time.Duration
	cpu   float64 // process CPU seconds
	steal float64 // stolen share of demanded CPU time, 0..1
}

func (u unit) stop() unitTime {
	t := unitTime{wall: time.Since(u.t0), cpu: cpuSeconds() - u.cpu0}
	st := readCPUStat()
	if d := (st.busy - u.st0.busy) + (st.steal - u.st0.steal); d > 0 {
		t.steal = (st.steal - u.st0.steal) / d
	}
	return t
}

// scale converts wall time measured inside the unit to steal-free
// time: on a shared VM the hypervisor's steal otherwise reads as the
// program slowing down. It is 1 where steal is not accounted.
func (t unitTime) scale() float64 { return 1 - t.steal }

// seconds is the unit's steal-free wall time.
func (t unitTime) seconds() float64 { return t.wall.Seconds() * t.scale() }

// goid is the calling goroutine's ID, parsed from its stack header.
func goid() uint64 {
	var buf [64]byte
	b := buf[:runtime.Stack(buf[:], false)]
	b = bytes.TrimPrefix(b, []byte("goroutine "))
	if i := bytes.IndexByte(b, ' '); i > 0 {
		b = b[:i]
	}
	id, _ := strconv.ParseUint(string(b), 10, 64)
	return id
}
