// Command perfbench is the repository's end-to-end benchmark. It
// drives the public entry points the CLIs use — core.RunExperiment
// (rifsim -fig), replay.Run over a trace.NewStream source (rifsim
// -replay) and the rifserve handler on a loopback listener — checks
// every output, and prints one JSON result line last:
//
//	perfbench -workload fig17-grid -seed 1 -seconds 20 -trace 0 -work DIR
//
// With -trace 0 the result holds the end-to-end metrics; with -trace
// 1 a separate, traced run reports the per-layer metrics instead.
// DESIGN.md lists the workloads, the metrics and which layer should
// move which end-to-end number.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// recordedNproc is the CPU count the committed bounds were measured
// with; a run on a host with another count is flagged.
const recordedNproc = 2

// deadline bounds one run: the harness must exit well inside three
// minutes even when a check hangs.
const deadline = 170 * time.Second

// Workload names, as BENCHMARK.json lists them.
const (
	wGrid   = "fig17-grid"
	wReplay = "replay-ali2"
	wServe  = "serve-mix"
)

var workloads = []string{wGrid, wReplay, wServe}

// End-to-end metric names and units (the -trace 0 result).
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"sim_req_per_s", "1/s"},
	{"cpu_s", "s"},
	{"peak_mem_mib", "MiB"},
	{"lat_p50_ms", "ms"},
}

// cpuGroups are the layers CPU-profile self time is grouped into.
var cpuGroups = []string{
	"nand", "ecc", "odear", "ssd", "sim", "fleet", "core", "obs",
	"stats", "trace", "replay", "resultcache", "serve", "net_http",
	"runtime", "perfbench", "other",
}

// perLayer lists the per-layer metric names and units (the -trace 1
// result). A layer a workload bypasses reports 0.
var perLayer = func() []struct{ name, unit string } {
	m := []struct{ name, unit string }{
		{"fleet.cells", "count"},
		{"fleet.cell_p50_ms", "ms"},
		{"fleet.cell_max_ms", "ms"},
		{"fleet.busy_frac", "frac"},
		{"fleet.steals", "count"},
		{"ssd.build_ms", "ms"},
		{"ssd.us_per_req", "us"},
		{"ssd.allocs_per_req", "count"},
		{"ssd.bytes_per_req", "B"},
		{"ssd.page_reads", "count"},
		{"ssd.retry_rounds", "count"},
		{"ssd.rvs_rereads", "count"},
		{"ssd.avoided_transfers", "count"},
		{"ssd.gc_runs", "count"},
		{"ssd.pages_relocated", "count"},
		{"sim.events", "count"},
		{"sim.events_per_s", "1/s"},
		{"sim.max_pending", "count"},
		{"trace.ns_per_req", "ns"},
		{"replay.heap_mib_max", "MiB"},
		{"replay.held_arrivals", "count"},
		{"replay.peak_inflight", "count"},
		{"resultcache.key_us", "us"},
		{"resultcache.get_us", "us"},
		{"resultcache.store_get_us", "us"},
		{"resultcache.store_put_us", "us"},
		{"resultcache.hits", "count"},
		{"resultcache.misses", "count"},
		{"resultcache.dedup", "count"},
		{"serve.submit_ms", "ms"},
		{"serve.queue_wait_ms", "ms"},
		{"serve.compute_ms", "ms"},
		{"serve.finish_ms", "ms"},
		{"serve.report_ms", "ms"},
		{"serve.hit_late_ms", "ms"},
		{"serve.hit_p50_ms", "ms"},
		{"serve.hit_p90_ms", "ms"},
		{"serve.rejected", "count"},
		{"runtime.gc_cpu_pct", "%"},
		{"runtime.gc_cycles", "count"},
		{"runtime.heap_peak_mib", "MiB"},
		{"tracing.overhead_pct", "%"},
	}
	for _, g := range cpuGroups {
		m = append(m, struct{ name, unit string }{g + ".cpu_pct", "%"})
	}
	return m
}()

// sizing is everything one run's size depends on. fullSizing is what
// the benchmark runs; the tests shrink it.
type sizing struct {
	seconds  float64 // target length of the timed phase
	minUnits int     // fewest grids / replay passes measured

	setupReps  int // set-up repetitions whose median is setup_s
	setupGrids int // fig17-grid: device sets built per set-up repetition

	gridRequests int // requests per Fig. 17 cell
	gridWorkers  int

	replayRequests int     // requests in the generated Ali2 trace
	replayIOPS     float64 // Poisson arrival rate
	replaySlice    int64   // requests per replay latency slice

	missRequests int     // requests per cell of a miss job
	misses       int     // miss jobs per serve round
	hits         int     // hit jobs per serve round
	hitRate      float64 // hit arrivals per second
	minHits      int     // fewest hit samples a serve run collects
	minMisses    int     // fewest miss samples a serve run collects
	hotSpecs     int     // specs in the hot pool
	cellWorkers  int

	// strict requires every reported percentile to have at least ten
	// samples beyond it.
	strict bool
}

func fullSizing(seconds float64) sizing {
	return sizing{
		seconds:        seconds,
		minUnits:       3,
		setupReps:      5,
		setupGrids:     3,
		gridRequests:   3000,
		gridWorkers:    2,
		replayRequests: 400_000,
		replayIOPS:     30_000,
		replaySlice:    5_000,
		missRequests:   100,
		misses:         50,
		hits:           150,
		hitRate:        50,
		minHits:        1010,
		minMisses:      110,
		hotSpecs:       4,
		cellWorkers:    2,
		strict:         true,
	}
}

// run carries one invocation's settings and collects its outcome.
type run struct {
	workload string
	seed     uint64
	traced   bool
	size     sizing
	work     string // scratch directory, removed at exit
	outDir   string // where span files are written
	tr       *tracer

	metrics   map[string]float64
	attempted int
	failed    int
	problems  []string
	notes     []string
}

func newRun(workload string, seed uint64, traced bool, size sizing, work, outDir string) *run {
	r := &run{
		workload: workload, seed: seed, traced: traced, size: size,
		work: work, outDir: outDir, metrics: map[string]float64{},
	}
	if traced {
		r.tr = newTracer()
	}
	return r
}

func (r *run) set(name string, v float64) { r.metrics[name] = v }

func (r *run) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// fail records a failed check that cost n operations.
func (r *run) fail(n int, format string, args ...any) {
	r.failed += n
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// latency reports a latency population: its median as the workload's
// lat_p50_ms when primary, and in every case a note with the tail
// percentile and the sample counts. Tails are printed, not gated: on a
// VM with bursty hypervisor steal they move several times more than
// the median between quiet and busy periods.
func (r *run) latency(label string, ms []float64, tail float64, primary bool) {
	p50 := percentile(ms, 50)
	pt := percentile(ms, tail)
	beyond := samplesBeyond(len(ms), tail)
	r.notef("%s: p50=%.3f ms p%g=%.3f ms (n=%d, %d beyond p%g); p10/p25/p75/p90 %.3f/%.3f/%.3f/%.3f ms", label, p50, tail, pt, len(ms), beyond, tail,
		percentile(ms, 10), percentile(ms, 25), percentile(ms, 75), percentile(ms, 90))
	if r.size.strict && beyond < 10 {
		r.fail(0, "%s: only %d samples beyond p%g", label, beyond, tail)
	}
	if primary {
		r.set("lat_p50_ms", p50)
	}
}

func (r *run) execute() error {
	switch r.workload {
	case wGrid:
		return runGrid(r)
	case wReplay:
		return runReplay(r)
	case wServe:
		return runServe(r)
	}
	return fmt.Errorf("unknown workload %q (valid: %s)", r.workload, strings.Join(workloads, ", "))
}

// result is the JSON object printed as the last line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result assembles the reported metric set; a metric the workload did
// not produce is an error, never a silent zero.
func (r *run) result() (result, error) {
	names := endToEnd
	if r.traced {
		names = perLayer
	}
	out := result{
		Correct:   r.failed == 0 && len(r.problems) == 0 && r.attempted > 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   map[string]metricValue{},
	}
	var missing []string
	for _, m := range names {
		v, ok := r.metrics[m.name]
		if !ok {
			missing = append(missing, m.name)
			continue
		}
		out.Metrics[m.name] = metricValue{Value: v, Unit: m.unit}
	}
	if len(missing) > 0 {
		return out, fmt.Errorf("workload %s did not measure %s", r.workload, strings.Join(missing, ", "))
	}
	return out, nil
}

// hostLine records what every result depends on.
func hostLine() string {
	model := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, l := range strings.Split(string(b), "\n") {
			if strings.HasPrefix(l, "model name") {
				if i := strings.IndexByte(l, ':'); i >= 0 {
					model = strings.TrimSpace(l[i+1:])
				}
				break
			}
		}
	}
	h := map[string]any{
		"nproc":          runtime.NumCPU(),
		"gomaxprocs":     runtime.GOMAXPROCS(0),
		"go":             runtime.Version(),
		"cpu_model":      model,
		"recorded_nproc": recordedNproc,
		"nproc_mismatch": runtime.NumCPU() != recordedNproc,
	}
	b, _ := json.Marshal(h)
	return "host " + string(b)
}

// cpuSeconds is the process's user+system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return tvSeconds(ru.Utime) + tvSeconds(ru.Stime)
}

func tvSeconds(tv syscall.Timeval) float64 {
	return float64(tv.Sec) + float64(tv.Usec)/1e6
}

func main() {
	workload := flag.String("workload", "", "workload: "+strings.Join(workloads, ", "))
	seed := flag.Uint64("seed", 1, "seed every generated input derives from")
	seconds := flag.Float64("seconds", 20, "target length of the timed phase")
	traced := flag.Int("trace", 0, "1 runs the traced per-layer measurement instead of the end-to-end one")
	work := flag.String("work", "", "scratch directory for traces, store and journal (created, then removed)")
	outDir := flag.String("out", "", "directory receiving the traced run's span file (default: next to -work)")
	flag.Parse()
	if *work == "" || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need -workload, -work, -seconds > 0 and -trace 0|1")
		os.Exit(2)
	}
	if *outDir == "" {
		*outDir = filepath.Dir(filepath.Clean(*work))
	}
	time.AfterFunc(deadline, func() {
		fmt.Fprintln(os.Stderr, "perfbench: run exceeded", deadline)
		os.Exit(3)
	})
	if err := os.MkdirAll(*work, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	r := newRun(*workload, *seed, *traced == 1, fullSizing(*seconds), *work, *outDir)
	fmt.Println(hostLine())
	err := r.execute()
	os.RemoveAll(*work)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if r.tr != nil {
		path := filepath.Join(*outDir, fmt.Sprintf("spans-%s-seed%d.json", r.workload, r.seed))
		if err := r.tr.write(path); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		r.notef("spans: %d written to %s", r.tr.len(), path)
	}
	res, err := r.result()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	for _, n := range r.notes {
		fmt.Println(n)
	}
	for _, p := range r.problems {
		fmt.Println("CHECK FAILED:", p)
	}
	keys := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("metric %-28s %14.6g %s\n", k, res.Metrics[k].Value, res.Metrics[k].Unit)
	}
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
}
