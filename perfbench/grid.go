package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/obs"
	"repro/internal/ssd"
	"repro/internal/trace"
)

// fig17Header is the first line of the Fig. 17 report.
const fig17Header = "Fig. 17 — I/O bandwidth normalized to SENC\n"

// gridCell is one (scheme, workload, P/E) cell of the Fig. 17 grid, in
// the order core.CompareSchemes enumerates them.
type gridCell struct {
	scheme   ssd.Scheme
	workload string
	pe       int
}

func fig17Cells() []gridCell {
	var cells []gridCell
	for _, pe := range core.PaperPECycles {
		for _, w := range trace.Names() {
			for _, s := range ssd.AllSchemes() {
				cells = append(cells, gridCell{s, w, pe})
			}
		}
	}
	return cells
}

func (r *run) gridParams() core.RunParams {
	p := core.DefaultRunParams()
	p.Requests = r.size.gridRequests
	p.Seed = r.seed
	p.Workers = r.size.gridWorkers
	return p
}

// cellWorkload builds the Table II generator a cell runs, exactly as
// core.RunOne does.
func cellWorkload(p core.RunParams, name string) (*trace.Generator, error) {
	spec, err := trace.ByName(name)
	if err != nil {
		return nil, err
	}
	if p.FootprintPages > 0 {
		spec.FootprintPages = p.FootprintPages
	}
	return trace.NewGenerator(spec, p.Seed)
}

// buildCell constructs one cell's device.
func buildCell(p core.RunParams, c gridCell, wrap func(*trace.Generator) ssd.Workload) (*ssd.SSD, error) {
	g, err := cellWorkload(p, c.workload)
	if err != nil {
		return nil, err
	}
	var w ssd.Workload = g
	if wrap != nil {
		w = wrap(g)
	}
	return ssd.New(p.BuildConfig(c.scheme, c.pe), w)
}

// cellClock times grid cells from outside core.RunExperiment: the
// fleet executor polls RunParams.Stop on a worker goroutine just
// before each cell starts, so the time between two polls on one
// goroutine is one cell. The last cell of each worker has no closing
// poll and is not counted.
type cellClock struct {
	mu   sync.Mutex
	last map[uint64]time.Time
	lat  []float64
}

func (c *cellClock) poll() bool {
	now := time.Now()
	id := goid()
	c.mu.Lock()
	if t, ok := c.last[id]; ok {
		c.lat = append(c.lat, ms(now.Sub(t)))
	}
	c.last[id] = now
	c.mu.Unlock()
	return false
}

func (c *cellClock) reset() {
	c.mu.Lock()
	c.last = map[uint64]time.Time{}
	c.mu.Unlock()
}

// gridReports checks every grid's report: the first must be complete,
// and every later one, traced or not, byte-identical to it.
type gridReports struct{ first []byte }

func (g *gridReports) check(report []byte) error {
	if g.first == nil {
		g.first = report
		return checkGridReport(report)
	}
	if !bytes.Equal(report, g.first) {
		return fmt.Errorf("report differs from the first grid's under the same seed")
	}
	return nil
}

// runGrid is the fig17-grid workload: `rifsim -fig 17` at default
// sizing, repeated until the timed phase is over.
func runGrid(r *run) error {
	p := r.gridParams()
	cells := fig17Cells()

	// Set-up: construct every cell's device on the grid's workers, as
	// each grid does before simulating (config + workload generator +
	// ssd.New). Each repetition starts from a collected heap, so the
	// previous one's garbage does not decide when this one's
	// collections run.
	var setups, setupSteals []float64
	for i := 0; i < r.size.setupReps; i++ {
		runtime.GC()
		u := startUnit()
		err := fleet.Run(r.size.setupGrids*len(cells), p.Workers, func(k int) error {
			_, err := buildCell(p, cells[k%len(cells)], nil)
			return err
		})
		ut := u.stop()
		if err != nil {
			return err
		}
		setups = append(setups, ut.seconds())
		setupSteals = append(setupSteals, 100*ut.steal)
	}
	r.set("setup_s", median(setups))

	reports := &gridReports{}
	if r.traced {
		return traceGrid(r, p, reports)
	}

	clock := &cellClock{}
	q := p
	q.Stop = clock.poll
	var rates, raw, cpus, mems, steals []float64
	rss := watchRSS()
	defer rss.close()
	start := time.Now()
	for n := 0; n < r.size.minUnits || time.Since(start).Seconds() < r.size.seconds; n++ {
		clock.reset()
		rss.take()
		var buf bytes.Buffer
		from, u := len(clock.lat), startUnit()
		err := core.RunExperiment(&buf, "17", q)
		ut := u.stop()
		for i := from; i < len(clock.lat); i++ {
			clock.lat[i] *= ut.scale()
		}
		steals = append(steals, 100*ut.steal)
		cpus = append(cpus, ut.cpu)
		mems = append(mems, rss.take())
		r.attempted += len(cells)
		if err != nil {
			r.fail(len(cells), "grid %d: %v", n, err)
			continue
		}
		rates = append(rates, float64(len(cells)*p.Requests)/ut.seconds())
		raw = append(raw, float64(len(cells)*p.Requests)/ut.wall.Seconds())
		if err := reports.check(buf.Bytes()); err != nil {
			r.fail(len(cells), "grid %d: %v", n, err)
		}
	}
	r.set("sim_req_per_s", median(rates))
	r.set("cpu_s", median(cpus))
	r.set("peak_mem_mib", median(mems))
	r.latency("fig17 cell latency", clock.lat, 90, true)
	r.notef("fig17-grid: set-up s %.4f, host steal %% %.1f", setups, setupSteals)
	r.notef("fig17-grid: %d grids, report sha256=%s", len(rates), sha(reports.first))
	r.notef("fig17-grid: per-grid sim req/s %.0f (raw wall %.0f), CPU s %.3f, host steal %% %.1f", rates, raw, cpus, steals)

	// Spot check, untimed: recompute one seed-chosen column of the grid
	// through core.RunOne and compare it with the report.
	if reports.first != nil {
		col := spotColumn(r.seed)
		got, err := spotRatios(p, col)
		r.attempted += len(ssd.AllSchemes())
		if err != nil {
			r.fail(len(ssd.AllSchemes()), "spot check: %v", err)
		} else if err := checkSpot(reports.first, col, got); err != nil {
			r.fail(len(ssd.AllSchemes()), "spot check: %v", err)
		}
	}
	return nil
}

func sha(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:])
}

// gridEntries parses the normalized-bandwidth table of a Fig. 17
// report into (P/E, scheme, workload) -> printed ratio.
func gridEntries(report []byte) (map[gridCell]string, error) {
	out := map[gridCell]string{}
	lines := strings.Split(string(report), "\n")
	if len(lines) == 0 || lines[0]+"\n" != fig17Header {
		return nil, fmt.Errorf("report does not start with the Fig. 17 header")
	}
	schemes := map[string]ssd.Scheme{}
	for _, s := range ssd.AllSchemes() {
		schemes[s.String()] = s
	}
	pe := -1
	for _, l := range lines[1:] {
		if l == "" {
			break // the tables end at the first blank line; a bar chart follows
		}
		var k int
		if n, _ := fmt.Sscanf(l, "== %dK P/E cycles", &k); n == 1 {
			pe = k * 1000
			continue
		}
		f := strings.Fields(l)
		if len(f) == 0 || pe < 0 {
			continue
		}
		s, ok := schemes[f[0]]
		if !ok {
			continue
		}
		names := trace.Names()
		if len(f) != len(names)+2 {
			return nil, fmt.Errorf("%dK P/E row %q has %d fields, want %d", pe/1000, l, len(f), len(names)+2)
		}
		for i, w := range names {
			out[gridCell{s, w, pe}] = f[i+1]
		}
	}
	return out, nil
}

// checkGridReport verifies a Fig. 17 report is complete: every one of
// the 168 cells carries a positive normalized bandwidth and the SENC
// baseline row reads 1.00.
func checkGridReport(report []byte) error {
	entries, err := gridEntries(report)
	if err != nil {
		return err
	}
	cells := fig17Cells()
	for _, c := range cells {
		v, ok := entries[c]
		if !ok {
			return fmt.Errorf("cell %v/%s/%d missing", c.scheme, c.workload, c.pe)
		}
		x, err := strconv.ParseFloat(v, 64)
		if err != nil || x <= 0 {
			return fmt.Errorf("cell %v/%s/%d reads %q", c.scheme, c.workload, c.pe, v)
		}
		if c.scheme == ssd.Sentinel && v != "1.00" {
			return fmt.Errorf("SENC baseline %s/%d reads %q", c.workload, c.pe, v)
		}
	}
	if len(entries) != len(cells) {
		return fmt.Errorf("report has %d cells, want %d", len(entries), len(cells))
	}
	return nil
}

// spotColumn picks the (workload, P/E) column the spot check
// recomputes.
func spotColumn(seed uint64) gridCell {
	names := trace.Names()
	return gridCell{workload: names[seed%uint64(len(names))],
		pe: core.PaperPECycles[(seed/uint64(len(names)))%uint64(len(core.PaperPECycles))]}
}

// spotRatios recomputes one column through core.RunOne and formats
// each scheme's ratio to SENC as the report prints it.
func spotRatios(p core.RunParams, col gridCell) (map[ssd.Scheme]string, error) {
	p.Stop = nil
	bw := map[ssd.Scheme]float64{}
	for _, s := range ssd.AllSchemes() {
		m, err := core.RunOne(p, s, col.workload, col.pe)
		if err != nil {
			return nil, err
		}
		bw[s] = m.Bandwidth()
	}
	out := map[ssd.Scheme]string{}
	for s, v := range bw {
		out[s] = fmt.Sprintf("%.2f", v/bw[ssd.Sentinel])
	}
	return out, nil
}

func checkSpot(report []byte, col gridCell, want map[ssd.Scheme]string) error {
	entries, err := gridEntries(report)
	if err != nil {
		return err
	}
	for s, v := range want {
		if got := entries[gridCell{s, col.workload, col.pe}]; got != v {
			return fmt.Errorf("%v/%s/%d: report %q, recomputed %q", s, col.workload, col.pe, got, v)
		}
	}
	return nil
}

// timedWorkload wraps a generator so every Next is counted and timed.
type timedWorkload struct {
	g   *trace.Generator
	agg *aggregate
}

func (w *timedWorkload) Next() trace.Request {
	t := time.Now()
	req := w.g.Next()
	w.agg.add(time.Since(t))
	return req
}

func (w *timedWorkload) InitialAgeDays(lpn int64) float64 { return w.g.InitialAgeDays(lpn) }

// cellSpans records spans around every cell of a traced grid from
// outside core.RunExperiment: the executor polls RunParams.Stop on the
// worker goroutine just before the cell starts, and core.RunOne hands
// the cell's manifest to the collection's OnAdd hook on that goroutine
// right after ssd.Run, with the Run's wall time in it. Each cell gets a
// "cell" span with an "ssd.New" child (generator, config and device
// construction) and an "ssd.Run" child.
type cellSpans struct {
	tr     *tracer
	parent int64
	mu     sync.Mutex
	start  map[uint64]time.Time
}

func (c *cellSpans) poll() bool {
	now := time.Now()
	id := goid()
	c.mu.Lock()
	c.start[id] = now
	c.mu.Unlock()
	return false
}

func (c *cellSpans) done(m obs.Manifest) {
	end := time.Now()
	c.mu.Lock()
	t0 := c.start[goid()]
	c.mu.Unlock()
	run := end.Add(-time.Duration(m.WallTimeS * float64(time.Second)))
	id := c.tr.newID()
	c.tr.recordSpan(id, c.parent, "cell", t0, end)
	c.tr.recordSpan(c.tr.newID(), id, "ssd.New", t0, run)
	c.tr.recordSpan(c.tr.newID(), id, "ssd.Run", run, end)
}

// addCellWork reports the fleet, sim and ssd work of a traced unit's
// cells from their manifests: cellMS are the cells' times, wall the
// unit's.
func addCellWork(r *run, runs []obs.Manifest, cellMS []float64, workers int, wall time.Duration) {
	var events, maxPend, reads, rounds, rvs, avoided, gcs, reloc, runS float64
	for _, m := range runs {
		ctr := m.Metrics.Counters
		events += float64(ctr["sim_events_processed_total"])
		maxPend = max(maxPend, float64(m.Metrics.Gauges["sim_event_heap_highwater"]))
		reads += float64(ctr["ssd_page_reads_total"])
		rounds += float64(ctr["ssd_retry_rounds_total"])
		rvs += float64(ctr["odear_rvs_rereads_total"])
		avoided += float64(ctr["odear_avoided_transfers_total"])
		gcs += float64(ctr["ssd_gc_runs_total"])
		reloc += float64(ctr["ssd_gc_pages_relocated_total"])
		runS += m.WallTimeS
	}
	r.set("fleet.cells", float64(len(runs)))
	r.set("fleet.cell_p50_ms", median(cellMS))
	r.set("fleet.cell_max_ms", maxOf(cellMS))
	r.set("fleet.busy_frac", sum(cellMS)/(float64(workers)*ms(wall)))
	r.set("sim.events", events)
	r.set("sim.events_per_s", events/runS)
	r.set("sim.max_pending", maxPend)
	r.set("ssd.page_reads", reads)
	r.set("ssd.retry_rounds", rounds)
	r.set("ssd.rvs_rereads", rvs)
	r.set("ssd.avoided_transfers", avoided)
	r.set("ssd.gc_runs", gcs)
	r.set("ssd.pages_relocated", reloc)
}

// probeCells runs cells one at a time on this goroutine and reports
// the per-request cost of the device layer: wall time and heap
// allocations (runtime/metrics deltas) per simulated request, and the
// median ssd.New time. A non-nil next times every workload Next and
// reports trace.ns_per_req.
func probeCells(r *run, p core.RunParams, cells []gridCell, next *aggregate) error {
	var wrap func(*trace.Generator) ssd.Workload
	if next != nil {
		wrap = func(g *trace.Generator) ssd.Workload { return &timedWorkload{g, next} }
	}
	var wall time.Duration
	var reqs int
	var builds []float64
	a := startAllocs()
	for _, c := range cells {
		id := r.tr.newID()
		t0 := time.Now()
		dev, err := buildCell(p, c, wrap)
		build := time.Since(t0)
		if err != nil {
			return err
		}
		m, err := dev.Run(p.Requests)
		wall += r.tr.record(id, 0, "probe.cell", t0)
		if err != nil {
			return err
		}
		builds = append(builds, ms(build))
		reqs += m.RequestsCompleted
	}
	objs, b := a.since()
	r.set("ssd.us_per_req", float64(wall.Microseconds())/float64(reqs))
	r.set("ssd.allocs_per_req", objs/float64(reqs))
	r.set("ssd.bytes_per_req", b/float64(reqs))
	r.set("ssd.build_ms", median(builds))
	r.notef("device probe: %d cells, %d requests, one at a time", len(cells), reqs)
	if next != nil {
		r.set("trace.ns_per_req", next.nsPer())
	}
	return nil
}

// bypassed reports 0 for every named per-layer metric: the workload
// does not reach that layer.
func (r *run) bypassed(names ...string) {
	for _, n := range names {
		r.set(n, 0)
	}
}

var (
	fleetMetrics       = []string{"fleet.cells", "fleet.cell_p50_ms", "fleet.cell_max_ms", "fleet.busy_frac", "fleet.steals"}
	replayMetrics      = []string{"replay.heap_mib_max", "replay.held_arrivals", "replay.peak_inflight"}
	resultcacheMetrics = []string{"resultcache.key_us", "resultcache.get_us", "resultcache.store_get_us",
		"resultcache.store_put_us", "resultcache.hits", "resultcache.misses", "resultcache.dedup"}
	serveMetrics = []string{"serve.submit_ms", "serve.queue_wait_ms", "serve.compute_ms", "serve.finish_ms",
		"serve.report_ms", "serve.hit_late_ms", "serve.hit_p50_ms", "serve.hit_p90_ms", "serve.rejected"}
)

// traceGrid is fig17-grid's traced run: one grid through
// core.RunExperiment on a fleet.Scheduler, with a manifest collection,
// cell spans and a CPU profile, bracketed by two untraced grids. Every
// grid's report must equal the first's byte for byte. The device layer's
// per-request cost and the generator's Next come from probe cells run
// one at a time afterwards.
func traceGrid(r *run, p core.RunParams, reports *gridReports) error {
	n := len(fig17Cells())
	grid := func(label string, q core.RunParams) (time.Duration, error) {
		var buf bytes.Buffer
		t0 := time.Now()
		err := core.RunExperiment(&buf, "17", q)
		d := time.Since(t0)
		r.attempted += n
		if err != nil {
			return d, err
		}
		if err := reports.check(buf.Bytes()); err != nil {
			r.fail(n, "%s grid: %v", label, err)
		}
		return d, nil
	}
	before, err := grid("untraced", p)
	if err != nil {
		return err
	}

	prof, err := startProfiler()
	if err != nil {
		return err
	}
	root := r.tr.newID()
	spans := &cellSpans{tr: r.tr, parent: root, start: map[uint64]time.Time{}}
	coll := obs.NewCollection()
	coll.SetOnAdd(spans.done)
	sched := fleet.NewScheduler(p.Workers)
	q := p
	q.Pool, q.Stop, q.Collect = sched, spans.poll, coll
	q.Tool, q.Experiment = "perfbench", "fig17"
	t1 := time.Now()
	traced, err := grid("traced", q)
	r.tr.recordSpan(root, 0, "grid", t1, t1.Add(traced))
	steals := sched.Steals()
	sched.Stop()
	if ferr := prof.finish(r); ferr != nil {
		return ferr
	}
	if err != nil {
		return err
	}
	after, err := grid("untraced", p)
	if err != nil {
		return err
	}
	untraced := (before + after) / 2

	addCellWork(r, coll.Runs(), r.tr.durations("cell"), p.Workers, traced)
	r.set("fleet.steals", float64(steals))
	r.set("tracing.overhead_pct", 100*(traced.Seconds()/untraced.Seconds()-1))
	r.bypassed(replayMetrics...)
	r.bypassed(resultcacheMetrics...)
	r.bypassed(serveMetrics...)

	// Allocation cost per request, one cell at a time: RiF and SENC on
	// every workload at 2K P/E.
	var probe []gridCell
	for _, w := range trace.Names() {
		probe = append(probe, gridCell{ssd.RiF, w, 2000}, gridCell{ssd.Sentinel, w, 2000})
	}
	if err := probeCells(r, p, probe, r.tr.agg("trace.Generator.Next")); err != nil {
		return err
	}
	r.notef("fig17-grid traced: untraced grids %.2f s and %.2f s, traced grid %.2f s, report sha256=%s",
		before.Seconds(), after.Seconds(), traced.Seconds(), sha(reports.first))
	return nil
}
