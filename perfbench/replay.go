package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"repro/internal/core"
	"repro/internal/nand"
	"repro/internal/obs"
	"repro/internal/replay"
	"repro/internal/sim"
	"repro/internal/ssd"
	"repro/internal/trace"
)

// replayInput is the generated trace file and what it must replay to.
type replayInput struct {
	path     string
	sha      string
	requests int
	reads    int64
}

// generateTrace writes a seeded Ali2 trace the way cmd/tracegen does:
// Table II generator requests stamped with Poisson arrivals.
func generateTrace(path string, seed uint64, n int, iops float64) (replayInput, error) {
	in := replayInput{path: path, requests: n}
	spec, err := trace.ByName("Ali2")
	if err != nil {
		return in, err
	}
	g, err := trace.NewGenerator(spec, seed)
	if err != nil {
		return in, err
	}
	f, err := os.Create(path)
	if err != nil {
		return in, err
	}
	defer f.Close()
	h := sha256.New()
	cw := trace.NewCSVWriter(io.MultiWriter(f, h))
	arrivals := sim.NewRNG(seed, 0x77)
	var at sim.Time
	for i := 0; i < n; i++ {
		req := g.Next()
		at += sim.Time(arrivals.Exponential(1e9 / iops))
		req.At = at
		if req.Op == trace.Read {
			in.reads++
		}
		if err := cw.Write(req); err != nil {
			return in, err
		}
	}
	if err := cw.Flush(); err != nil {
		return in, err
	}
	in.sha = hex.EncodeToString(h.Sum(nil))
	return in, f.Close()
}

// checkTraceFile verifies the trace on disk is still the one generated.
func checkTraceFile(in replayInput) error {
	f, err := os.Open(in.path)
	if err != nil {
		return err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return err
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != in.sha {
		return fmt.Errorf("trace file sha256 %s, generated %s", got, in.sha)
	}
	return nil
}

// timedSource counts and times every Source.Next of a replay.
type timedSource struct {
	s   trace.Stream
	agg *aggregate
}

func (t *timedSource) Next() (trace.Request, error) {
	t0 := time.Now()
	req, err := t.s.Next()
	t.agg.add(time.Since(t0))
	return req, err
}

func (r *run) replayConfig() ssd.Config {
	p := core.DefaultRunParams()
	p.Seed = r.seed
	return p.BuildConfig(ssd.RiF, 2000)
}

// replayPass is one open-loop replay of the generated trace, streamed
// from the file the way `rifsim -replay` streams it.
type replayPass struct {
	res    *replay.Result
	wall   time.Duration
	slices []float64 // host ms per replaySlice requests
}

func (r *run) replayOnce(in replayInput, maxRequests int64, reg *obs.Registry, wrap func(trace.Stream) replay.Source, progress func()) (replayPass, error) {
	var pass replayPass
	f, err := os.Open(in.path)
	if err != nil {
		return pass, err
	}
	defer f.Close()
	t0 := time.Now()
	stream, err := trace.NewStream(bufio.NewReaderSize(f, 1<<16), nand.PaperGeometry().PageBytes, -1)
	if err != nil {
		return pass, err
	}
	var src replay.Source = stream
	if wrap != nil {
		src = wrap(stream)
	}
	arr, err := replay.NewPoisson(r.size.replayIOPS, r.seed)
	if err != nil {
		return pass, err
	}
	cfg := r.replayConfig()
	cfg.Obs = reg
	last := t0
	pass.res, err = replay.Run(src, replay.Options{
		Config:         cfg,
		Arrivals:       arr,
		MaxRequests:    maxRequests,
		FootprintPages: core.DefaultRunParams().FootprintPages,
		ProgressEvery:  r.size.replaySlice,
		Progress: func(int64) {
			now := time.Now()
			pass.slices = append(pass.slices, ms(now.Sub(last)))
			last = now
			if progress != nil {
				progress()
			}
		},
	})
	pass.wall = time.Since(t0)
	return pass, err
}

// replaySummary renders a replay's outcome; every pass over the same
// trace must render identically.
func replaySummary(res *replay.Result) string {
	m := res.Metrics
	return fmt.Sprintf("requests=%d completed=%d sketch_n=%d p50=%.3fus p99=%.3fus p99.9=%.3fus makespan=%d bw=%.6f held=%d peak_inflight=%d",
		res.Requests, m.RequestsCompleted, res.Latency.N(), res.Latency.Percentile(50), res.Latency.Percentile(99),
		res.Latency.Percentile(99.9), int64(m.Makespan), m.Bandwidth(), m.HeldArrivals, m.PeakInFlight)
}

// checkReplay verifies one pass replayed the whole trace: every
// generated request completed and the latency sketch holds exactly
// one sample per read.
func checkReplay(res *replay.Result, in replayInput) error {
	if res.Requests != int64(in.requests) || res.Metrics.RequestsCompleted != in.requests {
		return fmt.Errorf("replayed %d requests (%d completed), generated %d", res.Requests, res.Metrics.RequestsCompleted, in.requests)
	}
	if res.Latency.N() != in.reads {
		return fmt.Errorf("latency sketch holds %d samples, trace has %d reads", res.Latency.N(), in.reads)
	}
	return nil
}

// runReplay is the replay-ali2 workload: a generated Ali2 trace
// streamed open-loop through one RiF device at 2K P/E.
func runReplay(r *run) error {
	// Set-up: write the seeded trace, then open the stream through the
	// first admitted request. Every repetition must write the same bytes.
	var in replayInput
	var setups []float64
	for i := 0; i < r.size.setupReps; i++ {
		u := startUnit()
		gen, err := generateTrace(filepath.Join(r.work, "ali2.csv"), r.seed, r.size.replayRequests, r.size.replayIOPS)
		if err != nil {
			return err
		}
		if _, err := r.replayOnce(gen, 1, nil, nil, nil); err != nil {
			return err
		}
		setups = append(setups, u.stop().seconds())
		if i > 0 && gen.sha != in.sha {
			r.fail(0, "set-up %d wrote a different trace (sha256 %s, first %s)", i, gen.sha, in.sha)
		}
		in = gen
	}
	r.set("setup_s", median(setups))
	r.notef("replay-ali2: trace %d requests (%d reads), sha256=%s", in.requests, in.reads, in.sha)

	if r.traced {
		return traceReplay(r, in)
	}

	var rates, raw, cpus, mems, slices, steals []float64
	var want string
	rss := watchRSS()
	defer rss.close()
	start := time.Now()
	for n := 0; n < r.size.minUnits || time.Since(start).Seconds() < r.size.seconds; n++ {
		rss.take()
		u := startUnit()
		pass, err := r.replayOnce(in, 0, nil, nil, nil)
		ut := u.stop()
		cpus = append(cpus, ut.cpu)
		steals = append(steals, 100*ut.steal)
		mems = append(mems, rss.take())
		r.attempted += in.requests
		if err != nil {
			r.fail(in.requests, "pass %d: %v", n, err)
			continue
		}
		if err := checkReplay(pass.res, in); err != nil {
			r.fail(in.requests, "pass %d: %v", n, err)
			continue
		}
		sum := replaySummary(pass.res)
		if want == "" {
			want = sum
			r.notef("replay-ali2: %s", sum)
		} else if sum != want {
			r.fail(in.requests, "pass %d: outcome %q differs from pass 0 %q", n, sum, want)
		}
		rates = append(rates, float64(pass.res.Requests)/(pass.wall.Seconds()*ut.scale()))
		raw = append(raw, float64(pass.res.Requests)/pass.wall.Seconds())
		for _, s := range pass.slices {
			slices = append(slices, s*ut.scale())
		}
	}
	if err := checkTraceFile(in); err != nil {
		r.fail(in.requests, "%v", err)
	}
	r.set("sim_req_per_s", median(rates))
	r.set("cpu_s", median(cpus))
	r.set("peak_mem_mib", median(mems))
	r.latency(fmt.Sprintf("replay %d-request slice latency", r.size.replaySlice), slices, 90, true)
	r.notef("replay-ali2: %d passes; per-pass sim req/s %.0f (raw wall %.0f), CPU s %.3f, host steal %% %.1f", len(rates), rates, raw, cpus, steals)
	return nil
}

// traceReplay is replay-ali2's traced run: one traced pass with an obs
// registry, a timed Source.Next, heap sampling through
// Options.Progress and a CPU profile, bracketed by two untraced passes
// (the first's allocations give the per-request device cost).
func traceReplay(r *run, in replayInput) error {
	a := startAllocs()
	base, err := r.replayOnce(in, 0, nil, nil, nil)
	objs, bytes := a.since()
	r.attempted += in.requests
	if err != nil {
		return err
	}
	if err := checkReplay(base.res, in); err != nil {
		r.fail(in.requests, "untraced pass: %v", err)
	}
	reqs := float64(base.res.Requests)
	r.set("ssd.us_per_req", float64(base.wall.Microseconds())/reqs)
	r.set("ssd.allocs_per_req", objs/reqs)
	r.set("ssd.bytes_per_req", bytes/reqs)

	var builds []float64
	params := core.DefaultRunParams()
	params.Seed = r.seed
	for i := 0; i < r.size.setupReps; i++ {
		g, err := cellWorkload(params, "Ali2")
		if err != nil {
			return err
		}
		cfg := r.replayConfig()
		cfg.OpenLoop = true
		cfg.MaxInFlight = replay.DefaultMaxInFlight
		t0 := time.Now()
		if _, err := ssd.New(cfg, g); err != nil {
			return err
		}
		builds = append(builds, ms(r.tr.record(0, 0, "ssd.New", t0)))
	}
	r.set("ssd.build_ms", median(builds))

	prof, err := startProfiler()
	if err != nil {
		return err
	}
	reg := obs.NewRegistry()
	next := r.tr.agg("trace.Stream.Next")
	heapMax := 0.0
	root := r.tr.newID()
	t0 := time.Now()
	pass, err := r.replayOnce(in, 0, reg,
		func(s trace.Stream) replay.Source { return &timedSource{s, next} },
		func() { heapMax = max(heapMax, liveHeapMiB()) })
	r.tr.record(root, 0, "replay.pass", t0)
	if ferr := prof.finish(r); ferr != nil {
		return ferr
	}
	r.attempted += in.requests
	if err != nil {
		r.fail(in.requests, "traced pass: %v", err)
		return nil
	}
	if got, want := replaySummary(pass.res), replaySummary(base.res); got != want {
		r.fail(in.requests, "traced pass outcome %q differs from untraced %q", got, want)
	}
	after, err := r.replayOnce(in, 0, nil, nil, nil)
	r.attempted += in.requests
	if err != nil {
		return err
	}
	if got, want := replaySummary(after.res), replaySummary(base.res); got != want {
		r.fail(in.requests, "second untraced pass outcome %q differs from the first %q", got, want)
	}
	untraced := (base.wall + after.wall) / 2
	snap := reg.Snapshot()
	m := pass.res.Metrics
	events := float64(snap.Counters["sim_events_processed_total"])
	r.set("sim.events", events)
	r.set("sim.events_per_s", events/pass.wall.Seconds())
	r.set("sim.max_pending", float64(snap.Gauges["sim_event_heap_highwater"]))
	r.set("ssd.page_reads", float64(m.PageReads))
	r.set("ssd.retry_rounds", float64(m.RetryRounds))
	r.set("ssd.rvs_rereads", float64(m.RVSRereads))
	r.set("ssd.avoided_transfers", float64(m.AvoidedTransfers))
	r.set("ssd.gc_runs", float64(m.GCRuns))
	r.set("ssd.pages_relocated", float64(m.PagesRelocated))
	r.set("trace.ns_per_req", next.nsPer())
	r.set("replay.heap_mib_max", heapMax)
	r.set("replay.held_arrivals", float64(m.HeldArrivals))
	r.set("replay.peak_inflight", float64(m.PeakInFlight))
	r.set("tracing.overhead_pct", 100*(pass.wall.Seconds()/untraced.Seconds()-1))
	r.bypassed(fleetMetrics...)
	r.bypassed(resultcacheMetrics...)
	r.bypassed(serveMetrics...)
	r.notef("replay-ali2 traced: untraced passes %.2f s and %.2f s, traced pass %.2f s", base.wall.Seconds(), after.wall.Seconds(), pass.wall.Seconds())
	return nil
}
