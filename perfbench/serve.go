package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/resultcache"
	"repro/internal/serve"
	"repro/internal/ssd"
)

// servedExperiment is the experiment every serve job runs: Fig. 18's
// 30 small cells.
const servedExperiment = "18"

// server is an in-process rifserve on a loopback listener.
type server struct {
	dir  string
	srv  *serve.Server
	hs   *http.Server
	base string
	done chan struct{}
}

// startServer starts rifserve the way cmd/rifserve wires it, with the
// memory cache on and the durable store + journal under dir.
func startServer(dir string, cellWorkers int) (*server, error) {
	srv := serve.New(serve.Config{
		CacheBytes:  serve.DefaultCacheBytes,
		CellWorkers: cellWorkers,
		StoreDir:    filepath.Join(dir, "store"),
		JournalPath: filepath.Join(dir, "journal.ndjson"),
		Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		},
	})
	srv.Start()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Stop()
		return nil, err
	}
	s := &server{dir: dir, srv: srv, hs: &http.Server{Handler: srv.Handler()}, base: "http://" + ln.Addr().String(), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		s.hs.Serve(ln)
	}()
	return s, nil
}

func (s *server) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	s.hs.Shutdown(ctx)
	<-s.done
	s.srv.Stop()
}

// client is one HTTP client holding a single connection.
type client struct {
	hc   *http.Client
	base string
}

func newClient(base string) *client {
	return &client{base: base, hc: &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
	}}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// timedEvent is one NDJSON progress event and when it arrived.
type timedEvent struct {
	serve.Event
	at time.Time
}

// jobRun is one job as the client saw it: submit, progress events,
// terminal event, then the /report bytes.
type jobRun struct {
	spec     serve.JobSpec
	due      time.Time // scheduled send time
	sent     time.Time
	events   []timedEvent
	reportAt time.Time
	report   []byte
	err      error
}

func (j *jobRun) terminal() serve.Event { return j.events[len(j.events)-1].Event }

// latency is submit → terminal event → report bytes, from the
// scheduled send time.
func (j *jobRun) latency() float64 { return ms(j.reportAt.Sub(j.due)) }

// run submits spec and follows it to its report.
func (c *client) run(spec serve.JobSpec, due time.Time) *jobRun {
	j := &jobRun{spec: spec, due: due}
	j.err = c.follow(j)
	return j
}

func (c *client) follow(j *jobRun) error {
	body, err := json.Marshal(j.spec)
	if err != nil {
		return err
	}
	j.sent = time.Now()
	resp, err := c.hc.Post(c.base+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return fmt.Errorf("submit: HTTP %d", resp.StatusCode)
	}
	br := bufio.NewReader(resp.Body)
	for {
		line, err := br.ReadBytes('\n')
		if len(bytes.TrimSpace(line)) > 0 {
			ev := timedEvent{at: time.Now()}
			if jerr := json.Unmarshal(line, &ev.Event); jerr != nil {
				return fmt.Errorf("event %q: %w", line, jerr)
			}
			j.events = append(j.events, ev)
			if serve.State(ev.Event.Event).Terminal() {
				break
			}
		}
		if err != nil {
			return fmt.Errorf("event stream ended before a terminal event: %w", err)
		}
	}
	io.Copy(io.Discard, resp.Body)
	if st := j.terminal(); st.Event != string(serve.Done) {
		return fmt.Errorf("job %s ended %s %s", st.Job, st.Event, st.Error)
	}
	j.report, err = c.get("/jobs/" + j.terminal().Job + "/report")
	j.reportAt = time.Now()
	return err
}

// get fetches an endpoint's body.
func (c *client) get(path string) ([]byte, error) {
	resp, err := c.hc.Get(c.base + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("GET %s: HTTP %d", path, resp.StatusCode)
	}
	return b, err
}

// promValue reads one unlabelled sample from Prometheus text.
func promValue(text []byte, name string) float64 {
	for _, l := range strings.Split(string(text), "\n") {
		if f := strings.Fields(l); len(f) == 2 && f[0] == name {
			v, _ := strconv.ParseFloat(f[1], 64)
			return v
		}
	}
	return 0
}

// hotSpec and missSpec derive distinct job seeds from the run seed: the hot pool
// and the misses never share a cache key.
func hotSpec(runSeed uint64, k, requests int) serve.JobSpec {
	return serve.JobSpec{Experiment: servedExperiment, Requests: requests, Seed: runSeed*1_000_003 + 1 + uint64(k)}
}

func missSpec(runSeed uint64, i, requests int) serve.JobSpec {
	return serve.JobSpec{Experiment: servedExperiment, Requests: requests, Seed: runSeed*1_000_003 + 1000 + uint64(i)}
}

// hotEntry is one hot-pool spec and its first computed report.
type hotEntry struct {
	spec   serve.JobSpec
	report []byte
	job    string // the warm-up job that computed it
}

// serveSetup starts a fresh server and warms the hot pool through it.
func (r *run) serveSetup(rep int) (*server, []hotEntry, error) {
	srv, err := startServer(filepath.Join(r.work, fmt.Sprintf("serve-%d", rep)), r.size.cellWorkers)
	if err != nil {
		return nil, nil, err
	}
	c := newClient(srv.base)
	defer c.close()
	var hot []hotEntry
	for k := 0; k < r.size.hotSpecs; k++ {
		j := c.run(hotSpec(r.seed, k, r.size.missRequests), time.Now())
		if j.err != nil {
			srv.stop()
			return nil, nil, fmt.Errorf("warming hot spec %d: %w", k, j.err)
		}
		hot = append(hot, hotEntry{j.spec, j.report, j.terminal().Job})
	}
	return srv, hot, nil
}

// mixPhase is one timed hit/miss mix and what the clients saw.
type mixPhase struct {
	hits, misses []*jobRun
	late         []float64 // hit generator lateness, ms
	missWall     time.Duration
	time         unitTime
}

// runMix drives the mix: one closed-loop miss client submitting unique
// specs one at a time, and one open-loop hit client sending Poisson
// arrivals over the hot pool. Each client holds one connection.
func (r *run) runMix(srv *server, hot []hotEntry, nHits, nMisses, missBase int, rngSeed uint64) mixPhase {
	var ph mixPhase
	var wg sync.WaitGroup
	u := startUnit()
	t0 := u.t0
	wg.Add(2)
	go func() {
		defer wg.Done()
		c := newClient(srv.base)
		defer c.close()
		for i := 0; i < nMisses; i++ {
			ph.misses = append(ph.misses, c.run(missSpec(r.seed, missBase+i, r.size.missRequests), time.Now()))
		}
		ph.missWall = time.Since(t0)
	}()
	go func() {
		defer wg.Done()
		c := newClient(srv.base)
		defer c.close()
		rng := rand.New(rand.NewPCG(r.seed, rngSeed))
		start, offset := time.Now(), 0.0
		for i := 0; i < nHits; i++ {
			offset += rng.ExpFloat64() / r.size.hitRate
			due := start.Add(time.Duration(offset * float64(time.Second)))
			if d := time.Until(due); d > 0 {
				time.Sleep(d)
			}
			k := rng.IntN(len(hot))
			j := c.run(hot[k].spec, due)
			ph.late = append(ph.late, ms(j.sent.Sub(due)))
			ph.hits = append(ph.hits, j)
		}
	}()
	wg.Wait()
	ph.time = u.stop()
	return ph
}

// checkHit verifies a hit was served from the cache with its spec's
// first computed bytes.
func checkHit(j *jobRun, hot []hotEntry) error {
	if j.err != nil {
		return j.err
	}
	if !j.terminal().Cached {
		return fmt.Errorf("hit %s was not served from the cache", j.terminal().Job)
	}
	for _, h := range hot {
		if h.spec == j.spec {
			if !bytes.Equal(j.report, h.report) {
				return fmt.Errorf("hit %s report differs from its first computed bytes", j.terminal().Job)
			}
			return nil
		}
	}
	return fmt.Errorf("hit %s is not a hot spec", j.terminal().Job)
}

// checkMiss verifies a miss was computed and reported a full grid.
func checkMiss(j *jobRun) error {
	if j.err != nil {
		return j.err
	}
	if j.terminal().Cached {
		return fmt.Errorf("miss %s was answered from the cache", j.terminal().Job)
	}
	if !bytes.HasPrefix(j.report, []byte("Fig. 18 — channel usage breakdown\n")) || j.terminal().Completed != 30 {
		return fmt.Errorf("miss %s: incomplete report (%d cells)", j.terminal().Job, j.terminal().Completed)
	}
	return nil
}

// checkInProcess requires served bytes to equal an in-process
// core.RunExperiment of the same spec.
func checkInProcess(spec serve.JobSpec, served []byte) error {
	p, err := spec.Params()
	if err != nil {
		return err
	}
	var buf bytes.Buffer
	if err := core.RunExperiment(&buf, spec.Experiment, p); err != nil {
		return err
	}
	if !bytes.Equal(buf.Bytes(), served) {
		return fmt.Errorf("seed %d: served report differs from core.RunExperiment", spec.Seed)
	}
	return nil
}

// checkMix counts failed operations and returns the steal-free latency
// samples of the hits and misses that passed.
func (r *run) checkMix(ph mixPhase, hot []hotEntry) (hitMS, missMS []float64) {
	r.attempted += len(ph.hits) + len(ph.misses)
	for _, j := range ph.hits {
		if err := checkHit(j, hot); err != nil {
			r.fail(1, "%v", err)
			continue
		}
		hitMS = append(hitMS, j.latency()*ph.time.scale())
	}
	for _, j := range ph.misses {
		if err := checkMiss(j); err != nil {
			r.fail(1, "%v", err)
			continue
		}
		missMS = append(missMS, j.latency()*ph.time.scale())
	}
	return hitMS, missMS
}

// simulated counts the host requests the misses simulated.
func (r *run) simulated(misses []*jobRun) float64 {
	var cells int
	for _, j := range misses {
		if j.err == nil {
			cells += j.terminal().Completed
		}
	}
	return float64(cells * r.size.missRequests)
}

// runServe is the serve-mix workload: rounds of one hit/miss mix,
// each on a fresh in-process rifserve. A server keeps every job it
// ever ran, so one long-lived server's heap — and its GC work — would
// grow through the run; fresh rounds keep the load the same from the
// first round to the last. The misses' latency is the workload's
// lat_*; the hits' latency under this load is waiting for a busy CPU
// (Go scheduler quanta), too unsteady between runs to gate, so it is
// printed with its sample counts and reported by the traced run.
func runServe(r *run) error {
	if r.traced {
		return traceServe(r)
	}
	var setups, rates, raw, cpus, mems, hitMS, missMS, late, steals []float64
	var first []hotEntry
	var timed time.Duration
	for round := 0; round < r.size.minUnits || timed.Seconds() < r.size.seconds ||
		len(hitMS) < r.size.minHits || len(missMS) < r.size.minMisses; round++ {
		u := startUnit()
		srv, hot, err := r.serveSetup(round)
		if err != nil {
			return err
		}
		setups = append(setups, u.stop().seconds())
		if first == nil {
			first = hot
		}
		r.attempted += len(hot)
		for k := range hot {
			if !bytes.Equal(hot[k].report, first[k].report) {
				r.fail(1, "hot spec %d: fresh servers computed different reports", k)
			}
		}

		rss := watchRSS()
		ph := r.runMix(srv, hot, r.size.hits, r.size.misses, round*r.size.misses, uint64(round+1))
		steals = append(steals, 100*ph.time.steal)
		mems = append(mems, rss.take())
		rss.close()
		timed += ph.time.wall
		h, m := r.checkMix(ph, hot)
		hitMS, missMS = append(hitMS, h...), append(missMS, m...)
		late = append(late, ph.late...)
		rates = append(rates, r.simulated(ph.misses)/(ph.missWall.Seconds()*ph.time.scale()))
		raw = append(raw, r.simulated(ph.misses)/ph.missWall.Seconds())
		cpus = append(cpus, ph.time.cpu)

		// Untimed: one hot spec and the round's first miss against
		// in-process runs.
		r.attempted += 2
		if err := checkInProcess(hot[round%len(hot)].spec, hot[round%len(hot)].report); err != nil {
			r.fail(1, "hot spec: %v", err)
		}
		if len(ph.misses) == 0 || ph.misses[0].err != nil {
			r.fail(1, "round %d: no first miss to verify", round)
		} else if err := checkInProcess(ph.misses[0].spec, ph.misses[0].report); err != nil {
			r.fail(1, "first miss: %v", err)
		}
		srv.stop()
		os.RemoveAll(srv.dir)
	}
	r.set("setup_s", median(setups))
	r.set("sim_req_per_s", median(rates))
	r.set("cpu_s", median(cpus))
	r.set("peak_mem_mib", median(mems))
	r.latency("serve hit latency", hitMS, 99, false)
	r.latency("serve miss latency", missMS, 90, true)
	r.notef("serve mix: %d rounds of %d hits at %.0f/s and %d closed-loop misses; timed %.2f s; hit generator lateness p50=%.3f ms max=%.3f ms",
		len(rates), r.size.hits, r.size.hitRate, r.size.misses, timed.Seconds(), median(late), maxOf(late))
	r.notef("serve mix: per-round sim req/s %.0f (raw wall %.0f), CPU s %.3f, peak RSS MiB %.1f, host steal %% %.1f", rates, raw, cpus, mems, steals)
	return nil
}

// traceServe is serve-mix's traced run: one traced round with a CPU
// profile and /metrics scraped around its mix, bracketed by two
// untraced rounds, each on a fresh server. Stage times come from client-side
// NDJSON event arrival; cell work from the misses' /runs manifests;
// the device and result-cache layers from timed calls into their
// public APIs on the run's real specs and entries.
func traceServe(r *run) error {
	untracedRound := func(round int) (time.Duration, error) {
		srv, hot, err := r.serveSetup(round)
		if err != nil {
			return 0, err
		}
		defer srv.stop()
		ph := r.runMix(srv, hot, r.size.hits, r.size.misses, round*r.size.misses, uint64(round+1))
		r.checkMix(ph, hot)
		return ph.missWall, nil
	}
	before, err := untracedRound(0)
	if err != nil {
		return err
	}

	srv, hot, err := r.serveSetup(1)
	if err != nil {
		return err
	}
	defer srv.stop()
	c := newClient(srv.base)
	defer c.close()
	metricsBefore, err := c.get("/metrics")
	if err != nil {
		return err
	}
	prof, err := startProfiler()
	if err != nil {
		return err
	}
	root := r.tr.newID()
	t0 := time.Now()
	ph := r.runMix(srv, hot, r.size.hits, r.size.misses, r.size.misses, 2)
	r.tr.record(root, 0, "serve.mix", t0)
	if err := prof.finish(r); err != nil {
		return err
	}
	metricsAfter, err := c.get("/metrics")
	if err != nil {
		return err
	}
	r.checkMix(ph, hot)
	after, err := untracedRound(2)
	if err != nil {
		return err
	}
	r.set("tracing.overhead_pct", 100*(2*ph.missWall.Seconds()/(before+after).Seconds()-1))

	delta := func(name string) float64 { return promValue(metricsAfter, name) - promValue(metricsBefore, name) }
	r.set("resultcache.hits", delta("rifserve_cache_hits_total"))
	r.set("resultcache.misses", delta("rifserve_cache_misses_total"))
	r.set("resultcache.dedup", delta("rifserve_cache_inflight_dedup_total"))
	r.set("fleet.steals", delta("rifserve_cell_steals"))
	r.set("serve.rejected", delta("rifserve_jobs_rejected_total"))

	// Client-side stage spans of every traced job.
	var submit, queueWait, compute, finish, report []float64
	for _, j := range append(append([]*jobRun{}, ph.misses...), ph.hits...) {
		if j.err != nil {
			continue
		}
		id := r.tr.newID()
		r.tr.recordSpan(id, root, "job", j.due, j.reportAt)
		report = append(report, ms(j.reportAt.Sub(j.events[len(j.events)-1].at)))
		if j.terminal().Cached {
			continue
		}
		var queued, running, lastCell time.Time
		for _, e := range j.events {
			switch e.Event.Event {
			case string(serve.Queued):
				queued = e.at
			case string(serve.Running):
				running = e.at
			case "cell":
				lastCell = e.at
			}
		}
		done := j.events[len(j.events)-1].at
		submit = append(submit, ms(queued.Sub(j.sent)))
		queueWait = append(queueWait, ms(running.Sub(queued)))
		compute = append(compute, ms(lastCell.Sub(running)))
		finish = append(finish, ms(done.Sub(lastCell)))
	}
	r.set("serve.submit_ms", median(submit))
	r.set("serve.queue_wait_ms", median(queueWait))
	r.set("serve.compute_ms", median(compute))
	r.set("serve.finish_ms", median(finish))
	r.set("serve.report_ms", median(report))
	r.set("serve.hit_late_ms", median(ph.late))
	var hitMS []float64
	for _, j := range ph.hits {
		if j.err == nil {
			hitMS = append(hitMS, j.latency())
		}
	}
	r.latency("serve hit latency, traced round", hitMS, 90, false)
	r.set("serve.hit_p50_ms", percentile(hitMS, 50))
	r.set("serve.hit_p90_ms", percentile(hitMS, 90))

	// Cell work, from the misses' manifests.
	var stored []storedResult
	var runs []obs.Manifest
	var cellMS []float64
	var probe []gridCell
	for _, j := range ph.misses {
		if j.err != nil {
			continue
		}
		sr, coll, err := fetchStored(c, j.terminal().Job, j.spec, j.report)
		if err != nil {
			return err
		}
		stored = append(stored, sr)
		for _, m := range coll.Runs() {
			runs = append(runs, m)
			cellMS = append(cellMS, m.WallTimeS*1e3)
			if len(probe) < coll.Len() {
				s, err := ssd.SchemeByName(m.Scheme)
				if err != nil {
					return err
				}
				probe = append(probe, gridCell{s, m.Workload, m.PECycles})
			}
		}
	}
	addCellWork(r, runs, cellMS, r.size.cellWorkers, ph.missWall)
	r.bypassed(replayMetrics...)

	// Device layer: one miss spec's cells, one at a time.
	p, err := missSpec(r.seed, r.size.misses, r.size.missRequests).Params()
	if err != nil {
		return err
	}
	if err := probeCells(r, p, probe, r.tr.agg("trace.Generator.Next")); err != nil {
		return err
	}

	// Result-cache layer on the run's real specs and entries.
	for _, h := range hot {
		sr, _, err := fetchStored(c, h.job, h.spec, h.report)
		if err != nil {
			return err
		}
		stored = append(stored, sr)
	}
	return timeResultCache(r, stored)
}

// storedResult is one served job's spec and its artifacts.
type storedResult struct {
	spec  serve.JobSpec
	entry resultcache.Entry
}

// fetchStored rebuilds a finished job's cache entry from its report
// and its /runs manifests.
func fetchStored(c *client, job string, spec serve.JobSpec, report []byte) (storedResult, *obs.Collection, error) {
	raw, err := c.get("/runs/" + job)
	if err != nil {
		return storedResult{}, nil, err
	}
	coll := obs.NewCollection()
	if err := coll.UnmarshalJSON(raw); err != nil {
		return storedResult{}, nil, err
	}
	return storedResult{spec, resultcache.Entry{Report: report, Runs: raw, Cells: coll.Len()}}, coll, nil
}

// timeResultCache times the result cache's public API — keying,
// memory-tier Get, and durable-store Put/Get — on real entries.
func timeResultCache(r *run, stored []storedResult) error {
	var params []core.RunParams
	for _, sr := range stored {
		p, err := sr.spec.Params()
		if err != nil {
			return err
		}
		params = append(params, p)
	}
	const reps = 20
	keyer := resultcache.NewKeyer()
	keys := make([]resultcache.Key, len(params))
	t0 := time.Now()
	for i := 0; i < reps; i++ {
		for k, p := range params {
			keys[k] = keyer.Key(servedExperiment, p)
		}
	}
	r.set("resultcache.key_us", float64(time.Since(t0).Microseconds())/float64(reps*len(params)))

	cache := resultcache.New(serve.DefaultCacheBytes)
	for k, sr := range stored {
		cache.Put(keys[k], sr.entry)
	}
	t1 := time.Now()
	for i := 0; i < reps; i++ {
		for k := range stored {
			if _, ok := cache.Get(keys[k]); !ok {
				return fmt.Errorf("resultcache: entry %d evicted", k)
			}
		}
	}
	r.set("resultcache.get_us", float64(time.Since(t1).Microseconds())/float64(reps*len(stored)))

	st, err := resultcache.OpenStore(filepath.Join(r.work, "probe-store"), resultcache.StoreOptions{})
	if err != nil {
		return err
	}
	var puts, gets []float64
	for k, sr := range stored {
		t := time.Now()
		if err := st.Put(keys[k], sr.entry); err != nil {
			return err
		}
		puts = append(puts, float64(time.Since(t).Microseconds()))
	}
	for k, sr := range stored {
		t := time.Now()
		e, ok, err := st.Get(keys[k])
		gets = append(gets, float64(time.Since(t).Microseconds()))
		if err != nil || !ok || !bytes.Equal(e.Report, sr.entry.Report) {
			return fmt.Errorf("resultcache: store round trip of entry %d failed: %v", k, err)
		}
	}
	r.set("resultcache.store_put_us", median(puts))
	r.set("resultcache.store_get_us", median(gets))
	return nil
}
