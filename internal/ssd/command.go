package ssd

import (
	"repro/internal/nvme"
	"repro/internal/sim"
	"repro/internal/trace"
)

// This file holds the simulated request path's state records. A host
// request becomes one request record plus one command record per die
// command; every step of a command — sense, channel transfer, decode,
// retry round, host transfer, program — resumes the same record, whose
// next field says what to do. Stations and the event engine hand the
// record back through the stepper interface or through the record's
// fire handler, bound once when the record is first created. Records
// return to per-device free lists on completion, so a steady-state
// request allocates nothing: no continuation closures, no per-command
// slices, no per-operation queue entries.

// hostKind says which host model admitted a request, and so what its
// completion does next.
type hostKind uint8

const (
	closedLoop hostKind = iota // admits the next request of the stream
	openLoop                   // admits a held arrival, if any
	queueHost                  // admits the next request of its host queue
	nvmeHost                   // posts the NVMe completion
)

// request is one host request in flight.
type request struct {
	req     trace.Request
	arrival sim.Time // latency anchor
	host    hostKind
	queue   int      // host queue index, for queueHost
	wl      Workload // cold-age source of the request's pages
	// nvmeDone receives the completion status, for nvmeHost.
	nvmeDone func(nvme.Status)
	// outstanding counts die commands not yet complete; res folds
	// their results.
	outstanding int
	res         cmdResult
}

// cmdStep is a command record's next action.
type cmdStep uint8

const (
	stepSensed         cmdStep = iota // first sense done: ship the pages
	stepDecoded                       // first transfer decoded: finish or retry
	stepSentinelSensed                // Sentinel's extra read done: ship the sentinel cells
	stepRetrySense                    // re-sense the still-failing pages
	stepRetrySensed                   // retry re-sense done: ship the pages
	stepRetryDecoded                  // retry transfer decoded: finish, give up or go again
	stepHostGranted                   // host link granted: hold it for the transfer
	stepHostDone                      // host transfer done: release the link, go to then
	stepReadDone                      // data delivered (or die dead): report unc
	stepWriteHosted                   // write-through data in the controller: cross the channel
	stepWriteXferred                  // write-through data at the die: program it
	stepProgrammed                    // write-through program durable: report
	stepCacheGranted                  // write-cache slots granted: move the data in
	stepBuffered                      // data buffered: report, queue the background flush
)

// command is one die command's state record: up to PlanesPerDie
// consecutive logical pages on distinct planes of one die, read or
// written as one multi-plane operation.
type command struct {
	s    *SSD
	r    *request
	lpn  int64 // first logical page; the command covers lpn..lpn+n-1
	n    int
	die  *dieStation
	ch   *channelStation
	next cmdStep
	then cmdStep     // continuation after a host transfer
	fire sim.Handler // c.step, bound once when the record is created

	// Read state. The slices keep their capacity across reuses.
	pages  []pageView // resolved at issue
	rbers  []float64  // per shipped page, the RBER the decoder sees
	failed []pageView // pages entering the next retry round
	still  []pageView // scratch: pages still failing after a round

	lbl, lblRetry string   // timeline tags, empty when spans are off
	uncor         int      // doomed pages of the transfer being prepared
	engineTime    sim.Time // RPSSD's first-decode occupancy, fixed at issue
	retrySense    sim.Time // re-sense duration of a controller retry round
	sentinel      bool     // Sentinel's extra off-chip read may precede a round
	anyRetry      bool     // RiF flagged at least one page for an RVS re-read
	round         int      // controller retry round, from 1
	unc           int      // uncorrectable pages reported at completion

	// Write state.
	gcTime sim.Time // GC debt charged to this command's program
}

// newRequest takes a request record off the free list.
//
//riflint:hotpath
func (s *SSD) newRequest(req trace.Request, arrival sim.Time, host hostKind) *request {
	var r *request
	if n := len(s.freeReqs); n > 0 {
		r = s.freeReqs[n-1]
		s.freeReqs[n-1] = nil
		s.freeReqs = s.freeReqs[:n-1]
	} else {
		//riflint:allow alloc -- free-list refill: one record per in-flight high-water slot, reused for the run
		r = &request{}
	}
	r.req, r.arrival, r.host, r.wl = req, arrival, host, s.workload
	return r
}

// putRequest returns a finished request record to the free list.
//
//riflint:hotpath
func (s *SSD) putRequest(r *request) {
	*r = request{}
	//riflint:allow alloc -- the free list never holds more records than were ever in flight at once
	s.freeReqs = append(s.freeReqs, r)
}

// newCommand takes a command record off the free list.
//
//riflint:hotpath
func (s *SSD) newCommand(r *request, lpn int64, n int) *command {
	var c *command
	if k := len(s.freeCmds); k > 0 {
		c = s.freeCmds[k-1]
		s.freeCmds[k-1] = nil
		s.freeCmds = s.freeCmds[:k-1]
	} else {
		c = s.allocCommand()
	}
	c.r, c.lpn, c.n = r, lpn, n
	return c
}

// allocCommand builds a fresh command record: free-list refill, one
// record per in-flight high-water slot, reused for the run. A command
// spans at most PlanesPerDie pages, so its buffers are sized once here
// and never grow; the three page-view buffers share one backing array.
func (s *SSD) allocCommand() *command {
	p := s.cfg.Geometry.PlanesPerDie
	//riflint:allow alloc -- free-list refill: the record's page views, once per in-flight high-water slot
	views := make([]pageView, 3*p)
	//riflint:allow alloc -- free-list refill: the record, once per in-flight high-water slot
	c := &command{s: s, pages: views[0:0:p], failed: views[p : p : 2*p], still: views[2*p : 2*p : 3*p]}
	//riflint:allow alloc -- free-list refill: the record's RBER buffer, once per in-flight high-water slot
	c.rbers = make([]float64, 0, p)
	c.fire = c.step // bound once: every event the record schedules reuses it
	return c
}

// putCommand returns a finished command record to the free list,
// keeping its buffers' capacity.
//
//riflint:hotpath
func (s *SSD) putCommand(c *command) {
	*c = command{
		s:      c.s,
		fire:   c.fire,
		pages:  c.pages[:0],
		rbers:  c.rbers[:0],
		failed: c.failed[:0],
		still:  c.still[:0],
	}
	//riflint:allow alloc -- the free list never holds more records than were ever in flight at once
	s.freeCmds = append(s.freeCmds, c)
}

// admit puts one request in flight.
//
//riflint:hotpath
func (s *SSD) admit(r *request) {
	s.inFlight++
	if s.inFlight > s.m.PeakInFlight {
		s.m.PeakInFlight = s.inFlight
	}
	s.startRequest(r)
}

// dieGroup reports how many of the remaining pages from lpn form one
// die command: consecutive logical pages up to the end of lpn's plane
// group, which the striping keeps on one die.
func (s *SSD) dieGroup(lpn int64, remaining int) int {
	p := int64(s.cfg.Geometry.PlanesPerDie)
	n := int((lpn/p+1)*p - lpn)
	if n > remaining {
		n = remaining
	}
	return n
}

// startRequest splits a request's pages into die commands along the
// striping and issues them in page order.
//
//riflint:hotpath
func (s *SSD) startRequest(r *request) {
	lpn, remaining, op := r.req.LPN, r.req.Pages, r.req.Op
	r.outstanding = 0
	for l, rem := lpn, remaining; rem > 0; {
		n := s.dieGroup(l, rem)
		r.outstanding++
		l += int64(n)
		rem -= n
	}
	// A command may complete synchronously and, as the last one, hand
	// r back to the free list: the loop reads only its locals.
	for remaining > 0 {
		n := s.dieGroup(lpn, remaining)
		c := s.newCommand(r, lpn, n)
		lpn += int64(n)
		remaining -= n
		if op == trace.Read {
			s.startRead(c)
		} else {
			s.startWrite(c)
		}
	}
}

// commandDone folds one die command's result into its request and
// completes the request with its last command.
//
//riflint:hotpath
func (s *SSD) commandDone(r *request, res cmdResult) {
	r.res.uncPages += res.uncPages
	r.res.writeErr = r.res.writeErr || res.writeErr
	r.outstanding--
	if r.outstanding == 0 {
		s.completeRequest(r)
	}
}

// completeRequest is the one completion step every host shares: it
// accounts the request, recycles its record, and continues the host
// model that admitted it.
//
//riflint:hotpath
func (s *SSD) completeRequest(r *request) {
	s.inFlight--
	s.m.RequestsCompleted++
	s.lastDone = s.eng.Now()
	if r.res.uncPages > 0 {
		s.m.MediaErrorRequests++
	}
	var qm *QueueMetrics
	if r.host == queueHost {
		qm = &s.queueStats[r.queue]
		qm.RequestsCompleted++
	}
	bytes := int64(r.req.Pages) * int64(s.cfg.Geometry.PageBytes)
	if r.req.Op == trace.Read {
		s.m.BytesRead += bytes
		lat := (s.eng.Now() - r.arrival).Microseconds()
		if s.cfg.LatencySketch != nil {
			s.cfg.LatencySketch.Add(lat)
		} else {
			s.m.ReadLatencies.Add(lat)
		}
		s.readLat.Observe(lat)
		if qm != nil {
			qm.BytesRead += bytes
			qm.ReadLatencies.Add(lat)
		}
	} else {
		s.m.BytesWritten += bytes
		if qm != nil {
			qm.BytesWritten += bytes
		}
	}
	host, queue, res, nvmeDone := r.host, r.queue, r.res, r.nvmeDone
	s.putRequest(r)
	switch host {
	case closedLoop:
		s.issueNext()
	case openLoop:
		if s.held {
			s.held = false
			held := s.newRequest(s.heldReq, s.heldAt, openLoop)
			s.heldReq = trace.Request{}
			s.admit(held)
			s.scheduleNextArrival()
		}
	case queueHost:
		s.issueQueued(queue)
	case nvmeHost:
		nvmeDone(nvmeStatus(res))
	}
}

// nvmeStatus maps a request's degradation outcome to its NVMe status:
// a read with retry-exhausted pages is a media error (SCT 2h / SC
// 81h), a write the FTL could not place is an internal error.
func nvmeStatus(res cmdResult) nvme.Status {
	switch {
	case res.writeErr:
		return nvme.StatusInternal
	case res.uncPages > 0:
		return nvme.StatusMediaError
	}
	return nvme.StatusSuccess
}

// step runs the command's next action. Stations call it through the
// stepper interface, the event engine through c.fire.
//
//riflint:hotpath
func (c *command) step() {
	s := c.s
	switch c.next {
	case stepSensed:
		s.shipFirstRead(c)
	case stepDecoded:
		s.firstReadDecoded(c)
	case stepSentinelSensed:
		c.next = stepRetrySense
		c.ch.submit(xferJob{
			kind:       xferRead,
			pages:      len(c.failed),
			uncorPages: len(c.failed),
			engineTime: 0, // analyzed by dedicated logic, not the LDPC engine
			label:      c.lblRetry,
			owner:      c,
		})
	case stepRetrySense:
		s.retrySense(c)
	case stepRetrySensed:
		s.shipRetry(c)
	case stepRetryDecoded:
		s.retryDecoded(c)
	case stepHostGranted:
		c.next = stepHostDone
		s.eng.After(sim.Time(c.n)*s.cfg.Timing.THostPage, c.fire)
	case stepHostDone:
		s.host.Release()
		c.next = c.then
		c.step()
	case stepReadDone:
		s.finishCommand(c, cmdResult{uncPages: c.unc})
	case stepWriteHosted:
		c.next = stepWriteXferred
		c.ch.submit(xferJob{kind: xferWrite, pages: c.n, label: "W", owner: c})
	case stepWriteXferred:
		c.next = stepProgrammed
		c.die.Program(c.gcTime+s.cfg.Timing.TProg, c)
	case stepProgrammed:
		s.finishCommand(c, cmdResult{})
	case stepCacheGranted:
		c.hostTransfer(stepBuffered)
	case stepBuffered:
		s.buffered(c)
	}
}

// hostTransfer moves the command's pages across the host link, then
// continues at then.
//
//riflint:hotpath
func (c *command) hostTransfer(then cmdStep) {
	s := c.s
	c.next = then
	if s.cfg.Timing.THostPage == 0 {
		c.step()
		return
	}
	c.then = then
	c.next = stepHostGranted
	s.host.Acquire(c.fire)
}

// finishCommand reports the command's result and recycles the record.
//
//riflint:hotpath
func (s *SSD) finishCommand(c *command, res cmdResult) {
	r := c.r
	s.putCommand(c)
	s.commandDone(r, res)
}
