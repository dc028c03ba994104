package ssd

import (
	"fmt"

	"repro/internal/nand"
	"repro/internal/sim"
)

// startRead issues one multi-plane read under the configured scheme.
// The command record then steps through the scheme's flow: first
// sense, transfer and decode, controller retry rounds, and the host
// transfer that completes it. Pages that exhaust the retry ladder are
// reported in the result as uncorrectable instead of wedging or
// panicking.
//
//riflint:hotpath
func (s *SSD) startRead(c *command) {
	die, ch, dieIdx := s.dieOf(c.lpn)
	c.die, c.ch = die, ch
	if s.inj.DieDown(dieIdx) {
		// The die dropped out: the controller's probe sense times out
		// and every page of the command is reported uncorrectable.
		s.noteDeadDie(dieIdx)
		n := c.n
		s.m.PageReads += int64(n)
		s.m.UnrecoveredPages += int64(n)
		s.m.Faults.DieDropoutReads += int64(n)
		c.unc = n
		c.next = stepReadDone
		s.eng.After(s.cfg.Timing.TR, c.fire)
		return
	}
	s.resolvePages(c)
	s.m.PageReads += int64(len(c.pages))

	if s.cfg.RecordSpans || s.cfg.Trace != nil {
		c.lbl = cmdLabel(s.nextCmd)
		//riflint:allow alloc -- span recording only: labels exist when spans are on
		c.lblRetry = c.lbl + "'"
		s.nextCmd++
	}

	dieTime := s.cfg.Timing.TR
	c.retrySense = s.cfg.Timing.TR
	switch s.cfg.Scheme {
	case Zero:
	case One:
		s.planOffChip(c)
	case Sentinel:
		c.sentinel = true
		s.planOffChip(c)
	case SWR, SWRPlus:
		c.retrySense = 2 * s.cfg.Timing.TR
		s.planOffChip(c)
	case RPOnly:
		s.planRPController(c)
	case RiF:
		dieTime = s.planRiF(c)
	default:
		// Unreachable: Config.Validate rejects unknown schemes.
		// Complete the command anyway rather than wedging the drain.
		s.unknownScheme()
		c.unc = 0
		c.hostTransfer(stepReadDone)
		return
	}
	c.next = stepSensed
	die.Read(s.senseTime(dieTime, c.pages), c.lbl, c)
}

// unknownScheme records the (unreachable) unknown-scheme failure.
func (s *SSD) unknownScheme() {
	//riflint:allow alloc -- failure path: Config.Validate makes it unreachable, and the run returns the error
	s.failRun(fmt.Errorf("ssd: unknown scheme %d", int(s.cfg.Scheme)))
}

// planOffChip prepares the first read of SSDone, SENC, SWR and SWR+:
// the sensed pages must cross the channel and fail the off-chip
// decode before a retry is issued, so it fixes which pages the decoder
// will reject (drawing injected decode timeouts).
//
//riflint:hotpath
func (s *SSD) planOffChip(c *command) {
	for i := range c.pages {
		p := &c.pages[i]
		rber := p.rberFirst
		fails := p.fails
		if s.decodeTimeout() && !fails {
			fails = true
			rber = s.timeoutRBER()
		}
		//riflint:allow alloc -- record buffer: sized to PlanesPerDie when the record is built, never grows
		c.rbers = append(c.rbers, rber)
		if fails {
			c.uncor++
			//riflint:allow alloc -- record buffer: sized to PlanesPerDie when the record is built, never grows
			c.failed = append(c.failed, *p)
		}
	}
}

// planRPController prepares RPSSD's first read: the RP module sits
// next to the controller's ECC engine. Doomed decodes are terminated
// after tPRED, but uncorrectable pages still consume channel
// bandwidth.
//
//riflint:hotpath
func (s *SSD) planRPController(c *command) {
	for i := range c.pages {
		p := &c.pages[i]
		predFail := s.predictFail(*p)
		fails := p.fails
		switch {
		case predFail:
			// Decode cut short at the prediction latency. (A false
			// positive also lands here: the page is retried anyway.)
			c.engineTime += s.cfg.Timing.TPred
		default:
			// Predicted correctable: the decode runs to completion —
			// for a false negative that is the full failing decode.
			c.engineTime += s.dec.Decode(p.rberFirst).Latency
			if s.decodeTimeout() && !fails {
				fails = true
			}
		}
		if fails {
			c.uncor++
		}
		if fails || predFail {
			//riflint:allow alloc -- record buffer: sized to PlanesPerDie when the record is built, never grows
			c.failed = append(c.failed, *p)
		}
	}
}

// planRiF prepares the full Retry-in-Flash read and returns its die
// occupancy: RP predicts on-die right after the sense; predicted-
// uncorrectable pages are re-read inside the die at RVS-selected
// voltages before anything crosses the channel. Only false negatives
// ever ship a doomed page.
//
//riflint:hotpath
func (s *SSD) planRiF(c *command) sim.Time {
	flagged := int64(0)
	for i := range c.pages {
		p := &c.pages[i]
		p.predFail = s.predictFail(*p)
		if p.predFail {
			c.anyRetry = true
			flagged++
			s.noteSense(p.blockID) // the RVS re-read senses the block again
			if p.fails {
				s.m.AvoidedTransfers++
			}
		}
	}
	s.m.RVSRereads += flagged

	dieTime := s.cfg.Timing.TR + s.cfg.Timing.TPred
	if c.anyRetry {
		// RVS re-reads the flagged planes in parallel: one extra
		// sense. (The initial sense doubles as Swift-Read's probe
		// read: the ones-count is already in the page buffer.)
		dieTime += s.cfg.Timing.TR
	}

	// Footnote-4 extension: RP also checks the re-read pages, and a
	// page whose adjusted-VREF read is still uncorrectable gets one
	// further in-die refinement instead of a doomed transfer.
	if s.cfg.RiFSecondCheck && c.anyRetry {
		dieTime += s.cfg.Timing.TPred
		secondRetry := false
		for i := range c.pages {
			p := &c.pages[i]
			if !p.predFail || s.retryRBER(p) <= s.dec.Capability {
				continue
			}
			s.m.Predictions++
			caught := s.acc.PredictCorrect(p.rberRetry, s.predictRNG.Float64())
			s.m.Confusion.Record(caught, true)
			if caught {
				// Caught: a second Swift-Read pass refines the VREF
				// estimate further (diminishing returns).
				p.rberRetry *= 0.6
				s.m.AvoidedTransfers++
				s.m.RVSRereads++
				s.noteSense(p.blockID) // one more in-die sense
				secondRetry = true
			} else {
				s.m.Mispredictions++
			}
		}
		if secondRetry {
			dieTime += s.cfg.Timing.TR
		}
	}
	return dieTime
}

// shipFirstRead moves the sensed pages across the channel into the
// ECC engine.
//
//riflint:hotpath
func (s *SSD) shipFirstRead(c *command) {
	var engineTime sim.Time
	switch s.cfg.Scheme {
	case Zero:
		// The no-retry hypothetical: every page decodes in one
		// iteration.
		engineTime = sim.Time(c.n) * s.dec.MinLatency()
	case RPOnly:
		engineTime = c.engineTime
	case RiF:
		s.settleRiF(c)
		engineTime = s.decodeLatency(c.rbers)
	default:
		engineTime = s.decodeLatency(c.rbers)
	}
	c.next = stepDecoded
	c.ch.submit(xferJob{
		kind:       xferRead,
		pages:      c.n,
		uncorPages: c.uncor,
		engineTime: engineTime,
		label:      c.lbl,
		owner:      c,
	})
}

// settleRiF decides, once the die is done, what each RiF page ships
// at: re-read pages at their adjusted-VREF RBER, unflagged ones at
// the first read's (a false negative ships doomed and burns a full
// failing decode).
//
//riflint:hotpath
func (s *SSD) settleRiF(c *command) {
	retriedNow := int64(0)
	for i := range c.pages {
		p := &c.pages[i]
		var rber float64
		var fails bool
		if p.predFail {
			rber = s.retryRBER(p)
			retriedNow++
			fails = rber > s.dec.Capability
		} else {
			rber = p.rberFirst
			fails = p.fails
		}
		if s.decodeTimeout() && !fails {
			fails = true
			rber = s.timeoutRBER()
		}
		//riflint:allow alloc -- record buffer: sized to PlanesPerDie when the record is built, never grows
		c.rbers = append(c.rbers, rber)
		if fails {
			c.uncor++
			//riflint:allow alloc -- record buffer: sized to PlanesPerDie when the record is built, never grows
			c.failed = append(c.failed, *p)
			if !p.predFail {
				retriedNow++
			}
		}
	}
	s.m.PagesRetried += retriedNow
	if c.anyRetry {
		s.m.RetryRounds++
	}
}

// firstReadDecoded finishes a clean first read or starts the
// controller-driven retry ladder for its failed pages (for RiF, the
// recovery path of mispredictions).
//
//riflint:hotpath
func (s *SSD) firstReadDecoded(c *command) {
	if len(c.failed) == 0 {
		c.hostTransfer(stepReadDone)
		return
	}
	if s.cfg.Scheme != RiF {
		// RiF counted its retried pages when it settled the read.
		s.m.PagesRetried += int64(len(c.failed))
	}
	c.round = 1
	s.retryRound(c)
}

// retryRound starts one controller-driven retry round for the failed
// pages. Each successive round adds RetryBackoff of extra sense time
// (deeper retry-table entries); a page still failing after
// MaxRetryRounds is reported uncorrectable and, if its block is grown
// bad, the block is retired.
//
//riflint:hotpath
func (s *SSD) retryRound(c *command) {
	s.m.RetryRounds++
	if c.sentinel && s.sentinelRNG.Bernoulli(s.cfg.SentinelExtraReadProb) {
		// Sentinel's extra off-chip read: the sentinel cells are read
		// with the sentinel VREF set and shipped to the controller;
		// the transfer is pure overhead (UNCOR).
		s.m.SentinelExtraReads += int64(len(c.failed))
		s.noteSenses(c.failed) // the sentinel-cell read senses the array too
		c.next = stepSentinelSensed
		c.die.Read(s.senseTime(s.cfg.Timing.TR, c.failed), c.lbl, c)
		return
	}
	s.retrySense(c)
}

// retrySense re-senses the failing pages at adjusted voltages. The
// re-sense is a real array read of every still-failing page's block:
// it disturbs them further.
//
//riflint:hotpath
func (s *SSD) retrySense(c *command) {
	s.noteSenses(c.failed)
	sense := c.retrySense + sim.Time(c.round-1)*s.cfg.RetryBackoff
	c.next = stepRetrySensed
	c.die.Read(s.senseTime(sense, c.failed), c.lblRetry, c)
}

// shipRetry moves a retry round's re-read pages to the ECC engine.
//
//riflint:hotpath
func (s *SSD) shipRetry(c *command) {
	c.rbers = c.rbers[:0]
	c.still = c.still[:0]
	uncor := 0
	for i := range c.failed {
		p := &c.failed[i]
		rber := s.retryRBER(p)
		fails := rber > s.dec.Capability
		if s.decodeTimeout() && !fails {
			fails = true
			rber = s.timeoutRBER()
		}
		//riflint:allow alloc -- record buffer: sized to PlanesPerDie when the record is built, never grows
		c.rbers = append(c.rbers, rber)
		if fails {
			uncor++
			//riflint:allow alloc -- record buffer: sized to PlanesPerDie when the record is built, never grows
			c.still = append(c.still, *p)
		}
	}
	c.next = stepRetryDecoded
	c.ch.submit(xferJob{
		kind:       xferRead,
		pages:      len(c.failed),
		uncorPages: uncor,
		engineTime: s.decodeLatency(c.rbers),
		label:      c.lblRetry,
		owner:      c,
	})
}

// retryDecoded ends a retry round: finish, give up, or go again with
// the pages still failing.
//
//riflint:hotpath
func (s *SSD) retryDecoded(c *command) {
	if len(c.still) == 0 {
		c.hostTransfer(stepReadDone)
		return
	}
	if c.round >= s.cfg.MaxRetryRounds {
		s.m.UnrecoveredPages += int64(len(c.still))
		for i := range c.still {
			s.retireBlock(c.still[i].blockID)
		}
		c.unc = len(c.still)
		c.hostTransfer(stepReadDone)
		return
	}
	c.failed, c.still = c.still, c.failed[:0]
	c.round++
	s.retryRound(c)
}

// predictFail draws RP's prediction for a page from the calibrated
// accuracy model and accounts for it (including the confusion matrix).
// An injected forced misprediction inverts the engine's output on top
// of the accuracy model's own errors.
//
//riflint:hotpath
func (s *SSD) predictFail(p pageView) bool {
	s.m.Predictions++
	correct := s.acc.PredictCorrect(p.rberFirst, s.predictRNG.Float64())
	if s.inj.ForceMispredict() {
		s.m.Faults.ForcedMispredictions++
		correct = !correct
	}
	predFail := p.fails
	if !correct {
		s.m.Mispredictions++
		predFail = !p.fails
	}
	s.m.Confusion.Record(predFail, p.fails)
	return predFail
}

// vrefModeForScheme reports the first-read VREF mode (exported for
// tests via a tiny indirection).
func vrefModeForScheme(sc Scheme) nand.VrefMode {
	if sc == SWRPlus {
		return nand.TrackedVref
	}
	return nand.DefaultVref
}
