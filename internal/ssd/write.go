package ssd

import (
	"repro/internal/sim"
)

// startWrite issues one multi-plane program: host link, then the
// write data crosses the channel to the die, then the die programs
// all planes in one tPROG. Garbage collection triggered by the
// allocation is charged to the die (copyback relocation plus erase)
// before the program starts.
//
// With a write cache, the host-visible write completes once the data
// is buffered in controller DRAM; the channel transfer and program
// run as a background flush that releases the buffer when durable.
//
//riflint:hotpath
func (s *SSD) startWrite(c *command) {
	for i := 0; i < c.n; i++ {
		_, work, err := s.ftl.Write(c.lpn+int64(i), s.eng.Now(), s.cfg.GCFreeBlockLow)
		if err != nil {
			// An unplaceable write (out of space, every die down) is
			// dropped: the first error is carried in the run result and
			// the command completes with a write-error status instead
			// of panicking mid-simulation.
			s.m.Faults.DroppedWrites++
			s.failRun(err)
			s.finishCommand(c, cmdResult{writeErr: true})
			return
		}
		if work != nil {
			c.gcTime += s.gcTime(work)
			victim := work.Plane
			for _, b := range work.Victims {
				victim.Block = b
				bid := s.cfg.Geometry.BlockID(victim)
				s.eraseCounts[bid]++
				// Erasing also clears the accumulated read disturb.
				s.readCounts[bid] = 0
			}
		}
	}

	// Resolve the target die after the FTL writes: die failover may
	// have re-homed the pages away from a dead die.
	c.die, c.ch, _ = s.dieOf(c.lpn)

	if !s.cache.enabled() {
		// Write-through: the host waits for the program.
		c.hostTransfer(stepWriteHosted)
		return
	}
	c.next = stepCacheGranted
	s.cache.acquire(c.n, c)
}

// buffered completes a cached write at buffer time, then queues its
// pages on the die's background flusher. The host sees the completion
// first — a closed-loop host may issue, and even place, its next
// request before the flush pages are looked up — and that order is part
// of the pinned event schedule.
//
//riflint:hotpath
func (s *SSD) buffered(c *command) {
	s.commandDone(c.r, cmdResult{})
	addr, _, _ := s.ftl.Lookup(c.lpn)
	f := s.flushers[s.cfg.Geometry.DieID(addr)]
	for i := 0; i < c.n; i++ {
		a, _, _ := s.ftl.Lookup(c.lpn + int64(i))
		gc := sim.Time(0)
		if i == 0 {
			gc = c.gcTime // the batch that carries page 0 pays the GC debt
		}
		f.enqueue(flushPage{plane: a.Plane, gcTime: gc})
	}
	f.kick()
	s.putCommand(c)
}

// gcTime charges a garbage collection: valid pages move by in-die
// copyback (read + program per plane-parallel batch, no channel
// traffic) and the victim block is erased.
func (s *SSD) gcTime(work *GCWork) sim.Time {
	batches := (work.PagesRelocated + s.cfg.Geometry.PlanesPerDie - 1) / s.cfg.Geometry.PlanesPerDie
	t := sim.Time(batches) * (s.cfg.Timing.TR + s.cfg.Timing.TProg)
	t += sim.Time(work.Erases) * s.cfg.Timing.TErase
	return t
}
