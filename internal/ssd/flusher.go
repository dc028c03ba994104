package ssd

import (
	"repro/internal/sim"
)

// flushPage is one cached page awaiting its background program.
type flushPage struct {
	plane  int
	gcTime sim.Time // garbage-collection debt carried by this page
}

// dieFlusher drains the write cache toward one die. It coalesces
// buffered pages into full multi-plane programs — one page per plane
// per tPROG — which is how real controllers amortize the 400-us
// program over the plane parallelism (and what keeps mixed workloads
// from being program-bound).
//
// The flusher is its own flush-command state record: at most one batch
// is in flight per die, so the batch's size, GC debt and stage live in
// the flusher and the channel and die resume it directly.
type dieFlusher struct {
	ssd      *SSD
	die      *dieStation
	ch       *channelStation
	perPlane []sim.FIFO[flushPage]
	pending  int
	active   bool

	// The in-flight batch: its page count, GC debt, and whether the
	// channel transfer has landed (the program is then running).
	batch       int
	gc          sim.Time
	programming bool
}

func newDieFlusher(s *SSD, die *dieStation, ch *channelStation) *dieFlusher {
	return &dieFlusher{
		ssd:      s,
		die:      die,
		ch:       ch,
		perPlane: make([]sim.FIFO[flushPage], s.cfg.Geometry.PlanesPerDie),
	}
}

// enqueue buffers one page for background programming.
//
//riflint:hotpath
func (f *dieFlusher) enqueue(p flushPage) {
	f.perPlane[p.plane].Push(p)
	f.pending++
}

// kick starts the flusher if it is idle and work exists.
//
//riflint:hotpath
func (f *dieFlusher) kick() {
	if f.active || f.pending == 0 {
		return
	}
	f.active = true
	f.flushBatch()
}

// flushBatch assembles a multi-plane batch (at most one page per
// plane) and moves it across the channel; step programs it, releases
// the cache slots, and loops while work remains.
//
//riflint:hotpath
func (f *dieFlusher) flushBatch() {
	var gc sim.Time
	batch := 0
	for pl := range f.perPlane {
		if f.perPlane[pl].Len() == 0 {
			continue
		}
		gc += f.perPlane[pl].Pop().gcTime
		batch++
	}
	if batch == 0 {
		f.active = false
		return
	}
	f.pending -= batch
	f.batch, f.gc, f.programming = batch, gc, false
	f.ch.submit(xferJob{kind: xferWrite, pages: batch, label: "W", owner: f})
}

// step resumes the in-flight batch: after the transfer, program it;
// after the program, release its cache slots and start the next.
//
//riflint:hotpath
func (f *dieFlusher) step() {
	if !f.programming {
		f.programming = true
		f.die.Program(f.gc+f.ssd.cfg.Timing.TProg, f)
		return
	}
	f.ssd.cache.release(f.batch)
	f.flushBatch()
}

// idle reports whether the flusher has no buffered or in-flight work.
func (f *dieFlusher) idle() bool { return !f.active && f.pending == 0 }
