package ssd

import (
	"fmt"
	"sort"

	"repro/internal/nand"
	"repro/internal/sim"
)

// FTL is a page-mapping flash translation layer. Logical pages are
// striped plane-first across the array so that consecutive pages form
// multi-plane groups on one die and successive groups fan out across
// channels (maximizing both multi-plane and channel parallelism, as
// in MQSim's default mapping).
//
// The physical space of every plane is split in two: the lower half
// holds the pre-fill image (cold data present before the simulation,
// never rewritten), the upper half is the active write region managed
// with free-block lists and greedy garbage collection.
type FTL struct {
	geo       nand.Geometry
	writeBase int // first block of the write region in every plane

	// WearOf, when set, reports a block's erase count so allocation
	// can pick the least-worn free block (dynamic wear leveling).
	WearOf func(plane nand.Address, block int) int

	// DieDown, when set, reports a dead die by dense index; Write then
	// fails writes over to the same plane offset of the next live die.
	DieDown func(dieIdx int) bool

	// Logical map for pages written during the run.
	written map[int64]mapEntry

	planes []planeState

	// retired holds grown-bad blocks pulled from circulation, keyed by
	// plane index then block index.
	retired map[int]map[int]bool

	// Counters surfaced through Metrics.
	gcRuns         int64
	pagesRelocated int64
	dieFailovers   int64
}

type mapEntry struct {
	addr      nand.Address
	writtenAt sim.Time
}

type planeState struct {
	addr        nand.Address // channel/die/plane coordinates
	cursorBlock int
	cursorPage  int
	freeBlocks  []int
	blocks      map[int]*blockState // sim-written blocks by block index
}

type blockState struct {
	valid map[int]int64 // page-in-block -> lpn
}

// NewFTL builds the translation layer for a geometry.
func NewFTL(geo nand.Geometry) *FTL {
	f := &FTL{
		geo:       geo,
		writeBase: geo.BlocksPerPlane / 2,
		written:   make(map[int64]mapEntry),
	}
	nPlanes := geo.TotalDies() * geo.PlanesPerDie
	f.planes = make([]planeState, nPlanes)
	for i := range f.planes {
		ch, die, pl := f.planeCoords(i)
		p := &f.planes[i]
		p.addr = nand.Address{Channel: ch, Die: die, Plane: pl}
		p.blocks = make(map[int]*blockState)
		p.cursorBlock = -1
		// Free blocks: the whole write region, allocated low-first.
		p.freeBlocks = make([]int, 0, geo.BlocksPerPlane-f.writeBase)
		for b := geo.BlocksPerPlane - 1; b >= f.writeBase; b-- {
			p.freeBlocks = append(p.freeBlocks, b)
		}
	}
	return f
}

// planeIndexOfAddr maps physical coordinates back to the plane index.
func (f *FTL) planeIndexOfAddr(a nand.Address) int {
	return ((a.Channel*f.geo.DiesPerChan)+a.Die)*f.geo.PlanesPerDie + a.Plane
}

// planeIndex maps an lpn to its plane (striping).
func (f *FTL) planeIndex(lpn int64) int {
	p := f.geo.PlanesPerDie
	c := f.geo.Channels
	d := f.geo.DiesPerChan
	pl := int(lpn % int64(p))
	group := lpn / int64(p)
	ch := int(group % int64(c))
	die := int((group / int64(c)) % int64(d))
	return ((ch*d)+die)*p + pl
}

func (f *FTL) planeCoords(idx int) (ch, die, pl int) {
	p := f.geo.PlanesPerDie
	d := f.geo.DiesPerChan
	pl = idx % p
	idx /= p
	die = idx % d
	ch = idx / d
	return ch, die, pl
}

// prefillAddress is the deterministic physical home of never-written
// cold data.
func (f *FTL) prefillAddress(lpn int64) nand.Address {
	pIdx := f.planeIndex(lpn)
	ch, die, pl := f.planeCoords(pIdx)
	groupsPerRound := int64(f.geo.Channels * f.geo.DiesPerChan)
	perPlane := (lpn / int64(f.geo.PlanesPerDie)) / groupsPerRound
	capacity := int64(f.writeBase) * int64(f.geo.PagesPerBlock)
	perPlane %= capacity // footprints beyond the pre-fill region alias
	return nand.Address{
		Channel: ch,
		Die:     die,
		Plane:   pl,
		Block:   int(perPlane / int64(f.geo.PagesPerBlock)),
		Page:    int(perPlane % int64(f.geo.PagesPerBlock)),
	}
}

// Lookup resolves a logical page. For pages written during the run it
// reports the mapped address and the write timestamp; for cold pages
// it reports the pre-fill address with written == false.
func (f *FTL) Lookup(lpn int64) (addr nand.Address, writtenAt sim.Time, written bool) {
	if e, ok := f.written[lpn]; ok {
		return e.addr, e.writtenAt, true
	}
	return f.prefillAddress(lpn), 0, false
}

// GCWork describes the relocation the caller must charge to the die
// before the write that triggered it proceeds.
type GCWork struct {
	Plane          nand.Address // channel/die/plane of the collected plane
	VictimBlock    int          // block index erased within the plane
	PagesRelocated int
	Erases         int
}

// Write maps lpn to a fresh physical page, invalidating any previous
// mapping. It returns the new address and any garbage-collection work
// performed to free space. gcLow is the free-block low-water mark.
func (f *FTL) Write(lpn int64, now sim.Time, gcLow int) (nand.Address, *GCWork, error) {
	pIdx := f.planeIndex(lpn)
	if f.DieDown != nil {
		live, ok := f.failover(pIdx)
		if !ok {
			//riflint:allow alloc -- failure path: every die is down, the write is dropped and the run returns the error
			return nand.Address{}, nil, fmt.Errorf("ssd: every die down, cannot place lpn %d", lpn)
		}
		if live != pIdx {
			f.dieFailovers++
		}
		pIdx = live
	}
	p := &f.planes[pIdx]

	var gc *GCWork
	if p.cursorBlock < 0 || p.cursorPage >= f.geo.PagesPerBlock {
		if len(p.freeBlocks) <= gcLow {
			work, err := f.collect(p)
			if err != nil {
				return nand.Address{}, nil, err
			}
			gc = work
		}
		if len(p.freeBlocks) == 0 {
			//riflint:allow alloc -- failure path: the plane is full, the write is dropped and the run returns the error
			return nand.Address{}, nil, fmt.Errorf("ssd: plane %v out of free blocks", p.addr)
		}
		p.cursorBlock = f.popFreeBlock(p)
		p.cursorPage = 0
		//riflint:allow alloc -- FTL map growth: one valid-page map per block opened, once per PagesPerBlock writes to a plane
		p.blocks[p.cursorBlock] = &blockState{valid: make(map[int]int64)}
	}

	addr := p.addr
	addr.Block = p.cursorBlock
	addr.Page = p.cursorPage
	p.cursorPage++

	f.invalidate(lpn)
	p.blocks[p.cursorBlock].valid[addr.Page] = lpn
	f.written[lpn] = mapEntry{addr: addr, writtenAt: now}
	return addr, gc, nil
}

// invalidate drops lpn's old physical page, if any. The old mapping's
// own coordinates locate the plane: with die failover the page may
// not live on the plane the striping would predict.
func (f *FTL) invalidate(lpn int64) {
	e, ok := f.written[lpn]
	if !ok {
		return
	}
	p := &f.planes[f.planeIndexOfAddr(e.addr)]
	if b, ok := p.blocks[e.addr.Block]; ok {
		delete(b.valid, e.addr.Page)
		if len(b.valid) == 0 && e.addr.Block != p.cursorBlock {
			// A closed block just lost its last valid page. Its map's
			// bucket arrays never shrink, and over a long replay every
			// write block eventually churns through a fully-grown map —
			// release it (GC still sees the block as a free victim:
			// len(nil) == 0; only Write appends to valid, and only for
			// the open cursor block).
			b.valid = nil
		}
	}
}

// failover redirects a write aimed at a dead die to the same plane
// offset on the next live die, scanning in dense-die order. It
// reports false when every die is down.
func (f *FTL) failover(pIdx int) (int, bool) {
	planes := f.geo.PlanesPerDie
	dies := f.geo.TotalDies()
	dieIdx := pIdx / planes
	off := pIdx % planes
	for k := 0; k < dies; k++ {
		d := (dieIdx + k) % dies
		if !f.DieDown(d) {
			return d*planes + off, true
		}
	}
	return 0, false
}

// RetireBlock pulls a grown-bad block out of circulation: it is
// removed from its plane's free list (if free) and will never be
// returned to it by garbage collection.
func (f *FTL) RetireBlock(a nand.Address) {
	pIdx := f.planeIndexOfAddr(a)
	if f.retired == nil {
		//riflint:allow alloc -- grown-bad retirement: once per run, the first time any block is retired
		f.retired = make(map[int]map[int]bool)
	}
	if f.retired[pIdx] == nil {
		//riflint:allow alloc -- grown-bad retirement: once per plane that loses a block, not per request
		f.retired[pIdx] = make(map[int]bool)
	}
	f.retired[pIdx][a.Block] = true
	p := &f.planes[pIdx]
	for i, b := range p.freeBlocks {
		if b == a.Block {
			//riflint:allow alloc -- in-place delete: the result is shorter than the backing array
			p.freeBlocks = append(p.freeBlocks[:i], p.freeBlocks[i+1:]...)
			return
		}
	}
}

// isRetired reports whether a plane's block has been retired.
func (f *FTL) isRetired(pIdx, block int) bool {
	return f.retired[pIdx][block]
}

// Failovers reports how many writes were re-homed off dead dies.
func (f *FTL) Failovers() int64 { return f.dieFailovers }

// collect performs greedy garbage collection on a plane: the closed
// block with the fewest valid pages is relocated (copyback, so no
// channel traffic) and erased.
func (f *FTL) collect(p *planeState) (*GCWork, error) {
	victim := -1
	best := f.geo.PagesPerBlock + 1
	for b, st := range p.blocks {
		if b == p.cursorBlock {
			continue
		}
		if n := len(st.valid); n < best {
			best = n
			victim = b
		}
	}
	if victim < 0 {
		//riflint:allow alloc -- failure path: GC found no victim, the write is dropped and the run returns the error
		return nil, fmt.Errorf("ssd: plane %v has no GC victim", p.addr)
	}
	st := p.blocks[victim]
	//riflint:allow alloc -- garbage collection: one work record per victim block, amortized over a block of writes
	work := &GCWork{Plane: p.addr, VictimBlock: victim, PagesRelocated: len(st.valid), Erases: 1}

	if _, err := f.relocateValid(p, st); err != nil {
		return nil, err
	}
	delete(p.blocks, victim)
	if !f.isRetired(f.planeIndexOfAddr(p.addr), victim) {
		f.pushFreeFront(p, victim)
	}
	f.gcRuns++
	f.pagesRelocated += int64(work.PagesRelocated)
	return work, nil
}

// relocateValid moves a block's valid pages into the cursor chain, in
// page order: map iteration order is randomized per run, and the order
// pages land on the cursor chain decides the post-GC physical layout
// (and thus every later read's timing). Write timestamps are
// preserved — relocation does not refresh retention age.
func (f *FTL) relocateValid(p *planeState, st *blockState) (int, error) {
	//riflint:allow alloc -- garbage collection: one page list per victim block, amortized over a block of writes
	pages := make([]int, 0, len(st.valid))
	for page := range st.valid {
		//riflint:allow alloc -- append into the capacity reserved just above
		pages = append(pages, page)
	}
	sort.Ints(pages)
	for _, page := range pages {
		lpn := st.valid[page]
		if p.cursorBlock < 0 || p.cursorPage >= f.geo.PagesPerBlock {
			if len(p.freeBlocks) == 0 {
				//riflint:allow alloc -- failure path: relocation wedged, the write is dropped and the run returns the error
				return 0, fmt.Errorf("ssd: plane %v wedged during relocation", p.addr)
			}
			p.cursorBlock = f.popFreeBlock(p)
			p.cursorPage = 0
			//riflint:allow alloc -- FTL map growth: one valid-page map per block opened by relocation, once per PagesPerBlock moves
			p.blocks[p.cursorBlock] = &blockState{valid: make(map[int]int64)}
		}
		addr := p.addr
		addr.Block = p.cursorBlock
		addr.Page = p.cursorPage
		p.cursorPage++
		p.blocks[p.cursorBlock].valid[addr.Page] = lpn
		old := f.written[lpn]
		f.written[lpn] = mapEntry{addr: addr, writtenAt: old.writtenAt}
	}
	return len(pages), nil
}

// ReclaimBlock migrates a specific write-region block's valid pages
// and erases it: the read-reclaim path. Unlike collect it does not
// pick a victim — the caller's disturb counter did — and it does not
// count into the GC statistics. It returns nil work (no error) when
// the block is not reclaimable right now: never written, already
// retired, or no free block to migrate into; the caller's counter
// reset re-arms the threshold.
func (f *FTL) ReclaimBlock(a nand.Address) (*GCWork, error) {
	pIdx := f.planeIndexOfAddr(a)
	p := &f.planes[pIdx]
	st, ok := p.blocks[a.Block]
	if !ok || f.isRetired(pIdx, a.Block) || len(p.freeBlocks) == 0 {
		return nil, nil
	}
	if a.Block == p.cursorBlock {
		// Reclaiming the open block: close the cursor first so its
		// pages do not relocate onto themselves.
		p.cursorBlock = -1
	}
	moved, err := f.relocateValid(p, st)
	if err != nil {
		return nil, err
	}
	delete(p.blocks, a.Block)
	f.pushFreeFront(p, a.Block)
	return &GCWork{Plane: p.addr, VictimBlock: a.Block, PagesRelocated: moved, Erases: 1}, nil
}

// WriteBase reports the first block index of the write region: blocks
// below it hold the immutable pre-fill image.
func (f *FTL) WriteBase() int { return f.writeBase }

// popFreeBlock takes a block from the plane's free list: the
// least-worn one when wear information is available (dynamic wear
// leveling), otherwise the most recently freed.
func (f *FTL) popFreeBlock(p *planeState) int {
	idx := len(p.freeBlocks) - 1
	if f.WearOf != nil {
		best := f.WearOf(p.addr, p.freeBlocks[idx])
		for i, b := range p.freeBlocks[:idx] {
			if w := f.WearOf(p.addr, b); w < best {
				best = w
				idx = i
			}
		}
	}
	block := p.freeBlocks[idx]
	//riflint:allow alloc -- in-place delete: the result is shorter than the backing array
	p.freeBlocks = append(p.freeBlocks[:idx], p.freeBlocks[idx+1:]...)
	return block
}

// pushFreeFront returns a block to the front of the plane's free list
// (the end popFreeBlock takes last when wear does not decide), shifting
// in place rather than reallocating the list.
func (f *FTL) pushFreeFront(p *planeState, block int) {
	//riflint:allow alloc -- free-list growth: bounded by the plane's write-region block count
	p.freeBlocks = append(p.freeBlocks, 0)
	copy(p.freeBlocks[1:], p.freeBlocks)
	p.freeBlocks[0] = block
}

// FreeBlocks reports a plane's free-block count (for tests).
func (f *FTL) FreeBlocks(planeIdx int) int { return len(f.planes[planeIdx].freeBlocks) }

// PlaneCount reports the number of planes.
func (f *FTL) PlaneCount() int { return len(f.planes) }

// PlaneIndexOf exposes the striping for tests and the request
// splitter.
func (f *FTL) PlaneIndexOf(lpn int64) int { return f.planeIndex(lpn) }

// GCStats reports cumulative GC activity.
func (f *FTL) GCStats() (runs, relocated int64) { return f.gcRuns, f.pagesRelocated }
