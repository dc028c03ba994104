package ssd

import (
	"fmt"
	"math/bits"

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

	// fwd maps every LPN written during the run to its physical page.
	fwd pageTable
	// pageBits and blockBits pack a physical page into one int64 id:
	// plane index, then block, then page (see ppn).
	pageBits, blockBits uint

	planes []planeState

	// pages holds every page→LPN array the reverse map ever needed: a
	// block's array grows as its pages are programmed, and -1 marks an
	// invalidated page. spare lists the arrays no block holds, reused
	// (with their capacity) when a block opens.
	pages [][]int64
	spare []int32

	// work is the record Write and ReclaimBlock return.
	work GCWork

	// Counters surfaced through Metrics.
	gcRuns         int64
	pagesRelocated int64
	dieFailovers   int64
}

type planeState struct {
	addr        nand.Address // channel/die/plane coordinates
	cursorBlock int          // open write block, -1 when none has room
	cursorPage  int          // next page to program in cursorBlock
	freeBlocks  []int
	// blocks is the reverse map of the write region, indexed by block
	// − writeBase. It grows to cover the highest block the plane has
	// opened or retired: allocation takes low blocks first, so a short
	// run touches only a few.
	blocks []blockState
}

// blockState is one write-region block's reverse map.
type blockState struct {
	arr     int32 // 1 + index of its page→LPN array in FTL.pages; 0 when it holds none
	valid   int32 // live entries in the array
	inUse   bool  // opened since its last erase
	retired bool  // grown bad: never returned to the free list
}

// NewFTL builds the translation layer for a geometry.
func NewFTL(geo nand.Geometry) *FTL {
	f := &FTL{
		geo:       geo,
		writeBase: geo.BlocksPerPlane / 2,
		pageBits:  uint(bits.Len(uint(geo.PagesPerBlock - 1))),
		blockBits: uint(bits.Len(uint(geo.BlocksPerPlane - 1))),
	}
	nPlanes := geo.TotalDies() * geo.PlanesPerDie
	f.planes = make([]planeState, nPlanes)
	for i := range f.planes {
		ch, die, pl := f.planeCoords(i)
		p := &f.planes[i]
		p.addr = nand.Address{Channel: ch, Die: die, Plane: pl}
		p.cursorBlock = -1
		// Free blocks: the whole write region, allocated low-first.
		p.freeBlocks = make([]int, 0, geo.BlocksPerPlane-f.writeBase)
		for b := geo.BlocksPerPlane - 1; b >= f.writeBase; b-- {
			p.freeBlocks = append(p.freeBlocks, b)
		}
	}
	return f
}

// ppn packs a physical page into the id the forward map stores.
func (f *FTL) ppn(pIdx, block, page int) int64 {
	return (int64(pIdx)<<f.blockBits|int64(block))<<f.pageBits | int64(page)
}

// addrOf unpacks a physical page id.
func (f *FTL) addrOf(ppn int64) (pIdx int, a nand.Address) {
	pIdx = int(ppn >> (f.pageBits + f.blockBits))
	a = f.planes[pIdx].addr
	a.Block = int(ppn>>f.pageBits) & (1<<f.blockBits - 1)
	a.Page = int(ppn) & (1<<f.pageBits - 1)
	return pIdx, a
}

// block returns a write-region block's reverse map.
func (f *FTL) block(p *planeState, block int) *blockState {
	return &p.blocks[block-f.writeBase]
}

// blockGrown returns a write-region block's reverse map, growing the
// plane's slice to cover it: first to smallGrowth blocks, then to the
// whole write region.
func (f *FTL) blockGrown(p *planeState, block int) *blockState {
	if off := block - f.writeBase; off >= len(p.blocks) {
		n := f.geo.BlocksPerPlane - f.writeBase
		if off < smallGrowth && len(p.blocks) == 0 {
			n = min(n, smallGrowth)
		}
		//riflint:allow alloc -- reverse-map growth: twice per plane at most
		grown := make([]blockState, n)
		copy(grown, p.blocks)
		p.blocks = grown
	}
	return f.block(p, block)
}

// smallGrowth sizes a plane's first block-state slice and a page
// array's first allocation: a short run opens few blocks per plane and
// programs few pages per block, so the tables reach full size only
// when a run fills them.
const smallGrowth = 8

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
//
//riflint:hotpath
func (f *FTL) Lookup(lpn int64) (addr nand.Address, writtenAt sim.Time, written bool) {
	if e := f.fwd.entry(lpn); e != nil && e.ppn != 0 {
		_, addr = f.addrOf(e.ppn - 1)
		return addr, e.at, true
	}
	return f.prefillAddress(lpn), 0, false
}

// GCWork describes the relocation the caller must charge to the die
// before the write that triggered it proceeds. The FTL owns the
// record: it is valid until the next Write or ReclaimBlock.
type GCWork struct {
	Plane          nand.Address // channel/die/plane of the collected plane
	Victims        []int        // block indices erased within the plane, in erase order
	PagesRelocated int
	Erases         int
}

// Write maps lpn to a fresh physical page, invalidating any previous
// mapping. It returns the new address and any garbage-collection work
// performed to free space. gcLow is the free-block low-water mark:
// when the plane needs a new block and holds no more than gcLow free
// ones, garbage collection runs until it holds more.
//
//riflint:hotpath
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
	if p.cursorBlock < 0 {
		if len(p.freeBlocks) <= gcLow {
			if err := f.collect(p, gcLow); err != nil {
				return nand.Address{}, nil, err
			}
			gc = &f.work
		}
		// Relocation may have left room in a new cursor block.
		if p.cursorBlock < 0 {
			if len(p.freeBlocks) == 0 {
				//riflint:allow alloc -- failure path: the plane is full, the write is dropped and the run returns the error
				return nand.Address{}, nil, fmt.Errorf("ssd: plane %v out of free blocks", p.addr)
			}
			f.openBlock(p)
		}
	}

	e := f.fwd.slot(lpn)
	f.invalidate(e)
	addr := p.addr
	addr.Block, addr.Page = f.program(p, lpn)
	*e = fwdEntry{ppn: f.ppn(pIdx, addr.Block, addr.Page) + 1, at: now}
	return addr, gc, nil
}

// program stores lpn at the plane's write cursor, which must be open,
// and reports the page it landed on. A block whose last page is
// programmed closes: the cursor is open only while it has room.
func (f *FTL) program(p *planeState, lpn int64) (block, page int) {
	block, page = p.cursorBlock, p.cursorPage
	st := f.block(p, block)
	lpns := f.pages[st.arr-1]
	if len(lpns) == cap(lpns) {
		//riflint:allow alloc -- page-array growth: once per pooled array, which keeps the capacity
		lpns = append(make([]int64, 0, f.geo.PagesPerBlock), lpns...)
	}
	//riflint:allow alloc -- append into capacity: the array holds PagesPerBlock pages once grown
	f.pages[st.arr-1] = append(lpns, lpn)
	st.valid++
	if p.cursorPage++; p.cursorPage == f.geo.PagesPerBlock {
		p.cursorBlock = -1
	}
	return block, page
}

// invalidate drops the physical page behind a forward entry, if any.
// The page's own coordinates locate the plane: with die failover it
// may not live on the plane the striping would predict. A closed
// block left with no valid page hands its page array back to the
// spare pool; it stays in use, a free GC victim, until erased.
//
//riflint:hotpath
func (f *FTL) invalidate(e *fwdEntry) {
	if e.ppn == 0 {
		return
	}
	pIdx, a := f.addrOf(e.ppn - 1)
	p := &f.planes[pIdx]
	st := f.block(p, a.Block)
	f.pages[st.arr-1][a.Page] = -1
	st.valid--
	if st.valid == 0 && a.Block != p.cursorBlock {
		f.releasePages(st)
	}
}

// openBlock makes a free block the plane's write cursor.
func (f *FTL) openBlock(p *planeState) {
	b := f.popFreeBlock(p)
	st := f.blockGrown(p, b)
	st.inUse = true
	st.valid = 0
	if n := len(f.spare); n > 0 {
		st.arr = f.spare[n-1] + 1
		f.spare = f.spare[:n-1]
		f.pages[st.arr-1] = f.pages[st.arr-1][:0]
	} else {
		//riflint:allow alloc -- page-array pool growth: bounded by the blocks in use at once
		f.pages = append(f.pages, make([]int64, 0, min(f.geo.PagesPerBlock, smallGrowth)))
		st.arr = int32(len(f.pages))
	}
	p.cursorBlock = b
	p.cursorPage = 0
}

// releasePages returns a block's page array to the spare pool.
func (f *FTL) releasePages(st *blockState) {
	if st.arr != 0 {
		//riflint:allow alloc -- page-array pool growth: bounded by the blocks in use at once
		f.spare = append(f.spare, st.arr-1)
		st.arr = 0
	}
}

// erase returns a block to the free list, unless it is retired.
func (f *FTL) erase(p *planeState, block int) {
	st := f.block(p, block)
	f.releasePages(st)
	st.inUse = false
	st.valid = 0
	if !st.retired {
		f.pushFreeFront(p, block)
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
// returned to it by garbage collection. Pre-fill blocks are not
// FTL-managed, so retiring one changes nothing here.
func (f *FTL) RetireBlock(a nand.Address) {
	if a.Block < f.writeBase {
		return
	}
	p := &f.planes[f.planeIndexOfAddr(a)]
	f.blockGrown(p, a.Block).retired = true
	for i, b := range p.freeBlocks {
		if b == a.Block {
			//riflint:allow alloc -- in-place delete: the result is shorter than the backing array
			p.freeBlocks = append(p.freeBlocks[:i], p.freeBlocks[i+1:]...)
			return
		}
	}
}

// Failovers reports how many writes were re-homed off dead dies.
func (f *FTL) Failovers() int64 { return f.dieFailovers }

// collect performs greedy garbage collection on a plane until it holds
// more than gcLow free blocks: each round the closed block with the
// fewest valid pages (the lowest index on a tie) is relocated
// (copyback, so no channel traffic) and erased. The rounds are
// recorded in f.work. A victim with no invalid page would free
// nothing: the plane is full of live data, and collect fails.
func (f *FTL) collect(p *planeState, gcLow int) error {
	f.work = GCWork{Plane: p.addr, Victims: f.work.Victims[:0]}
	for len(p.freeBlocks) <= gcLow {
		victim := -1
		best := f.geo.PagesPerBlock
		for i := range p.blocks {
			st := &p.blocks[i]
			if b := f.writeBase + i; st.inUse && b != p.cursorBlock && int(st.valid) < best {
				best = int(st.valid)
				victim = b
			}
		}
		if victim < 0 {
			//riflint:allow alloc -- failure path: GC found no victim, the write is dropped and the run returns the error
			return fmt.Errorf("ssd: plane %v has no GC victim that frees a page", p.addr)
		}
		moved, err := f.relocateValid(p, victim)
		if err != nil {
			return err
		}
		f.erase(p, victim)
		//riflint:allow alloc -- reused record: grows to the most victims one collection ever took
		f.work.Victims = append(f.work.Victims, victim)
		f.work.PagesRelocated += moved
		f.work.Erases++
		f.gcRuns++
		f.pagesRelocated += int64(moved)
	}
	return nil
}

// relocateValid moves a block's valid pages into the cursor chain, in
// page order; the order pages land on the cursor chain decides the
// post-GC physical layout (and thus every later read's timing). Write
// timestamps are preserved — relocation does not refresh retention
// age. It fails, moving nothing, when the plane lacks the free blocks
// the move needs.
func (f *FTL) relocateValid(p *planeState, block int) (int, error) {
	st := f.block(p, block)
	moved := int(st.valid)
	room := 0
	if p.cursorBlock >= 0 {
		room = f.geo.PagesPerBlock - p.cursorPage
	}
	if need := moved - room; need > 0 && (need+f.geo.PagesPerBlock-1)/f.geo.PagesPerBlock > len(p.freeBlocks) {
		//riflint:allow alloc -- failure path: relocation wedged, the write is dropped and the run returns the error
		return 0, fmt.Errorf("ssd: plane %v wedged during relocation", p.addr)
	}
	if st.arr == 0 {
		return 0, nil
	}
	pIdx := f.planeIndexOfAddr(p.addr)
	for _, lpn := range f.pages[st.arr-1] {
		if lpn < 0 {
			continue
		}
		if p.cursorBlock < 0 {
			f.openBlock(p)
		}
		b, page := f.program(p, lpn)
		f.fwd.entry(lpn).ppn = f.ppn(pIdx, b, page) + 1
	}
	return moved, nil
}

// ReclaimBlock migrates a specific write-region block's valid pages
// and erases it: the read-reclaim path. Unlike collect it does not
// pick a victim — the caller's disturb counter did — and it does not
// count into the GC statistics. It returns nil work (no error) when
// the block is not reclaimable right now: never written, already
// retired, or no free block to migrate into; the caller's counter
// reset re-arms the threshold.
func (f *FTL) ReclaimBlock(a nand.Address) (*GCWork, error) {
	p := &f.planes[f.planeIndexOfAddr(a)]
	if off := a.Block - f.writeBase; off < 0 || off >= len(p.blocks) {
		return nil, nil
	}
	st := f.block(p, a.Block)
	if !st.inUse || st.retired || len(p.freeBlocks) == 0 {
		return nil, nil
	}
	if a.Block == p.cursorBlock {
		// Reclaiming the open block: close the cursor first so its
		// pages do not relocate onto themselves.
		p.cursorBlock = -1
	}
	moved, err := f.relocateValid(p, a.Block)
	if err != nil {
		return nil, err
	}
	f.erase(p, a.Block)
	f.work = GCWork{Plane: p.addr, Victims: append(f.work.Victims[:0], a.Block), PagesRelocated: moved, Erases: 1}
	return &f.work, nil
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
