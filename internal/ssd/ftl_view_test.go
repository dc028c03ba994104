package ssd

import (
	"repro/internal/nand"
	"repro/internal/sim"
)

// ftlView is a representation-independent snapshot of the FTL's
// tables: the only code in the model-based checker that reads the
// FTL's internal layout.
type ftlView struct {
	forward map[int64]fwdView      // lpn -> current mapping
	reverse map[nand.Address]int64 // valid physical page -> lpn
	planes  []planeView
}

type fwdView struct {
	addr nand.Address
	at   sim.Time
}

type planeView struct {
	addr        nand.Address
	cursorBlock int
	cursorPage  int
	free        []int
	inUse       map[int]int // block -> the FTL's own valid-page count
}

func viewFTL(f *FTL) ftlView {
	v := ftlView{
		forward: make(map[int64]fwdView),
		reverse: make(map[nand.Address]int64),
	}
	chunk := func(i int64, c *fwdChunk) {
		for j := range c {
			if e := c[j]; e.ppn != 0 {
				_, a := f.addrOf(e.ppn - 1)
				v.forward[i<<chunkBits|int64(j)] = fwdView{addr: a, at: e.at}
			}
		}
	}
	for i, c := range f.fwd.dir {
		if c != nil {
			chunk(int64(i), c)
		}
	}
	for _, fc := range f.fwd.far {
		chunk(fc.idx, fc.c)
	}
	for i := range f.planes {
		p := &f.planes[i]
		pv := planeView{
			addr:        p.addr,
			cursorBlock: p.cursorBlock,
			cursorPage:  p.cursorPage,
			free:        append([]int(nil), p.freeBlocks...),
			inUse:       make(map[int]int),
		}
		for k, st := range p.blocks {
			if !st.inUse {
				continue
			}
			b := f.writeBase + k
			pv.inUse[b] = int(st.valid)
			if st.arr == 0 {
				continue
			}
			for page, lpn := range f.pages[st.arr-1] {
				if lpn >= 0 {
					a := p.addr
					a.Block, a.Page = b, page
					v.reverse[a] = lpn
				}
			}
		}
		v.planes = append(v.planes, pv)
	}
	return v
}

// isRetired reports whether a plane's block has been retired.
func (f *FTL) isRetired(pIdx, block int) bool {
	p := &f.planes[pIdx]
	off := block - f.writeBase
	return off >= 0 && off < len(p.blocks) && p.blocks[off].retired
}
