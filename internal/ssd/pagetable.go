package ssd

import "repro/internal/sim"

// The FTL's forward map is a two-level page table: LPNs are grouped
// into fixed-size chunks, and a chunk is allocated the first time one
// of its LPNs is written. 64 entries (1 KiB) per chunk replay as fast
// as 256 or 1024 and cost least in short runs whose few writes scatter
// over the footprint (see DESIGN.md).
const (
	chunkBits = 6
	chunkLen  = 1 << chunkBits
)

// dirSlack bounds the dense directory: it may reach chunk index
// dirSlack × (chunks allocated), so its pointers never cost more than
// 1/8 of the chunks themselves, however large the LPNs.
const dirSlack = 16

// fwdEntry is one LPN's forward mapping. ppn is the packed physical
// page id plus one, so a zeroed entry reads as never written.
type fwdEntry struct {
	ppn int64
	at  sim.Time // write time; relocation keeps it (retention age)
}

type fwdChunk [chunkLen]fwdEntry

// pageTable maps LPNs to forward entries. Chunks whose index lies in
// reach of the dense directory live there; the rest (LPNs far beyond
// anything else written, or negative) live in a short sorted list and
// move into the directory once it grows past them.
type pageTable struct {
	dir    []*fwdChunk
	far    []farChunk // sorted by idx; every idx lies outside dir
	chunks int64
}

type farChunk struct {
	idx int64
	c   *fwdChunk
}

// entry returns lpn's forward entry, or nil when no LPN of its chunk
// was ever written.
//
//riflint:hotpath
func (t *pageTable) entry(lpn int64) *fwdEntry {
	i := lpn >> chunkBits
	var c *fwdChunk
	if uint64(i) < uint64(len(t.dir)) {
		c = t.dir[i]
	} else if k := t.farIndex(i); k < len(t.far) && t.far[k].idx == i {
		c = t.far[k].c
	}
	if c == nil {
		return nil
	}
	return &c[lpn&(chunkLen-1)]
}

// farIndex is the position of the first far chunk with index >= i.
func (t *pageTable) farIndex(i int64) int {
	lo, hi := 0, len(t.far)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if t.far[m].idx < i {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

// slot returns lpn's forward entry, allocating its chunk on first use.
func (t *pageTable) slot(lpn int64) *fwdEntry {
	if e := t.entry(lpn); e != nil {
		return e
	}
	//riflint:allow alloc -- page-table growth: one chunk per chunkLen LPNs, the first time one of them is written
	c := new(fwdChunk)
	t.place(lpn>>chunkBits, c)
	return &c[lpn&(chunkLen-1)]
}

// place installs a new chunk at index i: in the directory when i is in
// its reach, growing it to take in any far chunks now in reach too,
// otherwise in the far list.
func (t *pageTable) place(i int64, c *fwdChunk) {
	t.chunks++
	reach := dirSlack * t.chunks
	if i < 0 || i >= reach {
		k := t.farIndex(i)
		//riflint:allow alloc -- page-table growth: far chunks, once per chunk written beyond the directory's reach
		t.far = append(t.far, farChunk{})
		copy(t.far[k+1:], t.far[k:])
		t.far[k] = farChunk{idx: i, c: c}
		return
	}
	n := i + 1
	k := 0 // far chunks now in reach: a prefix of the non-negative ones
	for k < len(t.far) && t.far[k].idx < 0 {
		k++
	}
	lo := k
	for k < len(t.far) && t.far[k].idx < reach {
		n = max(n, t.far[k].idx+1)
		k++
	}
	for int64(len(t.dir)) < n {
		//riflint:allow alloc -- page-table growth: the directory doubles, bounded by dirSlack pointers per chunk
		t.dir = append(t.dir, nil)
	}
	for _, fc := range t.far[lo:k] {
		t.dir[fc.idx] = fc.c
	}
	//riflint:allow alloc -- in-place delete: the result is shorter than the backing array
	t.far = append(t.far[:lo], t.far[k:]...)
	t.dir[i] = c
}
