package ssd

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/nand"
	"repro/internal/sim"
)

func tinyGeo() nand.Geometry {
	return nand.Geometry{
		Channels: 2, DiesPerChan: 2, PlanesPerDie: 4,
		BlocksPerPlane: 8, PagesPerBlock: 4, PageBytes: 16 * 1024,
	}
}

func TestFTLStriping(t *testing.T) {
	f := NewFTL(tinyGeo())
	// Consecutive lpns fill planes of one die, then move to the next
	// channel.
	a0, _, _ := f.Lookup(0)
	a1, _, _ := f.Lookup(1)
	a3, _, _ := f.Lookup(3)
	a4, _, _ := f.Lookup(4)
	if a0.Channel != a1.Channel || a0.Die != a1.Die || a0.Plane == a1.Plane {
		t.Fatalf("lpn 0/1 not plane-striped: %+v %+v", a0, a1)
	}
	if a3.Plane != 3 {
		t.Fatalf("lpn 3 plane = %d", a3.Plane)
	}
	if a4.Channel == a0.Channel {
		t.Fatalf("lpn 4 did not move to the next channel: %+v", a4)
	}
}

func TestFTLMultiPlaneGroupsShareDie(t *testing.T) {
	f := NewFTL(nand.PaperGeometry())
	for group := int64(0); group < 100; group++ {
		base := group * 4
		a0, _, _ := f.Lookup(base)
		for i := int64(1); i < 4; i++ {
			a, _, _ := f.Lookup(base + i)
			if a.Channel != a0.Channel || a.Die != a0.Die {
				t.Fatalf("group %d not on one die", group)
			}
		}
	}
}

func TestFTLPrefillDeterministicAndDisjoint(t *testing.T) {
	f := NewFTL(tinyGeo())
	seen := map[nand.Address]int64{}
	// The pre-fill capacity of this geometry: 16 planes * 4 blocks
	// (write base = 8/2) * 4 pages = 256 pages.
	for lpn := int64(0); lpn < 256; lpn++ {
		a, _, written := f.Lookup(lpn)
		if written {
			t.Fatalf("lpn %d reported written on fresh FTL", lpn)
		}
		if a.Block >= 4 {
			t.Fatalf("prefill lpn %d in write region: %+v", lpn, a)
		}
		if prev, dup := seen[a]; dup {
			t.Fatalf("lpn %d and %d share prefill page %+v", prev, lpn, a)
		}
		seen[a] = lpn
		b, _, _ := f.Lookup(lpn)
		if b != a {
			t.Fatal("prefill lookup not deterministic")
		}
	}
}

func TestFTLWriteRemaps(t *testing.T) {
	f := NewFTL(tinyGeo())
	pre, _, _ := f.Lookup(5)
	addr, gc, err := f.Write(5, 1000, 0)
	if err != nil || gc != nil {
		t.Fatalf("write: %v gc=%v", err, gc)
	}
	if addr.Block < 4 {
		t.Fatalf("write landed in prefill region: %+v", addr)
	}
	got, at, written := f.Lookup(5)
	if !written || got != addr || at != 1000 {
		t.Fatalf("lookup after write: %+v at=%v written=%v", got, at, written)
	}
	if got == pre {
		t.Fatal("write did not remap")
	}
	// Second write moves again and invalidates.
	addr2, _, err := f.Write(5, 2000, 0)
	if err != nil {
		t.Fatal(err)
	}
	if addr2 == addr {
		t.Fatal("rewrite reused the same physical page")
	}
}

func TestFTLGarbageCollection(t *testing.T) {
	f := NewFTL(tinyGeo())
	// Hammer one stripe position so a single plane fills: lpns
	// congruent to 0 mod 16 land on plane 0. 4 free blocks x 4 pages:
	// keep 2 live lpns, overwrite them repeatedly.
	var sawGC bool
	for i := 0; i < 200; i++ {
		lpn := int64((i % 2) * 16)
		_, gc, err := f.Write(lpn, 0, 1)
		if err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
		if gc != nil {
			sawGC = true
			if gc.Erases != 1 {
				t.Fatalf("gc erases = %d", gc.Erases)
			}
		}
	}
	if !sawGC {
		t.Fatal("garbage collection never triggered")
	}
	runs, relocated := f.GCStats()
	if runs == 0 {
		t.Fatal("GC stats empty")
	}
	if relocated < 0 || relocated > runs*int64(tinyGeo().PagesPerBlock) {
		t.Fatalf("relocated %d pages over %d runs", relocated, runs)
	}
	// Both live lpns must still resolve.
	for _, lpn := range []int64{0, 16} {
		if _, _, written := f.Lookup(lpn); !written {
			t.Fatalf("lpn %d lost after GC", lpn)
		}
	}
}

func TestFTLGCPreservesData(t *testing.T) {
	f := NewFTL(tinyGeo())
	// Fill plane 0 with distinct live lpns until GC must run, and
	// verify every mapping stays unique and resolvable.
	live := []int64{0, 16, 32, 48, 64, 80}
	for round := 0; round < 30; round++ {
		lpn := live[round%len(live)]
		if _, _, err := f.Write(lpn, 0, 1); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		addrs := map[nand.Address]int64{}
		for _, l := range live[:min(len(live), round+1)] {
			a, _, w := f.Lookup(l)
			if !w {
				continue
			}
			if other, dup := addrs[a]; dup {
				t.Fatalf("lpns %d and %d map to the same page %+v", other, l, a)
			}
			addrs[a] = l
		}
	}
}

func TestFTLWearAwareAllocation(t *testing.T) {
	// With wear feedback, GC'd planes spread erases across blocks
	// rather than hammering the most recently freed one.
	geo := tinyGeo()
	wear := make(map[[2]int]int) // (planeBlockKey) -> erases
	f := NewFTL(geo)
	f.WearOf = func(plane nand.Address, block int) int {
		return wear[[2]int{geo.BlockID(nand.Address{Channel: plane.Channel, Die: plane.Die, Plane: plane.Plane}), block}]
	}
	for i := 0; i < 400; i++ {
		lpn := int64((i % 2) * 16) // two live lpns on plane 0
		_, gc, err := f.Write(lpn, 0, 1)
		if err != nil {
			t.Fatal(err)
		}
		if gc != nil {
			for _, victim := range gc.Victims {
				wear[[2]int{geo.BlockID(gc.Plane), victim}]++
			}
		}
	}
	if len(wear) < 3 {
		t.Fatalf("erases concentrated on %d blocks; wear leveling inactive", len(wear))
	}
	// No block should carry a dominant share of the erases.
	total, max := 0, 0
	for _, w := range wear {
		total += w
		if w > max {
			max = w
		}
	}
	if max*2 > total {
		t.Fatalf("one block took %d of %d erases", max, total)
	}
}

func TestFTLOutOfSpace(t *testing.T) {
	f := NewFTL(tinyGeo())
	// 4 free blocks x 4 pages = 16 physical slots on plane 0. Writing
	// 17+ distinct lpns (all live, nothing to collect) must fail
	// rather than corrupt state or shuffle full blocks around.
	var err error
	for i := 0; i < 40 && err == nil; i++ {
		_, _, err = f.Write(int64(i*16), 0, 0)
	}
	if err == nil || !strings.Contains(err.Error(), "frees a page") {
		t.Fatalf("overfilling a plane: err = %v, want a GC failure that nothing is reclaimable", err)
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// gcSequence replays one seeded random overwrite sequence and records
// every garbage collection it triggers, up to the first error.
func gcSequence(geo nand.Geometry, seed uint64, footprint int64, writes, gcLow int) ([]string, int, error) {
	f := NewFTL(geo)
	rng := sim.NewRNG(seed, 3)
	var seq []string
	gcs := 0
	for i := 0; i < writes; i++ {
		_, gc, err := f.Write(rng.Int64N(footprint), sim.Time(i), gcLow)
		if err != nil {
			return seq, gcs, err
		}
		if gc != nil {
			gcs++
			seq = append(seq, fmt.Sprintf("%d:%v/%v/%d", i, gc.Plane, gc.Victims, gc.PagesRelocated))
		}
	}
	return seq, gcs, nil
}

// TestFTLGCVictimChoiceDeterministic repeats one seeded write sequence
// and requires the same garbage collections every time: when victims
// tie on valid pages, the lowest block index wins, not whichever block
// a map iteration happens to visit first.
func TestFTLGCVictimChoiceDeterministic(t *testing.T) {
	geo := nand.Geometry{
		Channels: 2, DiesPerChan: 2, PlanesPerDie: 4,
		BlocksPerPlane: 32, PagesPerBlock: 8, PageBytes: 16 * 1024,
	}
	want, gcs, err := gcSequence(geo, 11, 1024, 8000, 2)
	for rep := 1; rep < 30; rep++ {
		got, _, _ := gcSequence(geo, 11, 1024, 8000, 2)
		if strings.Join(got, " ") != strings.Join(want, " ") {
			t.Fatalf("repeat %d collected differently from the first run", rep)
		}
	}
	if err != nil {
		t.Fatal(err)
	}
	if gcs < 100 {
		t.Fatalf("only %d garbage collections; the sequence must exercise victim ties", gcs)
	}
}

// TestFTLGCRestoresLowWaterMark overwrites one plane at random at
// several utilisations for four times its write region: garbage
// collection must keep the plane above its low-water mark for good,
// not lose a free block per collection until relocation wedges.
func TestFTLGCRestoresLowWaterMark(t *testing.T) {
	geo := nand.Geometry{
		Channels: 1, DiesPerChan: 1, PlanesPerDie: 1,
		BlocksPerPlane: 256, PagesPerBlock: 128, PageBytes: 16 * 1024,
	}
	const gcLow = 2
	region := (geo.BlocksPerPlane / 2) * geo.PagesPerBlock
	for _, util := range []float64{0.3, 0.5, 0.7, 0.85} {
		f := NewFTL(geo)
		rng := sim.NewRNG(5, 9)
		footprint := int64(util * float64(region))
		model := make(map[int64]sim.Time)
		for i := 0; i < 5*region; i++ {
			lpn := int64(i)
			if lpn >= footprint {
				lpn = rng.Int64N(footprint)
			}
			now := sim.Time(i + 1)
			if _, _, err := f.Write(lpn, now, gcLow); err != nil {
				t.Fatalf("utilisation %.2f: write %d: %v", util, i, err)
			}
			model[lpn] = now
			if free := f.FreeBlocks(0); free < gcLow {
				t.Fatalf("utilisation %.2f: write %d left %d free blocks, low-water mark %d", util, i, free, gcLow)
			}
		}
		runs, _ := f.GCStats()
		if runs < int64(region/geo.PagesPerBlock) {
			t.Fatalf("utilisation %.2f: only %d garbage collections", util, runs)
		}
		checkInvariants(t, f, model)
	}
}

// TestFTLFarLPNs writes the lowest and a very high LPN: both read
// back, and the page table allocates two chunks, not a directory
// spanning the gap.
func TestFTLFarLPNs(t *testing.T) {
	f := NewFTL(tinyGeo())
	for i, lpn := range []int64{0, 1 << 62} {
		if _, _, err := f.Write(lpn, sim.Time(i+1), 2); err != nil {
			t.Fatal(err)
		}
	}
	for i, lpn := range []int64{0, 1 << 62} {
		if _, at, written := f.Lookup(lpn); !written || at != sim.Time(i+1) {
			t.Fatalf("Lookup(%d) = written %v at %v", lpn, written, at)
		}
	}
	if _, _, written := f.Lookup(1<<62 + 1); written {
		t.Fatal("an unwritten neighbour of a far LPN reads as written")
	}
	if f.fwd.chunks != 2 || len(f.fwd.dir) > dirSlack*2 || len(f.fwd.far) > 1 {
		t.Fatalf("page table holds %d chunks, a %d-entry directory and %d far chunks", f.fwd.chunks, len(f.fwd.dir), len(f.fwd.far))
	}
}

// TestFTLZeroAlloc is the runtime half of the //riflint:hotpath guard
// on Write, Lookup and invalidate: once every chunk of the footprint
// exists and the spare page-array pool has filled, overwrites —
// garbage collection included — and lookups allocate nothing.
func TestFTLZeroAlloc(t *testing.T) {
	geo := nand.Geometry{
		Channels: 1, DiesPerChan: 1, PlanesPerDie: 2,
		BlocksPerPlane: 64, PagesPerBlock: 32, PageBytes: 16 * 1024,
	}
	f := NewFTL(geo)
	rng := sim.NewRNG(1, 1)
	const footprint = 1024
	now := sim.Time(0)
	overwrite := func() {
		for i := 0; i < 64; i++ {
			now++
			if _, _, err := f.Write(rng.Int64N(footprint), now, 2); err != nil {
				t.Fatal(err)
			}
			f.Lookup(rng.Int64N(2 * footprint))
		}
	}
	for i := 0; i < 200; i++ {
		overwrite()
	}
	if runs, _ := f.GCStats(); runs == 0 {
		t.Fatal("warm-up never garbage collected")
	}
	if allocs := testing.AllocsPerRun(100, overwrite); allocs != 0 {
		t.Fatalf("%.1f allocations per 64 steady-state overwrites and lookups; the FTL hot path must be allocation-free", allocs)
	}
}
