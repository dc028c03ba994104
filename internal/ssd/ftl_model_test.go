package ssd

import (
	"testing"

	"repro/internal/nand"
	"repro/internal/sim"
)

// ftlModelGeo is small enough that a few thousand random operations
// cycle every block of every plane many times: 8 planes on 4 dies,
// each plane's write region 8 blocks of 8 pages.
func ftlModelGeo() nand.Geometry {
	return nand.Geometry{
		Channels: 2, DiesPerChan: 2, PlanesPerDie: 2,
		BlocksPerPlane: 16, PagesPerBlock: 8, PageBytes: 16 * 1024,
	}
}

// ftlModelLPN draws a logical page: mostly a dense low range, plus two
// small clusters far out in the int64 space (CSV traces accept any
// non-negative LPN).
func ftlModelLPN(rng *sim.RNG) int64 {
	switch r := rng.IntN(10); {
	case r == 0:
		return 1<<40 + rng.Int64N(8)
	case r == 1:
		return 1<<62 + rng.Int64N(8)
	default:
		return rng.Int64N(80)
	}
}

// ftlModelStats counts what one run exercised, so the checker cannot
// pass vacuously.
type ftlModelStats struct {
	steps, writes, gcs, reclaims, retires, deadDies int
	failovers                                       int64
}

// runFTLModel drives one seeded random interleaving of Write,
// ReclaimBlock, RetireBlock and die failover against a reference
// map of every LPN's last write time, checking the FTL's invariants
// after every operation. An FTL error ends the run: in the simulator
// it ends the run too (the first error is the run's result).
func runFTLModel(t *testing.T, seed uint64, steps int) ftlModelStats {
	t.Helper()
	geo := ftlModelGeo()
	const gcLow = 2
	f := NewFTL(geo)
	rng := sim.NewRNG(seed, 77)
	dead := make([]bool, geo.TotalDies())
	f.DieDown = func(d int) bool { return dead[d] }
	model := make(map[int64]sim.Time)
	var st ftlModelStats
	for step := 1; step <= steps; step++ {
		now := sim.Time(step)
		switch r := rng.IntN(100); {
		case r < 85:
			lpn := ftlModelLPN(rng)
			addr, gc, err := f.Write(lpn, now, gcLow)
			if err != nil {
				t.Logf("seed %d: run ends at step %d: %v", seed, step, err)
				st.failovers = f.Failovers()
				return st
			}
			model[lpn] = now
			st.writes++
			if gc != nil {
				st.gcs++
			}
			if got, at, ok := f.Lookup(lpn); !ok || got != addr || at != now {
				t.Fatalf("seed %d step %d: Lookup(%d) = %+v@%v (%v), Write placed it at %+v@%v", seed, step, lpn, got, at, ok, addr, now)
			}
		case r < 93:
			a := f.planes[rng.IntN(len(f.planes))].addr
			a.Block = f.WriteBase() + rng.IntN(geo.BlocksPerPlane-f.WriteBase())
			w, err := f.ReclaimBlock(a)
			if err != nil {
				t.Logf("seed %d: run ends at step %d: %v", seed, step, err)
				st.failovers = f.Failovers()
				return st
			}
			if w != nil {
				st.reclaims++
			}
		case r < 97:
			if st.retires < 6 {
				a := f.planes[rng.IntN(len(f.planes))].addr
				a.Block = rng.IntN(geo.BlocksPerPlane)
				f.RetireBlock(a)
				st.retires++
			}
		default:
			if st.deadDies < 2 && rng.IntN(8) == 0 {
				d := rng.IntN(len(dead))
				if !dead[d] {
					dead[d] = true
					st.deadDies++
				}
			}
		}
		checkInvariants(t, f, model)
		st.steps++
	}
	st.failovers = f.Failovers()
	return st
}

// checkInvariants verifies the FTL's tables against each other and
// against the reference model:
//   - every LPN the model wrote resolves through Lookup to its last
//     write, and nothing else is mapped;
//   - forward and reverse maps form a bijection over write-region pages;
//   - each in-use block's valid count matches its reverse entries;
//   - free lists hold no duplicates and are disjoint from in-use and
//     retired blocks, and no write-region block is lost (each is free,
//     in use or retired);
//   - the cursor block is in use and its valid pages lie below the
//     cursor.
func checkInvariants(t *testing.T, f *FTL, model map[int64]sim.Time) {
	t.Helper()
	geo := f.geo
	v := viewFTL(f)
	if len(v.forward) != len(model) {
		t.Fatalf("forward map holds %d LPNs, model %d", len(v.forward), len(model))
	}
	type blockKey struct{ plane, block int }
	counts := make(map[blockKey]int)
	for lpn, at := range model {
		fw, ok := v.forward[lpn]
		if !ok {
			t.Fatalf("LPN %d written at %v is missing from the forward map", lpn, at)
		}
		addr, gotAt, written := f.Lookup(lpn)
		if !written || addr != fw.addr || gotAt != at || fw.at != at {
			t.Fatalf("Lookup(%d) = %+v@%v (%v), forward entry %+v@%v, last write at %v", lpn, addr, gotAt, written, fw.addr, fw.at, at)
		}
		if addr.Block < f.WriteBase() || addr.Block >= geo.BlocksPerPlane || addr.Page < 0 || addr.Page >= geo.PagesPerBlock {
			t.Fatalf("LPN %d maps outside the write region: %+v", lpn, addr)
		}
		if back, ok := v.reverse[addr]; !ok || back != lpn {
			t.Fatalf("LPN %d maps to %+v, whose reverse entry is %d (%v)", lpn, addr, back, ok)
		}
		counts[blockKey{f.planeIndexOfAddr(addr), addr.Block}]++
	}
	if len(v.reverse) != len(v.forward) {
		t.Fatalf("reverse map holds %d valid pages, forward map %d LPNs", len(v.reverse), len(v.forward))
	}
	for pIdx, pv := range v.planes {
		for b, n := range pv.inUse {
			if want := counts[blockKey{pIdx, b}]; n != want {
				t.Fatalf("plane %d block %d counts %d valid pages, %d LPNs map there", pIdx, b, n, want)
			}
		}
		for k, n := range counts {
			if _, ok := pv.inUse[k.block]; k.plane == pIdx && !ok {
				t.Fatalf("%d LPNs map into plane %d block %d, which is not in use", n, pIdx, k.block)
			}
		}
		free := make(map[int]bool, len(pv.free))
		for _, b := range pv.free {
			switch {
			case free[b]:
				t.Fatalf("plane %d free list holds block %d twice: %v", pIdx, b, pv.free)
			case b < f.WriteBase() || b >= geo.BlocksPerPlane:
				t.Fatalf("plane %d free list holds block %d outside the write region", pIdx, b)
			case f.isRetired(pIdx, b):
				t.Fatalf("plane %d free list holds retired block %d", pIdx, b)
			}
			if _, ok := pv.inUse[b]; ok {
				t.Fatalf("plane %d block %d is both free and in use", pIdx, b)
			}
			free[b] = true
		}
		for b := f.WriteBase(); b < geo.BlocksPerPlane; b++ {
			if _, ok := pv.inUse[b]; !ok && !free[b] && !f.isRetired(pIdx, b) {
				t.Fatalf("plane %d block %d is neither free, in use nor retired", pIdx, b)
			}
		}
		if pv.cursorBlock >= 0 {
			if _, ok := pv.inUse[pv.cursorBlock]; !ok {
				t.Fatalf("plane %d cursor block %d is not in use", pIdx, pv.cursorBlock)
			}
			if pv.cursorPage < 0 || pv.cursorPage > geo.PagesPerBlock {
				t.Fatalf("plane %d cursor page %d", pIdx, pv.cursorPage)
			}
		}
	}
	for a := range v.reverse {
		pv := v.planes[f.planeIndexOfAddr(a)]
		if a.Block == pv.cursorBlock && a.Page >= pv.cursorPage {
			t.Fatalf("valid page %+v at or past the cursor (page %d)", a, pv.cursorPage)
		}
	}
}

// TestFTLModelChecker is the model-based check of the FTL: seeded
// random interleavings of host writes (with garbage collection),
// read-reclaim migrations, block retirements and die failover must
// keep the tables consistent with each other and with a reference map
// of each LPN's last write.
func TestFTLModelChecker(t *testing.T) {
	var total ftlModelStats
	for seed := uint64(1); seed <= 16; seed++ {
		st := runFTLModel(t, seed, 3000)
		total.steps += st.steps
		total.writes += st.writes
		total.gcs += st.gcs
		total.reclaims += st.reclaims
		total.retires += st.retires
		total.deadDies += st.deadDies
		total.failovers += st.failovers
	}
	t.Logf("%+v", total)
	if total.gcs == 0 || total.reclaims == 0 || total.retires == 0 || total.deadDies == 0 || total.failovers == 0 {
		t.Fatalf("the random runs left a path unexercised: %+v", total)
	}
}
