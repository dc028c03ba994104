package ssd

import (
	"testing"

	"repro/internal/sim"
)

// TestPageTableRandomFirstTouch writes a footprint in random order, so
// early chunks land beyond the directory's reach: every entry must
// read back, and once the directory has grown past them the far list
// must be empty again.
func TestPageTableRandomFirstTouch(t *testing.T) {
	const n = 1 << 16
	var pt pageTable
	order := sim.NewRNG(1, 2).Perm(n)
	sawFar := false
	for k, lpn := range order {
		pt.slot(int64(lpn)).ppn = int64(k) + 1
		sawFar = sawFar || len(pt.far) > 0
	}
	if !sawFar {
		t.Fatal("no chunk ever went to the far list; the test no longer exercises it")
	}
	if len(pt.far) != 0 || len(pt.dir) != n/chunkLen {
		t.Fatalf("%d far chunks and a %d-entry directory after writing %d LPNs", len(pt.far), len(pt.dir), n)
	}
	for k, lpn := range order {
		if e := pt.entry(int64(lpn)); e == nil || e.ppn != int64(k)+1 {
			t.Fatalf("LPN %d lost its entry", lpn)
		}
	}
}
