package nand

import (
	"math"
	"testing"
)

// TestEvaluatorMatchesReference pins the one-condition evaluator bit
// for bit against two reference PageRBER calls — the first-read mode
// and OptimalVref, both from one PageRead — over every page type, every
// first-read mode, P/E 0..5K, retention 0..365 days and 0..1M block
// reads, and over a second, fresh evaluator whose memo is cold, so the
// memoised and the first-touch paths are both covered.
func TestEvaluatorMatchesReference(t *testing.T) {
	m := NewDefaultModel(7)
	warm := NewEvaluator(m)
	pes := []int{0, 200, 500, 1000, 2000, 3000, 5000}
	days := []float64{-1, 0, 0.5, 1, 7, 14, 30, 90, 180, 365}
	reads := []int64{0, 1, 100, 10_000, 100_000, 1_000_000}
	blocks := []int{0, 1, 1023, 1024, 5000, 241_663}
	n := 0
	for _, bid := range blocks {
		for _, pt := range []PageType{LSB, CSB, MSB} {
			for _, mode := range []VrefMode{DefaultVref, OptimalVref, TrackedVref} {
				for _, pe := range pes {
					for _, d := range days {
						for _, r := range reads {
							wantFirst := m.PageRBER(bid, pt, pe, d, r, mode)
							wantOpt := m.PageRBER(bid, pt, pe, d, r, OptimalVref)
							for _, e := range []*Evaluator{warm, NewEvaluator(m)} {
								rd := e.Read(bid, pt, pe, d, r)
								f, o := e.RBER(rd, mode), e.RBER(rd, OptimalVref)
								if math.Float64bits(f) != math.Float64bits(wantFirst) || math.Float64bits(o) != math.Float64bits(wantOpt) {
									t.Fatalf("block %d %v %v pe=%d days=%v reads=%d: evaluator (%v, %v), reference (%v, %v)",
										bid, pt, mode, pe, d, r, f, o, wantFirst, wantOpt)
								}
							}
							n++
						}
					}
				}
			}
		}
	}
	if n == 0 {
		t.Fatal("empty table")
	}
}

// TestEvaluatorVariationMatchesBlockVariation checks the lazily
// memoised variation equals the reference on every block of the paper
// geometry, on first touch and on the memoised re-read.
func TestEvaluatorVariationMatchesBlockVariation(t *testing.T) {
	m := NewDefaultModel(3)
	e := NewEvaluator(m)
	blocks := PaperGeometry().TotalBlocks()
	for pass := 0; pass < 2; pass++ {
		// Walk high to low on the first pass so slab-index growth from
		// an out-of-order first touch is exercised too.
		for i := 0; i < blocks; i++ {
			bid := i
			if pass == 0 {
				bid = blocks - 1 - i
			}
			if got, want := e.BlockVariation(bid), m.BlockVariation(bid); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("pass %d block %d: memoised variation %v, reference %v", pass, bid, got, want)
			}
		}
	}
}

// TestEvaluatorZeroAlloc is the runtime half of the //riflint:hotpath
// guard on the evaluator: once a block's slab exists, a page read
// allocates nothing.
func TestEvaluatorZeroAlloc(t *testing.T) {
	e := NewEvaluator(NewDefaultModel(1))
	e.Read(10, CSB, 1000, 14, 100) // allocate the slab
	if allocs := testing.AllocsPerRun(1000, func() {
		rd := e.Read(10, CSB, 1000, 14, 100)
		e.RBER(rd, DefaultVref)
		e.RBER(rd, OptimalVref)
		e.RBER(e.Read(11, MSB, 2000, 30, 0), TrackedVref)
	}); allocs != 0 {
		t.Fatalf("a page read allocates %.1f times per iteration; the page-read path must be allocation-free", allocs)
	}
}
