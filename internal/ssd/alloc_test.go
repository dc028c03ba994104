package ssd

import (
	"testing"

	"repro/internal/trace"
)

// allocStubWorkload satisfies Workload without pulling in a trace
// generator; predictFail never touches the workload.
type allocStubWorkload struct{}

func (allocStubWorkload) Next() trace.Request          { return trace.Request{} }
func (allocStubWorkload) InitialAgeDays(int64) float64 { return 0 }

// TestPredictFailZeroAlloc is the runtime half of the //riflint:hotpath
// guard on predictFail: one prediction per read in the RiF read path,
// zero heap allocations. If riflint's static check and this pin ever
// disagree, one of them has a bug.
func TestPredictFailZeroAlloc(t *testing.T) {
	s, err := New(DefaultConfig(RiF, 2000), allocStubWorkload{})
	if err != nil {
		t.Fatal(err)
	}
	fail := pageView{rberFirst: 1e-3, fails: false}
	pass := pageView{rberFirst: 5e-4, fails: true}
	if allocs := testing.AllocsPerRun(1000, func() {
		s.predictFail(fail)
		s.predictFail(pass)
	}); allocs != 0 {
		t.Fatalf("predictFail allocates %.1f times per call pair; the hot path must be allocation-free", allocs)
	}
}

// TestNoteSenseZeroAlloc is the runtime half of the //riflint:hotpath
// guard on noteSense: the per-read disturb bookkeeping and reclaim
// threshold check run on every array sense and must not allocate. The
// reclaim seam is stubbed so the (cold, allocating) migration path
// behind a threshold crossing stays out of the measurement — riflint's
// static check stops at the same boundary.
func TestNoteSenseZeroAlloc(t *testing.T) {
	s, err := New(DefaultConfig(RiF, 1000), allocStubWorkload{})
	if err != nil {
		t.Fatal(err)
	}
	crossings := 0
	s.reclaim = func(bid int) {
		crossings++
		s.readCounts[bid] = 0
	}
	if allocs := testing.AllocsPerRun(1000, func() {
		s.noteSense(1)
		s.noteSense(2)
	}); allocs != 0 {
		t.Fatalf("noteSense allocates %.1f times per call pair; the per-sense hot path must be allocation-free", allocs)
	}
}

// steadyStateAllocsPerRequest builds a device with the benchmark
// sizing, warms it with one round of closed-loop requests — free
// lists, station FIFOs, record buffers, FTL tables and variation slabs
// reach their high-water marks — then measures the heap allocations of
// further rounds on the same device, per simulated request. A round is
// Run's closed loop without its end-of-run drain checks, so the device
// can be driven again.
func steadyStateAllocsPerRequest(t *testing.T, scheme Scheme, pe int, workload string) float64 {
	t.Helper()
	const warm, n = 4000, 2000
	s, err := New(benchConfig(scheme, pe), smallWorkload(t, workload, 1))
	if err != nil {
		t.Fatal(err)
	}
	round := func(requests int) {
		s.toIssue = requests
		for i := 0; i < s.cfg.QueueDepth; i++ {
			s.issueNext()
		}
		s.eng.Run()
		if s.runErr != nil || s.inFlight != 0 {
			t.Fatalf("round ended with error %v and %d requests in flight", s.runErr, s.inFlight)
		}
	}
	round(warm)
	allocs := testing.AllocsPerRun(3, func() { round(n) })
	return allocs / n
}

// TestRequestPathSteadyStateAllocs is the runtime half of the
// //riflint:hotpath guard on the command state machine: once a device
// is warm, a simulated request — sense, RP prediction, RVS re-read,
// channel transfer, decode, retry rounds, host transfer — allocates
// (almost) nothing. What remains is amortized growth the riflint
// waivers name: the latency sample, page-table chunks and page arrays
// for newly written footprint, and free-list or FIFO high-water growth.
func TestRequestPathSteadyStateAllocs(t *testing.T) {
	cases := []struct {
		name     string
		scheme   Scheme
		pe       int
		workload string
		max      float64
	}{
		{"RiF@2K/Ali124", RiF, 2000, "Ali124", 2},
		{"SENC@2K/Ali124", Sentinel, 2000, "Ali124", 2},
		// The write-heavy mix measures 0.048 with the dense FTL tables
		// (0.238 with hash maps): what remains is page-table chunks and
		// page arrays for newly written footprint.
		{"RiF@1K/Ali2", RiF, 1000, "Ali2", 0.1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := steadyStateAllocsPerRequest(t, tc.scheme, tc.pe, tc.workload)
			t.Logf("%.3f allocs/request", got)
			if got > tc.max {
				t.Fatalf("%.3f allocations per steady-state request, pinned at <= %v", got, tc.max)
			}
		})
	}
}
