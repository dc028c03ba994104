package ssd

import (
	"testing"

	"repro/internal/trace"
)

// Microbenchmarks for the simulator itself: events per second is what
// bounds how large an experiment the harness can afford.

func benchWorkload(b *testing.B, name string) *trace.Generator {
	b.Helper()
	spec, err := trace.ByName(name)
	if err != nil {
		b.Fatal(err)
	}
	spec.FootprintPages = 1 << 17
	g, err := trace.NewGenerator(spec, 1)
	if err != nil {
		b.Fatal(err)
	}
	return g
}

func benchConfig(scheme Scheme, pe int) Config {
	cfg := DefaultConfig(scheme, pe)
	cfg.Geometry.BlocksPerPlane = 256
	cfg.Geometry.PagesPerBlock = 128
	return cfg
}

func benchRun(b *testing.B, scheme Scheme, pe int, workload string, n int) {
	b.Helper()
	var totalEvents uint64
	for i := 0; i < b.N; i++ {
		s, err := New(benchConfig(scheme, pe), benchWorkload(b, workload))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := s.Run(n); err != nil {
			b.Fatal(err)
		}
		totalEvents += s.Engine().Processed()
	}
	b.ReportMetric(float64(totalEvents)/b.Elapsed().Seconds(), "events/s")
}

func BenchmarkSimZero(b *testing.B)   { benchRun(b, Zero, 0, "Ali124", 1000) }
func BenchmarkSimRiF2K(b *testing.B)  { benchRun(b, RiF, 2000, "Ali124", 1000) }
func BenchmarkSimSENC2K(b *testing.B) { benchRun(b, Sentinel, 2000, "Ali124", 1000) }
func BenchmarkSimMixed(b *testing.B)  { benchRun(b, RiF, 1000, "Ali2", 1000) }

// BenchmarkNewDevice is the per-cell build cost at the grid's geometry
// (the experiments shrink BlocksPerPlane to 256): the per-block
// counters, the FTL's free lists and the stations.
func BenchmarkNewDevice(b *testing.B) {
	cfg := DefaultConfig(RiF, 2000)
	cfg.Geometry.BlocksPerPlane = 256
	for i := 0; i < b.N; i++ {
		if _, err := New(cfg, allocStubWorkload{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFTLWrite(b *testing.B) {
	f := NewFTL(benchConfig(Zero, 0).Geometry)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := f.Write(int64(i%100000), 0, 1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFTLLookupCold(b *testing.B) {
	f := NewFTL(benchConfig(Zero, 0).Geometry)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.Lookup(int64(i % 100000))
	}
}
