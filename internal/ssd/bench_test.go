package ssd

import (
	"testing"

	"repro/internal/sim"
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

// BenchmarkFTLOverwrite is the FTL's steady state: random overwrites
// of a 1<<17-page footprint that fills half of a 16-plane write
// region, warmed until garbage collection runs, so the timed writes
// pay their share of it. One op is one Write plus one Lookup.
func BenchmarkFTLOverwrite(b *testing.B) {
	geo := benchConfig(Zero, 0).Geometry
	geo.Channels, geo.DiesPerChan, geo.PlanesPerDie = 2, 2, 4
	const footprint = 1 << 17
	const gcLow = 2
	f := NewFTL(geo)
	rng := sim.NewRNG(1, 1)
	now := sim.Time(0)
	overwrite := func(lpn int64) {
		now++
		if _, _, err := f.Write(lpn, now, gcLow); err != nil {
			b.Fatal(err)
		}
		f.Lookup(rng.Int64N(footprint))
	}
	for lpn := int64(0); lpn < footprint; lpn++ {
		overwrite(lpn)
	}
	for i := 0; i < 2*footprint; i++ {
		overwrite(rng.Int64N(footprint))
	}
	if runs, _ := f.GCStats(); runs == 0 {
		b.Fatal("warm-up never garbage collected")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		overwrite(rng.Int64N(footprint))
	}
}
