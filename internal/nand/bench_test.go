package nand

import "testing"

// Microbenchmarks for the reliability queries the SSD simulator makes
// on every page read.

func BenchmarkPageRBER(b *testing.B) {
	m := NewDefaultModel(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.PageRBER(i&1023, CSB, 1000, 14, int64(i&255), DefaultVref)
	}
}

func BenchmarkPageRBEROptimal(b *testing.B) {
	m := NewDefaultModel(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.PageRBER(i&1023, MSB, 2000, 21, 0, OptimalVref)
	}
}

func BenchmarkChunkRBER(b *testing.B) {
	m := NewDefaultModel(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.ChunkRBER(0.005, uint64(i), i&3, 4)
	}
}

func BenchmarkRetentionUntilRetry(b *testing.B) {
	m := NewDefaultModel(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.RetentionUntilRetry(i&255, CSB, 1000, 60)
	}
}

func BenchmarkSwiftRead(b *testing.B) {
	m := NewDefaultModel(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.SwiftRead(i&255, MSB, 1000, 20)
	}
}

func BenchmarkScramblePage(b *testing.B) {
	r := NewRandomizer(1)
	buf := make([]byte, 16*1024)
	b.SetBytes(int64(len(buf)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Scramble(buf, int64(i))
	}
}

// BenchmarkEvaluatorReadPair is the simulator's worst-case page read:
// one condition, evaluated at the first-read mode and at OptimalVref
// (the pair two PageRBER calls used to cost).
func BenchmarkEvaluatorReadPair(b *testing.B) {
	e := NewEvaluator(NewDefaultModel(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rd := e.Read(i&1023, CSB, 1000, 14, int64(i&255))
		e.RBER(rd, DefaultVref)
		e.RBER(rd, OptimalVref)
	}
}
