package sim

import "testing"

func TestFIFOOrderAcrossGrowthAndWrap(t *testing.T) {
	var q FIFO[int]
	next, want := 0, 0
	// Interleave pushes and pops so the ring wraps before it grows.
	for round := 0; round < 50; round++ {
		for i := 0; i < round%7+1; i++ {
			q.Push(next)
			next++
		}
		for i := 0; i < round%5 && q.Len() > 0; i++ {
			if got := q.Pop(); got != want {
				t.Fatalf("round %d: popped %d, want %d", round, got, want)
			}
			want++
		}
	}
	for q.Len() > 0 {
		if got := q.Pop(); got != want {
			t.Fatalf("drain: popped %d, want %d", got, want)
		}
		want++
	}
	if want != next {
		t.Fatalf("popped %d elements, pushed %d", want, next)
	}
}

func TestFIFOPushFrontAndFront(t *testing.T) {
	var q FIFO[string]
	q.Push("b")
	q.Push("c")
	q.PushFront("a")
	if *q.Front() != "a" {
		t.Fatalf("front = %q, want a", *q.Front())
	}
	*q.Front() = "A"
	for _, want := range []string{"A", "b", "c"} {
		if got := q.Pop(); got != want {
			t.Fatalf("popped %q, want %q", got, want)
		}
	}
}

func TestFIFOPopZeroesSlot(t *testing.T) {
	var q FIFO[*int]
	v := 1
	q.Push(&v)
	q.Pop()
	for i, p := range q.buf {
		if p != nil {
			t.Fatalf("slot %d still pins a popped element", i)
		}
	}
}

func TestFIFOPopEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Pop of an empty FIFO did not panic")
		}
	}()
	var q FIFO[int]
	q.Pop()
}
