package sim

import "testing"

func TestFIFOReleasesConsumedSlots(t *testing.T) {
	var f FIFO[[]byte]
	f.Push(make([]byte, 1024))
	f.Push(make([]byte, 1024))
	f.Pop()
	// The consumed slot must not pin its payload: head-advance without
	// zeroing would hold every popped item alive as long as the queue.
	if f.buf[0] != nil {
		t.Fatal("consumed slot still references its payload")
	}
}

func TestFIFOCompactionPreservesOrder(t *testing.T) {
	var f FIFO[int]
	for i := 0; i < 100; i++ {
		f.Push(i)
	}
	// Interleave pops and pushes across the compaction watermark.
	next := 100
	for i := 0; i < 300; i++ {
		v, ok := f.Pop()
		if !ok || v != i {
			t.Fatalf("pop %d = %d ok=%v", i, v, ok)
		}
		f.Push(next)
		next++
	}
	if f.Len() != 100 {
		t.Fatalf("residual backlog %d, want 100", f.Len())
	}
	rest := f.Drain()
	if len(rest) != 100 || rest[0] != 300 || rest[99] != 399 || f.Len() != 0 {
		t.Fatalf("Drain returned %d items [%d..%d], Len after %d", len(rest), rest[0], rest[len(rest)-1], f.Len())
	}
}

func TestFIFOSteadyStateAllocFree(t *testing.T) {
	var f FIFO[int]
	// Warm up the backing array.
	for i := 0; i < 64; i++ {
		f.Push(i)
	}
	for i := 0; i < 64; i++ {
		f.Pop()
	}
	// A steady-state producer/consumer must reuse the array: the reslice
	// idiom (q = q[1:]) re-allocates on every burst because append can
	// never reuse the consumed prefix.
	allocs := testing.AllocsPerRun(200, func() {
		for i := 0; i < 48; i++ {
			f.Push(i)
		}
		for i := 0; i < 48; i++ {
			f.Pop()
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state allocs/run = %v, want 0", allocs)
	}
}

// BenchmarkFIFOSteadyState is the alloc-regression benchmark for the
// queues built on FIFO (scheduler ingress, stations, mailboxes): a
// balanced producer/consumer must report 0 allocs/op.
func BenchmarkFIFOSteadyState(b *testing.B) {
	var f FIFO[int]
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		f.Push(i)
		f.Pop()
	}
}

func TestFIFOPopBack(t *testing.T) {
	var f FIFO[[]byte]
	for i := 0; i < 4; i++ {
		f.Push([]byte{byte(i)})
	}
	f.Pop() // the head moves past item 0
	var got []byte
	for {
		v, ok := f.PopBack()
		if !ok {
			break
		}
		got = append(got, v[0])
	}
	if string(got) != "\x03\x02\x01" || f.Len() != 0 || f.head != 0 {
		t.Fatalf("PopBack order %v, Len %d, head %d; want 3 2 1 and a rewound queue", got, f.Len(), f.head)
	}
	// Popped slots must not pin their payloads.
	for i, v := range f.buf[:4] {
		if v != nil {
			t.Fatalf("slot %d still references its payload", i)
		}
	}
}
