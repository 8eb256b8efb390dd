package sim

import "testing"

// Allocation regressions for the engine's bound-handler path: a handler
// bound once plus an argument the caller owns must schedule, fire and
// cross partitions without allocating (see DESIGN.md §4, "Closure-free
// hot path").

func TestAtArgAllocatesNothing(t *testing.T) {
	e := NewEngine(1)
	n := 0
	fn := func(arg any) { n += *arg.(*int) }
	one := 1
	allocs := testing.AllocsPerRun(100, func() {
		e.AfterArg(5, fn, &one)
		e.Run()
	})
	if allocs != 0 {
		t.Fatalf("AfterArg+Run allocated %v per event, want 0", allocs)
	}
	if n != 101 {
		t.Fatalf("handler ran %d times, want 101", n)
	}
}

func TestAtWrapsClosureWithoutAllocating(t *testing.T) {
	e := NewEngine(1)
	n := 0
	fn := func() { n++ }
	allocs := testing.AllocsPerRun(100, func() {
		e.After(5, fn)
		e.Run()
	})
	if allocs != 0 {
		t.Fatalf("After with an existing closure allocated %v, want 0", allocs)
	}
}

// TestStationSubmitFinishAllocatesNothing: a caller-owned job with a
// bound Done goes through queueing, service and completion allocation
// free, and the accessors report its queueing.
func TestStationSubmitFinishAllocatesNothing(t *testing.T) {
	e := NewEngine(1)
	st := NewStation(e, 1)
	var waited Time
	done := func(j *Job) { waited += j.Started() - j.Enqueued() }
	jobs := [4]Job{}
	for i := range jobs {
		jobs[i] = Job{Service: 10, Done: done}
	}
	allocs := testing.AllocsPerRun(100, func() {
		for i := range jobs {
			st.Submit(&jobs[i])
		}
		e.Run()
	})
	if allocs != 0 {
		t.Fatalf("Submit→finish allocated %v per burst, want 0", allocs)
	}
	// Each burst of four waits 0+10+20+30.
	if want := Time(101 * 60); waited != want {
		t.Fatalf("total wait %v, want %v", waited, want)
	}
}

// TestStationQueueReleasesJobs: popped slots are zeroed, so a drained
// queue pins no job.
func TestStationQueueReleasesJobs(t *testing.T) {
	e := NewEngine(1)
	st := NewStation(e, 1)
	for i := 0; i < 100; i++ {
		st.Submit(&Job{Service: 1})
	}
	e.Run()
	if st.QueueLen() != 0 || st.MaxQueue() != 99 {
		t.Fatalf("QueueLen %d MaxQueue %d, want 0 and 99", st.QueueLen(), st.MaxQueue())
	}
	for i, j := range st.queue.buf[:cap(st.queue.buf)] {
		if j != nil {
			t.Fatalf("slot %d still holds a job after the queue drained", i)
		}
	}
}

// TestGroupInjectArgAllocatesNothing: cross-partition events recycle the
// double-buffered inbox and sort without a reflective swapper.
func TestGroupInjectArgAllocatesNothing(t *testing.T) {
	g := NewGroup(1, 2)
	g.TightenLookahead(10)
	got := 0
	recv := func(any) { got++ }
	src := g.Engine(0)
	send := func(any) {
		for k := 0; k < 8; k++ {
			g.InjectArg(0, 1, src.Now()+10+Time(k%3), recv, nil)
		}
	}
	deadline := Time(0)
	allocs := testing.AllocsPerRun(100, func() {
		src.AtArg(deadline, send, nil)
		deadline += 100
		g.RunUntil(deadline, 1)
	})
	if allocs != 0 {
		t.Fatalf("InjectArg round trip allocated %v per round, want 0", allocs)
	}
	if got != 8*101 {
		t.Fatalf("delivered %d cross-partition events, want %d", got, 8*101)
	}
}
