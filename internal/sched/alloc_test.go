package sched

import (
	"testing"

	"repro/internal/actor"
	"repro/internal/sim"
)

// The core loop keeps its continuation in typed fields and schedules
// bound handlers, so steady-state dispatch and execution allocate
// nothing once queues and mailboxes have grown to the working size.

// execCycle offers a burst of messages round-robin over the actors and
// drains the scheduler.
func execCycle(h *harness, ids []actor.ID, burst int) func() {
	return func() {
		for i := 0; i < burst; i++ {
			h.s.Arrive(actor.Msg{Dst: ids[i%len(ids)], WireSize: 512})
		}
		h.eng.Run()
	}
}

func TestFCFSExecCycleAllocatesNothing(t *testing.T) {
	cfg := baseConfig(4)
	// A tail threshold every completion breaches: each one runs the
	// downgrade classification over a homogeneous population, which
	// finds no outlier and must reuse its scratch slice.
	cfg.TailThresh = 0.001
	h := newHarness(t, cfg)
	ids := []actor.ID{1, 2, 3}
	for _, id := range ids {
		h.addActor(id, sim.Microsecond)
	}
	allocs := testing.AllocsPerRun(50, execCycle(h, ids, 32))
	if allocs != 0 {
		t.Fatalf("FCFS exec cycle allocated %v per burst, want 0", allocs)
	}
	if h.s.Completed != 51*32 || h.s.Downgrades != 0 {
		t.Fatalf("completed %d, downgrades %d; want %d and 0", h.s.Completed, h.s.Downgrades, 51*32)
	}
}

func TestDRRExecCycleAllocatesNothing(t *testing.T) {
	cfg := baseConfig(4)
	cfg.AllDRR = true
	h := newHarness(t, cfg)
	ids := []actor.ID{1, 2, 3}
	for _, id := range ids {
		h.addActor(id, 2*sim.Microsecond)
	}
	allocs := testing.AllocsPerRun(50, execCycle(h, ids, 32))
	if allocs != 0 {
		t.Fatalf("DRR exec cycle allocated %v per burst, want 0", allocs)
	}
	if h.s.Completed != 51*32 {
		t.Fatalf("completed %d, want %d", h.s.Completed, 51*32)
	}
	if _, drr := h.s.CoreModes(); drr == 0 {
		t.Fatal("no DRR core ran the cycle")
	}
}

// TestAtMostOneOperationInFlightPerCore drives FCFS, DRR downgrades,
// upgrades and forwarding together and checks every core's occupancy
// events against its single continuation slot: each completion must
// find the operation that started it, and starting a second operation
// while one is in flight panics.
func TestAtMostOneOperationInFlightPerCore(t *testing.T) {
	cfg := baseConfig(4)
	cfg.TailThresh = 20
	h := newHarness(t, cfg)
	h.addActor(1, sim.Microsecond)
	h.addActor(2, sim.Microsecond)
	h.addActor(3, 80*sim.Microsecond) // dispersive: gets downgraded
	fired := 0
	for _, c := range h.s.cores {
		c := c
		orig := c.occupiedFn
		c.occupiedFn = func(arg any) {
			if c.op == opNone {
				t.Fatalf("core %d: completion fired with no operation in flight", c.id)
			}
			fired++
			orig(arg)
		}
	}
	rnd := sim.NewRand(7)
	for i := 0; i < 3000; i++ {
		dst := actor.ID(1 + rnd.Intn(3))
		if i%50 == 0 {
			dst = 99 // nobody owns it: forwarded
		}
		h.eng.At(sim.Time(i)*sim.Microsecond, func() { h.s.Arrive(actor.Msg{Dst: dst, WireSize: 256}) })
	}
	h.eng.Run()
	if h.s.Downgrades == 0 || h.s.Forwarded == 0 {
		t.Fatalf("workload did not exercise DRR and forwarding (downgrades %d, forwarded %d)", h.s.Downgrades, h.s.Forwarded)
	}
	if fired < 3000 {
		t.Fatalf("only %d completions fired for 3000 messages", fired)
	}
	for _, c := range h.s.cores {
		if c.op != opNone {
			t.Fatalf("core %d still has an operation in flight after the run drained", c.id)
		}
	}
}

func TestSecondOperationInFlightPanics(t *testing.T) {
	h := newHarness(t, baseConfig(1))
	c := h.s.cores[0]
	c.occupy(sim.Microsecond, opScan)
	defer func() {
		if recover() == nil {
			t.Fatal("a second occupy on a busy core did not panic")
		}
	}()
	c.occupy(sim.Microsecond, opScan)
}
