package hostsim

import (
	"fmt"
	"testing"

	"repro/internal/actor"
	"repro/internal/sim"
)

type hh struct {
	eng  *sim.Engine
	h    *Host
	cost map[actor.ID]sim.Time
	lost []actor.Msg
}

func newHH(cores int, steal bool) *hh {
	x := &hh{eng: sim.NewEngine(1), cost: map[actor.ID]sim.Time{}}
	x.h = New(x.eng, Config{Cores: cores, Steal: steal}, Hooks{
		Run: func(a *actor.Actor, m actor.Msg) sim.Time {
			if c, ok := x.cost[a.ID]; ok {
				return c
			}
			return sim.Microsecond
		},
		Unowned: func(m actor.Msg) { x.lost = append(x.lost, m) },
	})
	return x
}

func (x *hh) add(id actor.ID, cost sim.Time) *actor.Actor {
	a := &actor.Actor{ID: id}
	x.cost[id] = cost
	x.h.AddActor(a)
	return a
}

func TestHostExecutes(t *testing.T) {
	x := newHH(2, false)
	a := x.add(1, 2*sim.Microsecond)
	for i := 0; i < 10; i++ {
		x.h.Arrive(actor.Msg{Dst: 1, FlowID: uint64(i)})
	}
	x.eng.Run()
	if x.h.Completed != 10 || a.Invoked != 10 {
		t.Fatalf("completed %d, invoked %d", x.h.Completed, a.Invoked)
	}
	if x.h.Backlog() != 0 {
		t.Fatal("backlog left")
	}
}

func TestFlowSteeringWithoutStealingImbalances(t *testing.T) {
	x := newHH(4, false)
	x.add(1, sim.Microsecond)
	// All messages in one flow land on one core.
	for i := 0; i < 20; i++ {
		x.h.Arrive(actor.Msg{Dst: 1, FlowID: 8}) // 8 % 4 = core 0
	}
	x.eng.Run()
	if x.h.cores[0].Executed != 20 {
		t.Fatalf("core 0 executed %d, want all 20", x.h.cores[0].Executed)
	}
	for i := 1; i < 4; i++ {
		if x.h.cores[i].Executed != 0 {
			t.Fatalf("core %d executed %d without stealing", i, x.h.cores[i].Executed)
		}
	}
}

func TestWorkStealingRepairsImbalance(t *testing.T) {
	x := newHH(4, true)
	x.add(1, 5*sim.Microsecond)
	for i := 0; i < 20; i++ {
		x.h.Arrive(actor.Msg{Dst: 1, FlowID: 8})
	}
	x.eng.Run()
	if x.h.Steals == 0 {
		t.Fatal("no steals despite one hot queue")
	}
	others := 0
	for i := 1; i < 4; i++ {
		others += int(x.h.cores[i].Executed)
	}
	if others == 0 {
		t.Fatal("stealing cores executed nothing")
	}
}

func TestUnownedMessages(t *testing.T) {
	x := newHH(1, false)
	x.h.Arrive(actor.Msg{Dst: 42})
	x.eng.Run()
	if len(x.lost) != 1 {
		t.Fatalf("unowned messages seen: %d", len(x.lost))
	}
}

func TestCoresUsedMeasuresLoad(t *testing.T) {
	x := newHH(4, true)
	x.add(1, 10*sim.Microsecond)
	// 100 msgs x 10.1µs ≈ 1010µs of work on 4 cores ≈ 253µs wall →
	// CoresUsed ≈ 4.
	for i := 0; i < 100; i++ {
		x.h.Arrive(actor.Msg{Dst: 1, FlowID: uint64(i)})
	}
	x.eng.Run()
	used := x.h.CoresUsed()
	if used < 3.2 || used > 4.01 {
		t.Fatalf("CoresUsed = %v, want ≈4 under saturation", used)
	}
}

func TestCoresUsedLowUnderLightLoad(t *testing.T) {
	x := newHH(4, true)
	x.add(1, sim.Microsecond)
	// One message every 100µs: utilization ≈ 1.1/100 of one core.
	for i := 0; i < 50; i++ {
		at := sim.Time(i) * 100 * sim.Microsecond
		i := i
		x.eng.At(at, func() { x.h.Arrive(actor.Msg{Dst: 1, FlowID: uint64(i)}) })
	}
	x.eng.Run()
	if used := x.h.CoresUsed(); used > 0.1 {
		t.Fatalf("CoresUsed = %v, want ≈0.01", used)
	}
}

func TestExclusiveHostActor(t *testing.T) {
	x := newHH(4, true)
	a := x.add(1, 5*sim.Microsecond)
	a.Exclusive = true
	maxRun := 0
	for i := 0; i < 12; i++ {
		x.h.Arrive(actor.Msg{Dst: 1, FlowID: uint64(i)})
	}
	for at := sim.Time(0); at < 100*sim.Microsecond; at += sim.Microsecond {
		x.eng.At(at, func() {
			if a.Running() > maxRun {
				maxRun = a.Running()
			}
		})
	}
	x.eng.Run()
	if maxRun > 1 {
		t.Fatalf("exclusive actor concurrency %d", maxRun)
	}
	if a.Invoked != 12 {
		t.Fatalf("invoked %d of 12", a.Invoked)
	}
}

func TestLeastLoadedActor(t *testing.T) {
	x := newHH(1, false)
	hot := x.add(1, sim.Microsecond)
	cold := x.add(2, sim.Microsecond)
	pinned := x.add(3, sim.Microsecond)
	pinned.PinHost = true
	for i := 0; i < 50; i++ {
		x.h.Arrive(actor.Msg{Dst: 1})
	}
	x.h.Arrive(actor.Msg{Dst: 2})
	x.h.Arrive(actor.Msg{Dst: 3})
	x.eng.Run()
	if got := x.h.LeastLoadedActor(); got != cold {
		t.Fatalf("LeastLoadedActor = %v, want cold actor", got)
	}
	_ = hot
}

func TestRemoveActor(t *testing.T) {
	x := newHH(1, false)
	x.add(1, sim.Microsecond)
	x.h.RemoveActor(1)
	if x.h.Actors() != 0 {
		t.Fatal("actor not removed")
	}
	x.h.Arrive(actor.Msg{Dst: 1})
	x.eng.Run()
	if len(x.lost) != 1 {
		t.Fatal("message to removed actor not routed to Unowned")
	}
}

func TestValidation(t *testing.T) {
	eng := sim.NewEngine(1)
	for _, f := range []func(){
		func() { New(eng, Config{Cores: 0}, Hooks{Run: func(*actor.Actor, actor.Msg) sim.Time { return 0 }}) },
		func() { New(eng, Config{Cores: 1}, Hooks{}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("invalid config accepted")
				}
			}()
			f()
		}()
	}
}

// TestStealTakesVictimTail pins the steal order: a core owns its queue's
// head, and an idle core steals from the tail of the longest other
// queue, so the owner and the thief consume the backlog from opposite
// ends.
func TestStealTakesVictimTail(t *testing.T) {
	x := newHH(2, true)
	x.add(1, sim.Microsecond)
	got := map[int][]uint64{}
	x.h.hooks.OnExec = func(core int, _ *actor.Actor, m actor.Msg, _, _ sim.Time) {
		got[core] = append(got[core], m.FlowID)
	}
	for f := uint64(0); f < 12; f += 2 { // even flows all steer to core 0
		x.h.Arrive(actor.Msg{Dst: 1, FlowID: f})
	}
	x.eng.Run()
	if fmt.Sprint(got[0]) != "[0 2 4]" || fmt.Sprint(got[1]) != "[10 8 6]" {
		t.Fatalf("core 0 ran %v, core 1 stole %v; want [0 2 4] and [10 8 6]", got[0], got[1])
	}
	if x.h.Steals != 3 {
		t.Fatalf("steals = %d, want 3", x.h.Steals)
	}
}

// TestHostQueuesSteadyStateAllocFree: the per-core queues reuse their
// backing arrays, so bursts drained by the owning core and by thieves
// allocate nothing once warm. (The reslice idiom q = q[1:] pinned
// consumed messages and re-allocated on every burst.)
func TestHostQueuesSteadyStateAllocFree(t *testing.T) {
	x := newHH(4, true)
	x.add(1, sim.Microsecond)
	burst := func() {
		for i := 0; i < 48; i++ {
			x.h.Arrive(actor.Msg{Dst: 1, FlowID: uint64(i % 2)}) // cores 0 and 1; 2 and 3 steal
		}
		x.eng.Run()
	}
	burst()
	if allocs := testing.AllocsPerRun(100, burst); allocs != 0 {
		t.Fatalf("steady-state burst allocated %v, want 0", allocs)
	}
	if x.h.Backlog() != 0 || x.h.Steals == 0 {
		t.Fatalf("backlog %d, steals %d; want a drained host that stole", x.h.Backlog(), x.h.Steals)
	}
}
