package netsim

import (
	"testing"

	"repro/internal/sim"
)

// A packet's trip — uplink, switch, downlink, delivery, and on
// partitioned networks the cross-partition handoff — rides on the
// packet's own job and the network's bound handlers, so re-sending one
// packet allocates nothing.

func TestSendDeliverAllocatesNothing(t *testing.T) {
	eng := sim.NewEngine(1)
	n := New(eng)
	got := 0
	n.Attach("a", 10, nil)
	n.Attach("b", 10, HandlerFunc(func(*Packet) { got++ }))
	pkt := &Packet{Src: "a", Dst: "b", Size: 256}
	allocs := testing.AllocsPerRun(100, func() {
		n.Send(pkt)
		eng.Run()
	})
	if allocs != 0 {
		t.Fatalf("Send→Deliver allocated %v per packet, want 0", allocs)
	}
	if got != 101 {
		t.Fatalf("delivered %d, want 101", got)
	}
}

func TestCrossPartitionSendDeliverAllocatesNothing(t *testing.T) {
	g, n, arrivals := buildPair(1)
	pkt := &Packet{Src: "a", Dst: "b", Size: 256}
	src := g.Engine(0)
	send := func(any) { n.Send(pkt) }
	deadline := sim.Time(0)
	*arrivals = make([]sim.Time, 0, 128)
	allocs := testing.AllocsPerRun(100, func() {
		src.AtArg(deadline, send, nil)
		deadline += 10 * sim.Microsecond
		g.RunUntil(deadline, 1)
	})
	if allocs != 0 {
		t.Fatalf("cross-partition Send→Deliver allocated %v per packet, want 0", allocs)
	}
	if len(*arrivals) != 101 || g.Crossed() != 101 {
		t.Fatalf("delivered %d with %d handoffs, want 101 each", len(*arrivals), g.Crossed())
	}
}

// TestHandlerResendsDeliveredPacket: the network is done with a packet
// before its handler runs, so a handler may send the very *Packet it was
// handed back out. A ping-pong on one packet must take exactly the
// unloaded round trips a fresh packet per hop would.
func TestHandlerResendsDeliveredPacket(t *testing.T) {
	for _, parts := range []int{1, 2} {
		g := sim.NewGroup(1, parts)
		n := NewPartitioned(g)
		hops := 0
		var at []sim.Time
		bounce := func(self string, eng *sim.Engine) Handler {
			return HandlerFunc(func(pkt *Packet) {
				hops++
				at = append(at, eng.Now())
				if hops < 10 {
					pkt.Src, pkt.Dst = self, pkt.Src
					n.Send(pkt)
				}
			})
		}
		n.AttachOn("a", 10, bounce("a", g.Engine(0)), 0)
		n.AttachOn("b", 25, bounce("b", g.Engine(parts-1)), parts-1)
		g.Engine(0).Defer(func() { n.Send(&Packet{Src: "a", Dst: "b", Size: 300}) })
		g.Run(1)
		ab, ba := n.OneWayBaseLatency("a", "b", 300), n.OneWayBaseLatency("b", "a", 300)
		want := sim.Time(0)
		for i, got := range at {
			if i%2 == 0 {
				want += ab
			} else {
				want += ba
			}
			if got != want {
				t.Fatalf("%d partitions: hop %d delivered at %v, want %v", parts, i, got, want)
			}
		}
		if hops != 10 || n.Delivered() != 10 {
			t.Fatalf("%d partitions: %d hops, %d delivered, want 10", parts, hops, n.Delivered())
		}
	}
}
