package core_test

import (
	"testing"

	"repro/internal/actor"
	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/spec"
)

// TestDeliverRunReplyAllocations: once a request packet reaches a node,
// traffic-gate admission, scheduling, the handler's pooled context and
// the flush of its reply allocate nothing but the reply itself — the
// response packet and its boxed envelope.
func TestDeliverRunReplyAllocations(t *testing.T) {
	nic := spec.LiquidIOII_CN2350()
	nic.PPSCap = 10e6 // a real gate stage, served on the packet's own job
	cl := core.NewCluster(1)
	n := cl.AddNode(core.Config{Name: "srv", NIC: nic})
	if err := n.Register(echoActor(1, 2*sim.Microsecond), true, 0); err != nil {
		t.Fatal(err)
	}
	replies := 0
	reply := func(actor.Msg) { replies++ }
	cl.Net.Attach("cli", 100, netsim.HandlerFunc(func(pkt *netsim.Packet) {
		env := pkt.Payload.(core.RespEnvelope)
		env.Fn(env.Msg)
	}))
	var req any = actor.Msg{Dst: 1, Origin: "cli", Reply: reply}
	pkt := &netsim.Packet{Src: "cli", Dst: "srv", Size: 256, Payload: req}
	allocs := testing.AllocsPerRun(200, func() {
		n.Deliver(pkt)
		cl.Run()
	})
	if allocs > 2 {
		t.Fatalf("deliver→run→reply allocated %v per request, want ≤ 2 (reply packet and envelope)", allocs)
	}
	if replies != 201 || n.Gate.Admitted != 201 {
		t.Fatalf("%d replies, %d admitted; want 201 each", replies, n.Gate.Admitted)
	}
}
