package workload_test

import (
	"testing"

	"repro/internal/actor"
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/spec"
	"repro/internal/workload"
)

func TestBatcherCoalescesAtMaxBatch(t *testing.T) {
	cl, client := echoCluster(t, 21, sim.Microsecond)
	b := workload.NewBatcher(client, 0, 4)
	for i := 0; i < 4; i++ {
		b.Add(workload.Request{Node: "srv", Dst: 1, Data: []byte("abcd"), FlowID: uint64(i)})
	}
	cl.Run()
	if b.Trains != 1 || b.Coalesced != 4 {
		t.Fatalf("Trains=%d Coalesced=%d, want one 4-message train", b.Trains, b.Coalesced)
	}
	if client.Received != 4 {
		t.Fatalf("received %d of 4 batched requests", client.Received)
	}
	if client.Lat.Count() != 4 {
		t.Fatalf("latency sample has %d entries", client.Lat.Count())
	}
}

func TestBatcherWindowFlushesPartialTrain(t *testing.T) {
	cl, client := echoCluster(t, 22, sim.Microsecond)
	b := workload.NewBatcher(client, 3*sim.Microsecond, 16)
	b.Add(workload.Request{Node: "srv", Dst: 1, FlowID: 1})
	b.Add(workload.Request{Node: "srv", Dst: 1, FlowID: 2})
	flushedBy := cl.Eng.Now() + 3*sim.Microsecond
	cl.Eng.At(flushedBy-1, func() {
		if client.Received != 0 {
			t.Errorf("train left before the window expired")
		}
	})
	cl.Run()
	if b.Trains != 1 || b.Coalesced != 2 {
		t.Fatalf("Trains=%d Coalesced=%d, want one 2-message train", b.Trains, b.Coalesced)
	}
	if client.Received != 2 {
		t.Fatalf("received %d of 2", client.Received)
	}
}

func TestBatcherSingletonGoesAsPlainPacket(t *testing.T) {
	cl, client := echoCluster(t, 23, sim.Microsecond)
	b := workload.NewBatcher(client, 2*sim.Microsecond, 8)
	b.Add(workload.Request{Node: "srv", Dst: 1, FlowID: 7})
	cl.Run()
	if b.Trains != 0 || b.Coalesced != 0 {
		t.Fatalf("a lone request was train-framed (Trains=%d)", b.Trains)
	}
	if client.Received != 1 {
		t.Fatal("singleton flush lost the request")
	}
}

func TestBatcherDisabledBypasses(t *testing.T) {
	cl, client := echoCluster(t, 24, sim.Microsecond)
	b := workload.NewBatcher(client, 2*sim.Microsecond, 1)
	for i := 0; i < 3; i++ {
		b.Add(workload.Request{Node: "srv", Dst: 1, FlowID: uint64(i)})
	}
	cl.Run()
	if b.Trains != 0 {
		t.Fatalf("MaxBatch=1 still built %d trains", b.Trains)
	}
	if client.Received != 3 {
		t.Fatalf("received %d of 3", client.Received)
	}
}

func TestBatcherSeparateDestinationsSeparateTrains(t *testing.T) {
	cl := core.NewCluster(25)
	n := cl.AddNode(core.Config{Name: "srv", NIC: spec.LiquidIOII_CN2350()})
	for _, id := range []actor.ID{1, 2} {
		if err := n.Register(&actor.Actor{
			ID: id,
			OnMessage: func(ctx actor.Ctx, m actor.Msg) sim.Time {
				ctx.Reply(m)
				return sim.Microsecond
			},
		}, true, 0); err != nil {
			t.Fatal(err)
		}
	}
	client := workload.NewClient(cl, "cli", 10)
	b := workload.NewBatcher(client, 2*sim.Microsecond, 2)
	for i := 0; i < 2; i++ {
		b.Add(workload.Request{Node: "srv", Dst: 1, FlowID: uint64(i)})
		b.Add(workload.Request{Node: "srv", Dst: 2, FlowID: uint64(10 + i)})
	}
	cl.Run()
	if b.Trains != 2 || b.Coalesced != 4 {
		t.Fatalf("Trains=%d Coalesced=%d, want one train per destination", b.Trains, b.Coalesced)
	}
	if client.Received != 4 {
		t.Fatalf("received %d of 4", client.Received)
	}
}

// Retries must bypass the batcher: under total loss every re-send goes
// out as a plain packet immediately, so recovery latency is never
// inflated by a second batching window.
func TestBatcherRetriesBypassTrain(t *testing.T) {
	cl, client := echoCluster(t, 26, sim.Microsecond)
	cl.Net.LossRate = 1.0
	b := workload.NewBatcher(client, 2*sim.Microsecond, 2)
	gaveUp := 0
	for i := 0; i < 2; i++ {
		b.Add(workload.Request{
			Node: "srv", Dst: 1, FlowID: uint64(i),
			Timeout: 50 * sim.Microsecond, Retries: 3,
			OnGiveUp: func() { gaveUp++ },
		})
	}
	cl.Run()
	if client.Retried != 6 {
		t.Fatalf("retried %d, want 3 per request", client.Retried)
	}
	if gaveUp != 2 {
		t.Fatalf("%d give-ups, want 2", gaveUp)
	}
	if b.Trains != 1 {
		t.Fatalf("first attempts should have formed one train, got %d", b.Trains)
	}
}

// A baseline (no-NIC) node receives trains through the DPDK path: one
// receive cost for the packet, then every message dispatches.
func TestBatcherBaselineNodeDelivery(t *testing.T) {
	cl := core.NewCluster(27)
	n := cl.AddNode(core.Config{Name: "srv"}) // no NIC
	if err := n.Register(&actor.Actor{
		ID: 1,
		OnMessage: func(ctx actor.Ctx, m actor.Msg) sim.Time {
			ctx.Reply(m)
			return sim.Microsecond
		},
	}, false, 0); err != nil {
		t.Fatal(err)
	}
	client := workload.NewClient(cl, "cli", 10)
	b := workload.NewBatcher(client, 0, 3)
	for i := 0; i < 3; i++ {
		b.Add(workload.Request{Node: "srv", Dst: 1, FlowID: uint64(i)})
	}
	cl.Run()
	if b.Trains != 1 || client.Received != 3 {
		t.Fatalf("Trains=%d Received=%d, want 1/3", b.Trains, client.Received)
	}
}
