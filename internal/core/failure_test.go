package core_test

import (
	"fmt"
	"testing"

	"repro/internal/actor"
	"repro/internal/apps/rkv"
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/spec"
	"repro/internal/workload"
)

// TestRetryRecoversFromLoss: with injected packet loss, client
// timeout/retry recovers every echo request.
func TestRetryRecoversFromLoss(t *testing.T) {
	cl := core.NewCluster(21)
	cl.Net.LossRate = 0.1
	n := cl.AddNode(core.Config{Name: "srv", NIC: spec.LiquidIOII_CN2350()})
	n.Register(&actor.Actor{
		ID: 1,
		OnMessage: func(ctx actor.Ctx, m actor.Msg) sim.Time {
			ctx.Reply(m)
			return sim.Microsecond
		},
	}, true, 0)
	client := workload.NewClient(cl, "cli", 10)
	const reqs = 300
	for i := 0; i < reqs; i++ {
		i := i
		cl.Eng.At(sim.Time(i)*20*sim.Microsecond, func() {
			client.Send(workload.Request{
				Node: "srv", Dst: 1, Size: 256, FlowID: uint64(i),
				Timeout: 200 * sim.Microsecond, Retries: 8,
			})
		})
	}
	cl.Run()
	if client.Received != reqs {
		t.Fatalf("received %d of %d despite retries (lost=%d retried=%d)",
			client.Received, reqs, cl.Net.Lost(), client.Retried)
	}
	if cl.Net.Lost() == 0 || client.Retried == 0 {
		t.Fatalf("loss injection inert: lost=%d retried=%d", cl.Net.Lost(), client.Retried)
	}
}

// TestNoRetryLosesUnderLoss is the control: without retries, loss shows
// up as missing responses.
func TestNoRetryLosesUnderLoss(t *testing.T) {
	cl := core.NewCluster(22)
	cl.Net.LossRate = 0.2
	n := cl.AddNode(core.Config{Name: "srv", NIC: spec.LiquidIOII_CN2350()})
	n.Register(&actor.Actor{
		ID: 1,
		OnMessage: func(ctx actor.Ctx, m actor.Msg) sim.Time {
			ctx.Reply(m)
			return sim.Microsecond
		},
	}, true, 0)
	client := workload.NewClient(cl, "cli", 10)
	for i := 0; i < 200; i++ {
		i := i
		cl.Eng.At(sim.Time(i)*10*sim.Microsecond, func() {
			client.Send(workload.Request{Node: "srv", Dst: 1, Size: 256, FlowID: uint64(i)})
		})
	}
	cl.Run()
	if client.Received == client.Sent {
		t.Fatal("20% loss lost nothing — injection broken")
	}
}

// TestPaxosToleratesSingleLinkLoss: with modest loss and client
// retries, the replicated KV store stays correct — Multi-Paxos commits
// with any majority, and a retried write lands in a fresh instance.
func TestPaxosToleratesSingleLinkLoss(t *testing.T) {
	cl := core.NewCluster(23)
	cl.Net.LossRate = 0.03
	var nodes []*core.Node
	for i := 0; i < 3; i++ {
		nodes = append(nodes, cl.AddNode(core.Config{
			Name: fmt.Sprintf("kv%d", i), NIC: spec.LiquidIOII_CN2350(),
		}))
	}
	d, err := rkv.Deploy(nodes, 100, 1<<20, true)
	if err != nil {
		t.Fatal(err)
	}
	leader := d.LeaderActor()
	client := workload.NewClient(cl, "cli", 10)
	const writes = 100
	acked := 0
	for i := 0; i < writes; i++ {
		i := i
		cl.Eng.At(sim.Time(i)*100*sim.Microsecond, func() {
			client.Send(workload.Request{
				Node: "kv0", Dst: leader, Kind: rkv.KindReq,
				Data: rkv.PutReq([]byte(fmt.Sprintf("k%03d", i)), []byte("v")),
				Size: 256, FlowID: uint64(i),
				Timeout: 2 * sim.Millisecond, Retries: 5,
				OnResp: func(resp actor.Msg) {
					if rkv.StatusOf(resp.Data) == rkv.StatusOK {
						acked++
					}
				},
			})
		})
	}
	cl.Run()
	if acked != writes {
		t.Fatalf("acked %d of %d writes under loss (lost=%d)", acked, writes, cl.Net.Lost())
	}
	// Every acked key is readable at the leader afterwards.
	misses := 0
	done := 0
	for i := 0; i < writes; i++ {
		i := i
		client.Send(workload.Request{
			Node: "kv0", Dst: leader, Kind: rkv.KindReq,
			Data: rkv.GetReq([]byte(fmt.Sprintf("k%03d", i))), Size: 256,
			Timeout: 2 * sim.Millisecond, Retries: 5,
			OnResp: func(resp actor.Msg) {
				done++
				if rkv.StatusOf(resp.Data) != rkv.StatusOK {
					misses++
				}
			},
		})
	}
	cl.Run()
	if done != writes || misses != 0 {
		t.Fatalf("reads: done=%d misses=%d", done, misses)
	}
}
