package ipipe_test

import (
	"fmt"
	"testing"

	ipipe "repro"
)

// TestFacadeQuickstart exercises the public API end to end, mirroring
// examples/quickstart.
func TestFacadeQuickstart(t *testing.T) {
	cl := ipipe.NewCluster(1)
	node := cl.AddNode(ipipe.NodeConfig{Name: "srv", NIC: ipipe.LiquidIOII_CN2350()})
	echo := &ipipe.Actor{
		ID: 1,
		OnMessage: func(ctx ipipe.Ctx, m ipipe.Msg) ipipe.Duration {
			ctx.Reply(m)
			return 2 * ipipe.Microsecond
		},
	}
	if err := node.Register(echo, true, 0); err != nil {
		t.Fatal(err)
	}
	client := ipipe.NewClient(cl, "cli", 10)
	for i := 0; i < 50; i++ {
		at := ipipe.Duration(i) * 10 * ipipe.Microsecond
		cl.Eng.At(at, func() {
			client.Send(ipipe.Request{Node: "srv", Dst: 1, Size: 512})
		})
	}
	cl.Run()
	if client.Received != 50 {
		t.Fatalf("received %d of 50", client.Received)
	}
	if node.HostCoresUsed() > 0.01 {
		t.Fatal("NIC echo should not consume host cores")
	}
}

// TestNewInvariantCheckerTwice: a second NewInvariantChecker call
// returns the checker the cluster already wired, not a fresh one that
// no layer reports to.
func TestNewInvariantCheckerTwice(t *testing.T) {
	cl := ipipe.NewCluster(1)
	first := ipipe.NewInvariantChecker(cl)
	second := ipipe.NewInvariantChecker(cl)
	node := cl.AddNode(ipipe.NodeConfig{Name: "srv", NIC: ipipe.LiquidIOII_CN2350()})
	echo := &ipipe.Actor{
		ID: 1,
		OnMessage: func(ctx ipipe.Ctx, m ipipe.Msg) ipipe.Duration {
			ctx.Reply(m)
			return 2 * ipipe.Microsecond
		},
	}
	if err := node.Register(echo, true, 0); err != nil {
		t.Fatal(err)
	}
	client := ipipe.NewClient(cl, "cli", 10)
	for i := 0; i < 10; i++ {
		cl.Eng.At(ipipe.Duration(i)*10*ipipe.Microsecond, func() {
			client.Send(ipipe.Request{Node: "srv", Dst: 1, Size: 512})
		})
	}
	cl.Run()
	second.Finish()
	if second != first {
		t.Fatal("second NewInvariantChecker returned a different checker than the wired one")
	}
	if second.Checks() == 0 {
		t.Fatal("checker saw no invariant checks: not wired into the cluster")
	}
	if err := second.Err(); err != nil {
		t.Fatal(err)
	}
}

func TestFacadeRKV(t *testing.T) {
	cl := ipipe.NewCluster(2)
	var nodes []*ipipe.Node
	for i := 0; i < 3; i++ {
		nodes = append(nodes, cl.AddNode(ipipe.NodeConfig{
			Name: fmt.Sprintf("kv%d", i), NIC: ipipe.LiquidIOII_CN2350(),
		}))
	}
	d, err := ipipe.RKVSpec{
		Common: ipipe.DeployCommon{Placement: ipipe.OnNIC},
		Nodes:  nodes, BaseID: 100, MemLimit: 1 << 20,
	}.Deploy()
	if err != nil {
		t.Fatal(err)
	}
	client := ipipe.NewClient(cl, "cli", 10)
	var got []byte
	client.Send(ipipe.Request{
		Node: "kv0", Dst: d.LeaderActor(), Kind: ipipe.RKVKindReq,
		Data: ipipe.RKVPut([]byte("k"), []byte("v")), Size: 256,
		OnResp: func(ipipe.Msg) {
			client.Send(ipipe.Request{
				Node: "kv0", Dst: d.LeaderActor(), Kind: ipipe.RKVKindReq,
				Data: ipipe.RKVGet([]byte("k")), Size: 256,
				OnResp: func(resp ipipe.Msg) { got = resp.Data },
			})
		},
	})
	cl.Run()
	if len(got) == 0 || ipipe.RKVStatusOf(got) != ipipe.RKVStatusOK || string(got[1:]) != "v" {
		t.Fatalf("facade RKV round trip: %q", got)
	}
}

func TestFacadeDT(t *testing.T) {
	cl := ipipe.NewCluster(3)
	coord := cl.AddNode(ipipe.NodeConfig{Name: "coord", NIC: ipipe.LiquidIOII_CN2350()})
	p1 := cl.AddNode(ipipe.NodeConfig{Name: "p1", NIC: ipipe.LiquidIOII_CN2350()})
	dt, err := ipipe.DTSpec{
		Common:      ipipe.DeployCommon{Placement: ipipe.OnNIC},
		Coordinator: coord, Participants: []*ipipe.Node{p1}, BaseID: 100,
	}.Deploy()
	if err != nil {
		t.Fatal(err)
	}
	c, stores := dt.Coord, dt.Stores
	client := ipipe.NewClient(cl, "cli", 10)
	var outcome ipipe.DTOutcome
	txn := ipipe.DTTxn{Writes: []ipipe.DTOp{{Key: []byte("x"), Value: []byte("1")}}}
	client.Send(ipipe.Request{
		Node: "coord", Dst: 100, Kind: ipipe.DTKindTxn,
		Data: ipipe.DTEncodeTxn(txn), Size: 256,
		OnResp: func(resp ipipe.Msg) { outcome, _ = ipipe.DTDecodeOutcome(resp.Data) },
	})
	cl.Run()
	if outcome != ipipe.DTOutcomeCommitted || c.Committed != 1 {
		t.Fatalf("outcome=%d committed=%d", outcome, c.Committed)
	}
	if stores[0].Len() == 0 {
		t.Fatal("participant store empty after commit")
	}
}

func TestFacadeRTAAndNF(t *testing.T) {
	cl := ipipe.NewCluster(4)
	n := cl.AddNode(ipipe.NodeConfig{Name: "w", NIC: ipipe.LiquidIOII_CN2350()})
	var top []ipipe.RTAEntry
	rta, err := ipipe.RTASpec{
		Common: ipipe.DeployCommon{Placement: ipipe.OnNIC},
		Node:   n, Aggregator: n, BaseID: 10,
		Discard: []string{"bad"}, TopN: 3,
		OnUpdate: func(t []ipipe.RTAEntry) { top = t },
	}.Deploy()
	if err != nil {
		t.Fatal(err)
	}
	topo := rta.Topology
	if _, err := (ipipe.FirewallSpec{
		Common: ipipe.DeployCommon{Placement: ipipe.OnNIC},
		Node:   n, ID: 50, Rules: ipipe.UniformFirewallRules(64),
	}).Deploy(); err != nil {
		t.Fatal(err)
	}
	if _, err := (ipipe.IPSecSpec{
		Common: ipipe.DeployCommon{Placement: ipipe.OnNIC},
		Node:   n, ID: 51, Key: make([]byte, 32), MACKey: []byte("k"),
	}).Deploy(); err != nil {
		t.Fatal(err)
	}
	client := ipipe.NewClient(cl, "cli", 10)
	for i := 0; i < 64; i++ {
		i := i
		cl.Eng.At(ipipe.Duration(i)*20*ipipe.Microsecond, func() {
			client.Send(ipipe.Request{
				Node: "w", Dst: topo.Filter, Kind: ipipe.RTAKindTuples,
				Data: ipipe.RTAEncodeTuples([]string{"hot", "hot", "cold", "bad"}),
				Size: 256, FlowID: uint64(i),
			})
		})
	}
	var verdict ipipe.NFVerdict
	cl.Eng.At(2*ipipe.Millisecond, func() {
		client.Send(ipipe.Request{
			Node: "w", Dst: 50, Data: ipipe.FiveTuple{SrcIP: 0}.Encode(), Size: 128,
			OnResp: func(resp ipipe.Msg) { verdict = ipipe.NFVerdictOf(resp.Data) },
		})
	})
	cl.Run()
	if len(top) == 0 || top[0].Token != "hot" {
		t.Fatalf("RTA top = %v", top)
	}
	if verdict != ipipe.NFVerdictAllow {
		t.Fatalf("firewall verdict %d", verdict)
	}
}

func TestExperimentFacade(t *testing.T) {
	ids := ipipe.ExperimentIDs()
	if len(ids) < 19 {
		t.Fatalf("experiment registry has %d entries", len(ids))
	}
	r, err := ipipe.Experiment("table2", true, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) == 0 {
		t.Fatal("table2 empty via facade")
	}
	if _, err := ipipe.Experiment("nope", true, 1); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}
