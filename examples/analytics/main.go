// analytics: the real-time analytics engine (§4, derived from
// FlexStorm): tuples flow filter → counter → ranker on the SmartNIC,
// consolidated top-n views land at a host-side aggregator. The demo
// swings the offered load so the ranker — the high-dispersion quicksort
// actor — migrates to the host when the NIC runs out of headroom, and
// comes back when load drops (dynamic, workload-aware offloading).
package main

import (
	"fmt"

	ipipe "repro"
)

func main() {
	cl := ipipe.NewCluster(7)
	node := cl.AddNode(ipipe.NodeConfig{
		Name: "worker",
		NIC:  ipipe.LiquidIOII_CN2350(),
	})

	var lastTop []ipipe.RTAEntry
	d, err := ipipe.RTASpec{
		Common:     ipipe.DeployCommon{Placement: ipipe.OnNIC},
		Node:       node,
		Aggregator: node,
		BaseID:     10,
		Discard:    []string{"spam", "noise"},
		TopN:       5,
		OnUpdate:   func(top []ipipe.RTAEntry) { lastTop = top },
	}.Deploy()
	if err != nil {
		panic(err)
	}
	topo := d.Topology

	words := []string{"go", "rust", "zig", "spam", "java", "python", "noise", "c"}
	client := ipipe.NewClient(cl, "cli", 10)
	send := func(i uint64, batch int) {
		tuples := make([]string, batch)
		for j := range tuples {
			tuples[j] = words[(int(i)+j)%len(words)]
		}
		client.Send(ipipe.Request{
			Node: "worker", Dst: topo.Filter, Kind: ipipe.RTAKindTuples,
			Data: ipipe.RTAEncodeTuples(tuples), Size: 512, FlowID: i,
		})
	}

	// Phase A: moderate load. Phase B: a burst of fat batches that
	// overloads the exclusive counter actor on the NIC. Phase C: calm,
	// so the runtime can pull actors back.
	var i uint64
	for at := ipipe.Duration(0); at < 10*ipipe.Millisecond; at += 20 * ipipe.Microsecond {
		at := at
		cl.Eng.At(at, func() { send(i, 16) })
		i++
	}
	for at := 10 * ipipe.Millisecond; at < 25*ipipe.Millisecond; at += 3 * ipipe.Microsecond {
		at := at
		cl.Eng.At(at, func() { send(i, 64) })
		i++
	}
	for at := 25 * ipipe.Millisecond; at < 40*ipipe.Millisecond; at += 20 * ipipe.Microsecond {
		at := at
		cl.Eng.At(at, func() { send(i, 16) })
		i++
	}
	cl.Run()

	fmt.Printf("batches sent: %d, acknowledged: %d\n", client.Sent, client.Received)
	fmt.Println("consolidated top-5 (spam/noise filtered):")
	for _, e := range lastTop {
		fmt.Printf("  %-8s %d\n", e.Token, e.Count)
	}
	fmt.Printf("push migrations: %d, pull migrations: %d (the runtime moved actors with load)\n",
		node.Sched.PushMigrations, node.Sched.PullMigrations)
	for _, rec := range node.Migrations {
		fmt.Printf("  migrated %-12s total=%v (phase3=%v, %dB of state)\n",
			rec.Actor, rec.Total(), rec.Phase[2], rec.BytesMoved)
	}
}
