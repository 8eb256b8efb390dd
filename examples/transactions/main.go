// transactions: the distributed transaction system of §4 — optimistic
// concurrency control with two-phase commit. A coordinator actor on one
// SmartNIC drives read-lock / validate / log / commit rounds against
// participant actors on two other SmartNICs; a logging actor pinned to
// the coordinator's host persists checkpointed coordinator logs.
package main

import (
	"fmt"

	ipipe "repro"
)

func main() {
	cl := ipipe.NewCluster(3)
	coordNode := cl.AddNode(ipipe.NodeConfig{Name: "coord", NIC: ipipe.LiquidIOII_CN2350()})
	p1 := cl.AddNode(ipipe.NodeConfig{Name: "part1", NIC: ipipe.LiquidIOII_CN2350()})
	p2 := cl.AddNode(ipipe.NodeConfig{Name: "part2", NIC: ipipe.LiquidIOII_CN2350()})

	d, err := ipipe.DTSpec{
		Common:       ipipe.DeployCommon{Placement: ipipe.OnNIC},
		Coordinator:  coordNode,
		Participants: []*ipipe.Node{p1, p2},
		BaseID:       100,
	}.Deploy()
	if err != nil {
		panic(err)
	}
	coord, stores := d.Coord, d.Stores

	client := ipipe.NewClient(cl, "cli", 10)
	// The §5.1 transaction shape: two reads and one write per txn, with
	// deliberate contention on a small hot write-set.
	var committed, aborted int
	client.ClosedLoop(12, 30*ipipe.Millisecond, func(i uint64) ipipe.Request {
		txn := ipipe.DTTxn{
			Reads: []ipipe.DTOp{
				{Key: []byte(fmt.Sprintf("acct-%03d", i%200))},
				{Key: []byte(fmt.Sprintf("acct-%03d", (i+37)%200))},
			},
			Writes: []ipipe.DTOp{{
				// Square the index so concurrent transactions collide on
				// the hot write set (consecutive i map to repeating keys).
				Key:   []byte(fmt.Sprintf("bal-%02d", (i*i)%12)),
				Value: []byte(fmt.Sprintf("v%d", i)),
			}},
		}
		return ipipe.Request{
			Node: "coord", Dst: 100, Kind: ipipe.DTKindTxn,
			Data: ipipe.DTEncodeTxn(txn), Size: 512, FlowID: i,
			OnResp: func(resp ipipe.Msg) {
				switch ipipe.DTOutcomeOf(resp.Data) {
				case ipipe.DTOutcomeCommitted:
					committed++
				case ipipe.DTOutcomeAborted:
					aborted++
				}
			},
		}
	})
	cl.Run()

	fmt.Printf("transactions: %d committed, %d aborted (%.1f%% abort rate under contention)\n",
		committed, aborted, 100*float64(aborted)/float64(committed+aborted))
	fmt.Printf("coordinator log checkpoints to host: %d\n", coord.Checkpoints)
	fmt.Printf("latency: p50=%.2fus p99=%.2fus\n",
		client.Lat.Percentile(50), client.Lat.Percentile(99))
	for i, st := range stores {
		g, l := st.Depths()
		fmt.Printf("participant %d store: %d records (extendible hash: global depth %d, max local %d, %d splits)\n",
			i+1, st.Len(), g, l, st.Splits)
	}
	fmt.Printf("coordinator host cores used: %.2f (protocol ran on the NIC)\n",
		coordNode.HostCoresUsed())
}
