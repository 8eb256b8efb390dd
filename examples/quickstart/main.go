// Quickstart: one SmartNIC-equipped server, one echo actor offloaded to
// the NIC, one client. Shows the minimal iPipe deployment loop: build a
// cluster, register an actor, drive requests, read measurements.
package main

import (
	"fmt"

	ipipe "repro"
)

func main() {
	cl := ipipe.NewCluster(1)

	// A server with a 10GbE LiquidIOII CN2350 SmartNIC.
	node := cl.AddNode(ipipe.NodeConfig{
		Name: "srv",
		NIC:  ipipe.LiquidIOII_CN2350(),
	})

	// An echo actor: replies with the request payload, costing 2µs of
	// reference-core time per invocation.
	echo := &ipipe.Actor{
		ID:   1,
		Name: "echo",
		OnMessage: func(ctx ipipe.Ctx, m ipipe.Msg) ipipe.Duration {
			ctx.Reply(m)
			return 2 * ipipe.Microsecond
		},
	}
	if err := node.Register(echo, true /* offload to the NIC */, 0); err != nil {
		panic(err)
	}

	// A client on the same switch, sending 1000 requests of 512B.
	client := ipipe.NewClient(cl, "cli", 10)
	for i := 0; i < 1000; i++ {
		at := ipipe.Duration(i) * 5 * ipipe.Microsecond
		i := i
		cl.Eng.At(at, func() {
			client.Send(ipipe.Request{Node: "srv", Dst: 1, Size: 512, FlowID: uint64(i)})
		})
	}
	cl.Run()

	fmt.Printf("sent=%d received=%d\n", client.Sent, client.Received)
	fmt.Printf("latency: p50=%.2fus p99=%.2fus\n",
		client.Lat.Percentile(50), client.Lat.Percentile(99))
	fmt.Printf("host cores used: %.3f (the echo ran entirely on the NIC)\n",
		node.HostCoresUsed())
}
