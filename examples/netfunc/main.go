// netfunc: the §5.7 network functions on iPipe — a software-TCAM
// firewall with 8K wildcard rules, and an IPSec gateway doing real
// AES-256-CTR + HMAC-SHA1 with the SmartNIC's crypto engines.
package main

import (
	"fmt"

	ipipe "repro"
)

func main() {
	cl := ipipe.NewCluster(9)
	node := cl.AddNode(ipipe.NodeConfig{Name: "gw", NIC: ipipe.LiquidIOII_CN2350()})

	// Firewall with 8K rules plus a couple of hand-written ones up front.
	rules := append([]ipipe.FirewallRule{
		{ // deny a specific host outright
			Value:    ipipe.FiveTuple{SrcIP: 0x0a000005},
			Mask:     ipipe.FiveTuple{SrcIP: 0xffffffff},
			Priority: -2,
		},
		{ // allow port 80 from anywhere
			Value:    ipipe.FiveTuple{DstPort: 80, Proto: 17},
			Mask:     ipipe.FiveTuple{DstPort: 0xffff, Proto: 0xff},
			Priority: -1,
			Allow:    true,
		},
	}, ipipe.UniformFirewallRules(8192)...)
	if _, err := (ipipe.FirewallSpec{
		Common: ipipe.DeployCommon{Placement: ipipe.OnNIC},
		Node:   node, ID: 1, Rules: rules,
	}).Deploy(); err != nil {
		panic(err)
	}
	if _, err := (ipipe.IPSecSpec{
		Common: ipipe.DeployCommon{Placement: ipipe.OnNIC},
		Node:   node, ID: 2, Key: make([]byte, 32),
		MACKey: []byte("gateway-mac-key"),
	}).Deploy(); err != nil {
		panic(err)
	}

	client := ipipe.NewClient(cl, "cli", 10)
	var allowed, denied, sealed int
	for i := 0; i < 2000; i++ {
		i := i
		at := ipipe.Duration(i) * 4 * ipipe.Microsecond
		cl.Eng.At(at, func() {
			if i%2 == 0 {
				// Real Ethernet/IPv4/UDP frames through the shim nstack.
				src := ipipe.NetAddr{MAC: ipipe.NetMAC{2, 0, 0, 0, 0, 1},
					IP: uint32(i) << 12, Port: uint16(40000 + i%1000)}
				dst := ipipe.NetAddr{MAC: ipipe.NetMAC{2, 0, 0, 0, 0, 2},
					IP: 0x0a000001, Port: uint16(22 + i%100)}
				if i%10 == 0 {
					src.IP = 0xc0a80001
					dst.Port = 80
				}
				frame := ipipe.Encap(src, dst, make([]byte, 64), 64)
				client.Send(ipipe.Request{
					Node: "gw", Dst: 1, Data: frame, Size: 1024, FlowID: uint64(i),
					OnResp: func(resp ipipe.Msg) {
						if ipipe.NFVerdictOf(resp.Data) == ipipe.NFVerdictAllow {
							allowed++
						} else {
							denied++
						}
					},
				})
			} else {
				client.Send(ipipe.Request{
					Node: "gw", Dst: 2, Data: make([]byte, 256), Size: 1024, FlowID: uint64(i),
					OnResp: func(resp ipipe.Msg) { sealed++ },
				})
			}
		})
	}
	cl.Run()

	fmt.Printf("firewall: %d allowed, %d denied (1KB packets, 8K+2 rules)\n", allowed, denied)
	fmt.Printf("ipsec: %d packets sealed with AES-256-CTR + HMAC-SHA1\n", sealed)
	fmt.Printf("AES engine invocations: %d, SHA-1: %d (hardware crypto, I4)\n",
		node.Accels.Invokes("AES"), node.Accels.Invokes("SHA-1"))
	fmt.Printf("latency: p50=%.2fus p99=%.2fus\n",
		client.Lat.Percentile(50), client.Lat.Percentile(99))
}
