package bench

import (
	"fmt"

	"repro/internal/actor"
	"repro/internal/fault"
	"repro/internal/mesh"
	"repro/internal/qos"
	"repro/internal/sim"
	"repro/internal/workload"
)

// The faults-pdes / qos-storm-pdes experiments certify the
// window-boundary fault path: a partitioned (PDES) echo mesh, built by
// mesh.Build (see pdesMesh), takes the full fault-arm matrix —
// cluster-wide barrier arms (crash, loss, flap, partition cut) running
// as sim.Group.AtBarrier actions, partition-local arms (NIC-down,
// overload, accelerator stall) on their owning engines — while retrying
// clients ride out the windows. Every column is
// deterministic and byte-identical at any window worker count, which is
// what the `-pdes` rows of `make replay-smoke` replay along the PDES axis.

func init() {
	register("faults-pdes", "Every fault arm on a partitioned (PDES) echo mesh: barrier arms at window boundaries, local arms on owning engines", faultsPDES)
	register("qos-storm-pdes", "Tenant storm + fault storm on the partitioned lane mesh: admission and lanes under window-boundary faults", qosStormPDES)
}

// pdesMesh builds the partitioned echo mesh (mesh.Build) shared by
// faults-pdes, qos-storm-pdes and migrate-pdes: 12 nodes over a 6ms
// window (8 over 3ms in quick mode), 1µs of NIC work per echo, -pdes
// partitions (default 4). objectBytes is mesh.Config.ObjectBytes: 0
// pins every actor to its NIC, a positive size makes them migratable.
func pdesMesh(opts Options, objectBytes int) (*mesh.Mesh, mesh.Config) {
	cfg := mesh.Config{
		Nodes: 12, Window: 6 * sim.Millisecond,
		Partitions: meshParts(opts, 4), Workers: opts.PDESWorkers, Seed: opts.seed(),
		ServiceNs: 1000, ObjectBytes: objectBytes,
	}
	if opts.Quick {
		cfg.Nodes, cfg.Window = 8, 3*sim.Millisecond
	}
	m := mesh.Build(&cfg)
	return m, cfg
}

// meshParts resolves a partitioned experiment's partition count: -pdes
// when given, def otherwise (mesh.Build clamps it to the node count).
func meshParts(opts Options, def int) int {
	if opts.PDESParts > 0 {
		return opts.PDESParts
	}
	return def
}

// retryTraffic has client i send a retrying request to node i+1's echo
// actor every 10µs over the window; the retries ride out fault windows,
// and MaxTimeout 0 exercises the uncapped-backoff clamp. The returned
// func counts requests that exhausted their retries (each client's
// count is written only by its partition engine).
func retryTraffic(m *mesh.Mesh, window sim.Time) (gaveUp func() uint64) {
	gave := make([]uint64, len(m.Clients))
	for i, c := range m.Clients {
		dst := (i + 1) % len(m.Nodes)
		onGiveUp := func() { gave[i]++ }
		every(c.Eng(), 0, window, 10*sim.Microsecond, func(k uint64) {
			c.Send(workload.Request{
				Node: m.Nodes[dst].Name, Dst: actor.ID(1 + dst),
				Size: 256, FlowID: uint64(i)<<32 | k,
				Timeout: 100 * sim.Microsecond, Retries: 4, Backoff: 2,
				OnGiveUp: onGiveUp,
			})
		})
	}
	return func() uint64 {
		var n uint64
		for _, g := range gave {
			n += g
		}
		return n
	}
}

// pdesFaultSchedule covers every arm class, scaled to the run window:
// four barrier arms (two crashes — one jittered — a loss window, a flap,
// a partition cut) and three partition-local arms (overload, accel
// stall, NIC-down). All windows close before the run ends.
func pdesFaultSchedule(window sim.Time) fault.Schedule {
	w := float64(window)
	at := func(f float64) sim.Time { return sim.Time(w * f) }
	return fault.Schedule{Faults: []fault.Fault{
		fault.Crash("n000", at(0.15), at(0.12)),
		fault.Loss("n003", at(0.20), at(0.15), 0.5),
		fault.Flap("n004", at(0.40), at(0.15), at(0.05)),
		fault.Cut(at(0.60), at(0.12), "n000", "n001"),
		fault.Overload("n002", at(0.25), at(0.15), 4),
		fault.Stall("n005", "CRC", at(0.30), at(0.10)),
		fault.NICFail("n001", at(0.15), at(0.15)),
		{Kind: fault.NodeCrash, Node: "n006", At: at(0.70), Dur: at(0.10),
			Jitter: at(0.05)},
	}}
}

func faultsPDES(opts Options) *Result {
	m, cfg := pdesMesh(opts, 0)
	cl := m.Cluster
	in, err := fault.Install(cl, pdesFaultSchedule(cfg.Window))
	if err != nil {
		panic(err)
	}
	gaveUp := retryTraffic(m, cfg.Window)
	cl.RunUntil(cfg.Window + sim.Millisecond) // drain room for late retries
	t := m.Totals()

	r := &Result{Header: []string{"metric", "value"}}
	r.Add("nodes x partitions", fmt.Sprintf("%dx%d", cfg.Nodes, cfg.Partitions))
	r.Add("requests sent/answered", fmt.Sprintf("%d/%d", t.Sent, t.Received))
	r.Add("rejected (edge-shed)", t.Rejected)
	r.Add("retried/gave-up", fmt.Sprintf("%d/%d", t.Retried, gaveUp()))
	r.Add("latency p50/p99 (us)", fmt.Sprintf("%.2f/%.2f", t.Lat.Percentile(50), t.Lat.Percentile(99)))
	r.Add("faults injected/active-at-end", fmt.Sprintf("%d/%d", in.Injected(), in.Active()))
	r.Add("fault log lines", len(in.Log()))
	r.Add("windows/crossed", fmt.Sprintf("%d/%d", cl.Group.Rounds(), cl.Group.Crossed()))
	r.Note("schedule: crash n000+n006(jittered), nic-down n001, 4x overload n002, 50%% loss n003, flap n004, CRC stall n005, cut [n000 n001]")
	r.Note("barrier arms mutate shared state between conservative windows (sim.Group.AtBarrier); local arms run on the owning partition engine")
	r.Note("accounting: rejected counts admission-denied requests (never sent); this mesh has no gates, so it is structurally 0")
	return r
}

// qosStormPDES is the qos-storm variant on the partitioned lane mesh:
// token-bucket admission and priority lanes (no SLO controller — it is
// classic-only) under a fault storm of barrier and local arms. The
// client-edge accounting rows make the Sent/Rejected contract visible.
func qosStormPDES(opts Options) *Result {
	m, cfg := pdesMesh(opts, 0)
	cl := m.Cluster
	rt, err := qos.Install(cl, m.Nodes, &qos.Tenancy{
		Tenants: []qos.Tenant{
			{Name: "even", RatePerSec: 250_000, Burst: 64},
			{Name: "odd", RatePerSec: 100_000, Burst: 64},
		},
		Lanes: qos.LaneConfig{DataCap: 32, TelemetryCap: 8, DispatchCost: 300 * sim.Nanosecond},
	})
	if err != nil {
		panic(err)
	}
	in, err := fault.Install(cl, pdesFaultSchedule(cfg.Window))
	if err != nil {
		panic(err)
	}

	for i, c := range m.Clients {
		rt.Bind(c)
		tenant := uint16(i % 2)
		dst := (i + 1) % cfg.Nodes
		// Even clients stay under budget; odd clients offer ~2.7x
		// theirs, so their gates shed at the edge while faults churn
		// the mesh underneath.
		interval := 5 * sim.Microsecond
		if tenant == 1 {
			interval = 3700 * sim.Nanosecond
		}
		every(c.Eng(), 0, cfg.Window, interval, func(k uint64) {
			c.Send(workload.Request{
				Node: m.Nodes[dst].Name, Dst: actor.ID(1 + dst),
				Size: 256, FlowID: uint64(i)<<32 | k, Tenant: tenant,
			})
		})
	}
	cl.RunUntil(cfg.Window)
	t := m.Totals()

	r := &Result{Header: []string{"metric", "value"}}
	r.Add("nodes x partitions", fmt.Sprintf("%dx%d", cfg.Nodes, cfg.Partitions))
	r.Add("client edge sent/rejected/offered", fmt.Sprintf("%d/%d/%d",
		t.Sent, t.Rejected, t.Sent+t.Rejected))
	r.Add("requests answered", t.Received)
	for tn, name := range []string{"even", "odd"} {
		r.Add(name+" offered/admitted/rejected",
			fmt.Sprintf("%d/%d/%d", rt.OfferedTo(tn), rt.AdmittedTo(tn), rt.RejectedTo(tn)))
	}
	enq, del, shed, backpressured := rt.LaneTotals()
	for l := qos.Lane(0); l < qos.NumLanes; l++ {
		r.Add(l.String()+" enq/del/shed", fmt.Sprintf("%d/%d/%d", enq[l], del[l], shed[l]))
	}
	r.Add("data backpressured", backpressured)
	r.Add("faults injected", in.Injected())
	r.Add("fault log lines", len(in.Log()))
	r.Add("windows", cl.Group.Rounds())
	r.Note("accounting: edge sent excludes admission-denied requests; offered = sent + rejected (workload.Client contract), and the gate ledger's rejected matches the client edge")
	r.Note("fault storm: the full faults-pdes arm matrix on the same mesh; the SLO controller stays off (classic-only)")
	return r
}
