// Package mesh builds the echo topology every partitioned experiment
// uses: N SmartNIC-equipped server nodes behind one switch, one echo
// actor per node (ID 1+i, replying at a fixed NIC-side service cost),
// and one client per node. Build makes the topology and schedules no
// traffic, so each caller drives its own load — faults, migrations and
// QoS lanes all ride this one builder. Run is the scale-out experiment
// on it: every client issues small RPCs to Zipf-chosen servers in a
// closed loop, the "millions of users hitting a few hot nodes" shape of
// the paper's RKV evaluation blown up past the 8-node testbed. The
// workload is deliberately simple so the experiment measures the engine
// and the fabric, not an application.
//
// Every node (its NIC, host, PCIe and link models) and its client live
// on one engine partition; only the switch hop crosses partitions.
// Results are deterministic for a fixed (seed, nodes, partitions)
// triple regardless of worker count.
//
// Observability: attach a tracer/collector through
// core.SetDefaultObserver before calling Build or Run — the partitioned
// cluster shards the tracer per partition and samples metrics at window
// boundaries, so enabling observability changes neither the results nor
// their worker-count independence (the exported artifacts are
// themselves byte-identical at any worker count).
package mesh

import (
	"fmt"
	"time"

	"repro/internal/actor"
	"repro/internal/core"
	"repro/internal/invariant"
	"repro/internal/sim"
	"repro/internal/spec"
	"repro/internal/stats"
	"repro/internal/workload"
)

// Config sizes one mesh run.
type Config struct {
	// Nodes is the server count (≥ 2).
	Nodes int
	// Partitions shards the topology across this many engines (default
	// min(8, Nodes)). 1 is the classic serial engine.
	Partitions int
	// Workers bounds the goroutines executing partitions (≤ 1 = serial
	// merge; results are identical either way).
	Workers int
	Seed    uint64
	// Depth is each client's closed-loop outstanding-request window
	// (default 2).
	Depth int
	// Theta is the Zipf skew over destination servers (default 0.99,
	// the paper's RKV skew).
	Theta float64
	// ReqSize is the request wire size in bytes (default 256).
	ReqSize int
	// ServiceNs is the actor's modeled execution cost per request on
	// the reference NIC core (default 1500ns — an RKV-like GET).
	ServiceNs int
	// Window is the measured run length (default 2ms).
	Window sim.Time
	// Check attaches per-partition invariant checkers.
	Check bool
	// ObjectBytes, when positive, makes the echo actors migratable:
	// they are not pinned to the NIC, the nodes' migration machinery is
	// on, and each actor's OnInit allocates this many DMO bytes, so a
	// migration's object move has real bytes to charge. 0 pins every
	// actor to its NIC with migration off.
	ObjectBytes int
}

// Stats is one run's deterministic outcome plus its wall-clock cost.
// Ops/latency/Events depend only on (Seed, Nodes, Partitions, workload
// shape); Wall is the only field that varies run to run.
type Stats struct {
	Nodes      int
	Partitions int
	Workers    int
	Ops        uint64  // responses received across all clients
	Sent       uint64  // requests issued
	TputKops   float64 // Ops per simulated second, in thousands
	P50us      float64
	P99us      float64
	Events     uint64 // engine events executed
	Crossed    uint64 // cross-partition handoffs
	Rounds     uint64 // synchronization windows (0 when Partitions == 1)
	Wall       time.Duration
	Violations int // ledgers with violations; -1 when Check is off
	// Fingerprint concatenates the per-partition invariant fingerprints
	// (empty when Check is off) — the byte-comparison artifact for the
	// serial-vs-parallel replay axis.
	Fingerprint string
}

func nodeName(i int) string { return fmt.Sprintf("n%03d", i) }

// Mesh is a built echo topology: node i hosts echo actor 1+i, and
// Clients[i] is attached on node i's partition.
type Mesh struct {
	Cluster *core.Cluster
	Nodes   []*core.Node
	Clients []*workload.Client
	chks    []*invariant.Checker
}

// Build applies cfg's defaults in place and builds the cluster, its
// nodes, their echo actors and one client per node. It schedules no
// traffic.
func Build(cfg *Config) *Mesh {
	if cfg.Nodes < 2 {
		cfg.Nodes = 2
	}
	if cfg.Partitions <= 0 {
		cfg.Partitions = min(cfg.Nodes, 8)
	}
	if cfg.Partitions > cfg.Nodes {
		cfg.Partitions = cfg.Nodes
	}
	if cfg.Depth <= 0 {
		cfg.Depth = 2
	}
	if cfg.Theta == 0 {
		cfg.Theta = 0.99
	}
	if cfg.ReqSize <= 0 {
		cfg.ReqSize = 256
	}
	if cfg.ServiceNs <= 0 {
		cfg.ServiceNs = 1500
	}
	if cfg.Window <= 0 {
		cfg.Window = 2 * sim.Millisecond
	}

	cl := core.NewPartitionedCluster(cfg.Seed, cfg.Partitions)
	cl.SetPDESWorkers(cfg.Workers)
	m := &Mesh{Cluster: cl}
	if cfg.Check {
		m.chks = cl.AttachCheckers()
	}

	serviceCost := sim.Time(cfg.ServiceNs)
	objectBytes := cfg.ObjectBytes
	migrate := objectBytes > 0
	for i := 0; i < cfg.Nodes; i++ {
		n := cl.AddNode(core.Config{
			Name:             nodeName(i),
			NIC:              spec.LiquidIOII_CN2350(),
			DisableMigration: !migrate,
		})
		a := &actor.Actor{
			ID:     actor.ID(1 + i),
			Name:   fmt.Sprintf("svc%03d", i),
			PinNIC: !migrate,
			OnMessage: func(ctx actor.Ctx, m actor.Msg) sim.Time {
				ctx.Reply(m)
				return serviceCost
			},
		}
		if migrate {
			a.OnInit = func(ctx actor.Ctx) { ctx.Alloc(objectBytes) }
		}
		if err := n.Register(a, true, 1<<20); err != nil {
			panic(err)
		}
		m.Nodes = append(m.Nodes, n)
	}
	// One client per server node, attached on the same partition so its
	// request generation parallelizes with it.
	for i, n := range m.Nodes {
		c := workload.NewClientAt(cl, fmt.Sprintf("c%03d", i), cl.Net.LinkGbps(n.Name), n.Part)
		m.Clients = append(m.Clients, c)
	}
	return m
}

// Totals is the clients' combined ledger.
type Totals struct {
	Sent, Received, Rejected, Retried uint64
	// Lat merges every client's latency samples in client order, so its
	// percentiles are deterministic.
	Lat *stats.Sample
}

// Totals sums the clients' counters and merges their latencies.
func (m *Mesh) Totals() Totals {
	t := Totals{Lat: stats.NewSample()}
	for _, c := range m.Clients {
		t.Sent += c.Sent
		t.Received += c.Received
		t.Rejected += c.Rejected
		t.Retried += c.Retried
		t.Lat.Merge(c.Lat)
	}
	return t
}

// Run builds the mesh, drives every client's Zipf closed loop for the
// window, and reports.
func Run(cfg Config) Stats {
	m := Build(&cfg)
	for i, c := range m.Clients {
		zipf := workload.NewZipf(c.Eng().Rand(), uint64(cfg.Nodes), cfg.Theta)
		c.ClosedLoop(cfg.Depth, cfg.Window, func(k uint64) workload.Request {
			dst := int(zipf.Next())
			if dst == i {
				dst = (dst + 1) % cfg.Nodes // never self: keep traffic on the wire
			}
			return workload.Request{
				Node:   nodeName(dst),
				Dst:    actor.ID(1 + dst),
				Size:   cfg.ReqSize,
				FlowID: uint64(i)<<32 | (k + 1),
			}
		})
	}

	cl := m.Cluster
	start := time.Now()
	cl.RunUntil(cfg.Window)
	wall := time.Since(start)

	tot := m.Totals()
	out := Stats{
		Nodes:      cfg.Nodes,
		Partitions: cfg.Partitions,
		Workers:    cfg.Workers,
		Ops:        tot.Received,
		Sent:       tot.Sent,
		TputKops:   float64(tot.Received) / cfg.Window.Seconds() / 1e3,
		P50us:      tot.Lat.Percentile(50),
		P99us:      tot.Lat.Percentile(99),
		Events:     cl.Group.ExecutedEvents(),
		Crossed:    cl.Group.Crossed(),
		Rounds:     cl.Group.Rounds(),
		Wall:       wall,
		Violations: -1,
	}
	if cfg.Check {
		out.Violations = 0
		var fp string
		for _, chk := range m.chks {
			chk.Finish()
			if err := chk.Err(); err != nil {
				out.Violations++
			}
			fp += chk.Fingerprint()
		}
		out.Fingerprint = fp
	}
	return out
}
