package main

import (
	"fmt"
	"sort"
	"strings"
	"syscall"
	"time"

	"repro/internal/actor"
	"repro/internal/apps/rkv"
	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/deploy"
	"repro/internal/mesh"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/spec"
	"repro/internal/stats"
	"repro/internal/workload"
)

// opts selects how one run of a workload is built. The zero value plus a
// seed is a timed run: no checkers, no tracer, full window.
type opts struct {
	seed uint64
	// shrink scales the run down by this factor (traced and profiled
	// runs are smaller; every figure they give is per request).
	shrink int
	// setupOnly stops after set-up.
	setupOnly bool
	// workers is the mesh-pdes window-worker count (0 = the default 2).
	workers int
	// check attaches the invariant checkers.
	check bool
	// tracer, when set, is attached to every cluster the run builds.
	tracer *obs.Tracer
	// meter, when set, measures the run phase.
	meter *meter
	// spans, when set, records host-time spans around the calls into
	// the simulator.
	spans *spanLog
}

// run is one workload run. Everything but the host times is a pure
// function of the seed and the options.
type run struct {
	// setup covers cluster build, app deploy and client attach; host the
	// run phase.
	setup, host hostTime
	// cpuPerReq holds the run phase's CPU ns per completed request, once
	// per independent cluster of a pooled run and once for any other.
	cpuPerReq []float64
	// window is the measured virtual window.
	window sim.Time
	// offered and answered are read at the end of the window; completed
	// counts every response, including those of a drain after it.
	offered, answered, completed uint64
	lat                          *stats.Sample
	events                       uint64
	// failed counts requests refused at the edge or lost on the wire.
	failed uint64
	// count holds the per-layer work counters read after the run.
	count map[string]float64
	// violations is -1 when checking was off; fingerprint concatenates
	// the checkers' fingerprints.
	violations  int
	fingerprint string
	// parts holds one fingerprint per independent cluster of a pooled
	// run, so that a scaled-down run can be checked
	// against the matching clusters of a full one.
	parts []string
}

// workloadDef is one benchmark workload.
type workloadDef struct {
	name string
	run  func(o opts) (run, error)
	// gateShrink scales down the checked run of the correctness gate.
	// sched-tail is large only to pool its statistics; a quarter of its
	// clusters covers every code path, and their fingerprints must match
	// the same clusters of the timed run. The other gates are full size
	// and so also warm the heap up for the timed runs.
	gateShrink int
}

var workloads = []workloadDef{
	{"mesh-pdes", runMesh, 1},
	{"rkv-nic", rkvNIC.run, 1},
	{"sched-tail", schedTail.run, 4},
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// observe attaches tr, when set, to every cluster built until the
// returned function is called, through the default observer.
func observe(tr *obs.Tracer) func() {
	if tr == nil {
		return func() {}
	}
	core.SetDefaultObserver(func(c *core.Cluster) { c.EnableTracing(tr) })
	return func() { core.SetDefaultObserver(nil) }
}

// --- mesh-pdes ---------------------------------------------------------

// meshConfig is mesh-pdes' topology in mesh.Run's terms: 256 echo nodes
// on 8 partitions, one depth-2 closed-loop client per node, 256 B
// requests to Zipf(0.99) servers, 1.5µs of NIC work per request.
func meshConfig(o opts) mesh.Config {
	workers := o.workers
	if workers == 0 {
		workers = 2
	}
	win := 10 * sim.Millisecond
	if o.shrink > 1 {
		win /= sim.Time(o.shrink)
	}
	return mesh.Config{
		Nodes: 256, Partitions: 8, Workers: workers, Seed: o.seed,
		Depth: 2, Theta: 0.99, ReqSize: 256, ServiceNs: 1500, Window: win,
	}
}

// runMesh is mesh-pdes: mesh.Run's topology built from the same public
// constructors, except that each request's NIC work is drawn from an
// exponential distribution with mesh.Run's fixed cost as its mean. With
// Zipf destinations over a closed loop the hottest server's link caps
// the throughput, so more than half of all requests meet no queue at
// all; at a fixed cost every one of them takes the same round trip and
// the median reads 5.206µs on every seed. The drawn cost gives the
// median a distribution. meshMatchesLibrary checks that the topology is
// mesh.Run's.
func runMesh(o opts) (run, error) { return meshRun(o, false) }

func meshRun(o opts, fixedCost bool) (run, error) {
	cfg := meshConfig(o)
	defer observe(o.tracer)()
	name := func(i int) string { return fmt.Sprintf("n%03d", i) }
	start := now()
	endSetup := o.spans.begin("setup")
	var cl *core.Cluster
	o.spans.call("core.NewPartitionedCluster", func() { cl = core.NewPartitionedCluster(cfg.Seed, cfg.Partitions) })
	cl.SetPDESWorkers(cfg.Workers)
	if o.check {
		cl.AttachCheckers()
	}
	for i := 0; i < cfg.Nodes; i++ {
		var n *core.Node
		o.spans.call("core.AddNode", func() {
			n = cl.AddNode(core.Config{Name: name(i), NIC: spec.LiquidIOII_CN2350(), DisableMigration: true})
		})
		cost := workload.Exponential{R: sim.NewRand(cfg.Seed*uint64(cfg.Nodes) + uint64(i)), M: sim.Time(cfg.ServiceNs)}
		a := &actor.Actor{
			ID: actor.ID(1 + i), Name: fmt.Sprintf("svc%03d", i), PinNIC: true,
			OnMessage: func(ctx actor.Ctx, m actor.Msg) sim.Time {
				ctx.Reply(m)
				if fixedCost {
					return cost.M
				}
				return cost.Draw()
			},
		}
		var err error
		o.spans.call("core.Node.Register", func() { err = n.Register(a, true, 1<<20) })
		if err != nil {
			return run{}, fmt.Errorf("mesh-pdes: register: %w", err)
		}
	}
	clients := make([]*workload.Client, cfg.Nodes)
	for i := range clients {
		node := cl.Node(name(i))
		o.spans.call("workload.NewClientAt", func() {
			clients[i] = workload.NewClientAt(cl, fmt.Sprintf("c%03d", i), cl.Net.LinkGbps(node.Name), node.Part)
		})
	}
	for i, c := range clients {
		zipf := workload.NewZipf(c.Eng().Rand(), uint64(cfg.Nodes), cfg.Theta)
		c.ClosedLoop(cfg.Depth, cfg.Window, func(k uint64) workload.Request {
			dst := int(zipf.Next())
			if dst == i {
				dst = (dst + 1) % cfg.Nodes // never self, as in mesh.Run
			}
			return workload.Request{Node: name(dst), Dst: actor.ID(1 + dst), Size: cfg.ReqSize, FlowID: uint64(i)<<32 | (k + 1)}
		})
	}
	endSetup()
	setupEnd := now()
	if o.setupOnly {
		return run{setup: start.to(setupEnd)}, nil
	}
	o.meter.start()
	runStart := now()
	o.spans.call("core.Cluster.RunUntil", func() { cl.RunUntil(cfg.Window) })
	host := runStart.to(now())
	o.meter.end()

	r := run{setup: start.to(setupEnd), host: host, window: cfg.Window,
		lat: stats.NewSample(), events: cl.Group.ExecutedEvents()}
	for _, c := range clients { // fixed order: a reproducible merged sample
		r.offered += c.Offered()
		r.answered += c.Received
		r.lat.Merge(c.Lat)
	}
	r.completed = r.answered
	r.cpuPerReq = []float64{float64(host.cpu) / float64(r.completed)}
	r.count = clusterCounts(cl, clients)
	r.failed = uint64(r.count["workload.rejected"] + r.count["netsim.drops"] + r.count["netsim.lost"])
	r.violations, r.fingerprint = finishCheckers(cl)
	return r, nil
}

// meshMatchesLibrary runs mesh-pdes' topology at mesh.Run's fixed cost
// next to mesh.Run itself, scaled down, and names the first
// deterministic figure on which they differ ("" when none does).
func meshMatchesLibrary(seed uint64) (string, error) {
	o := opts{seed: seed, shrink: 10}
	ours, err := meshRun(o, true)
	if err != nil {
		return "", err
	}
	lib := mesh.Run(meshConfig(o))
	type figures struct {
		sent, ops, events, crossed, rounds uint64
		p50, p99                           float64
	}
	a := figures{ours.offered, ours.answered, ours.events, uint64(ours.count["sim.handoffs"]),
		uint64(ours.count["sim.rounds"]), ours.lat.Percentile(50), ours.lat.Percentile(99)}
	b := figures{lib.Sent, lib.Ops, lib.Events, lib.Crossed, lib.Rounds, lib.P50us, lib.P99us}
	if a != b {
		return fmt.Sprintf("%+v vs mesh.Run %+v", a, b), nil
	}
	return "", nil
}

// --- pooled workloads -------------------------------------------------

// pooled is a workload made of independent clusters, each with its own
// seed derived from the run's, built before any runs and then run one
// after another for the same virtual window. Their latency samples,
// ledgers and counters are pooled. A run scaled down by shrink keeps the
// first runs/shrink clusters, and shortens the window once a single
// cluster is left.
type pooled struct {
	name   string
	runs   int
	window sim.Time
	// drain runs each cluster to empty after its window.
	drain bool
	build func(seed uint64, win sim.Time, check bool, spans *spanLog) (*core.Cluster, *workload.Client, error)
}

func (p pooled) run(o opts) (run, error) {
	defer observe(o.tracer)()
	runs, win := p.runs, p.window
	if o.shrink > 1 {
		runs = max(1, p.runs/o.shrink)
		win /= sim.Time(max(1, o.shrink/p.runs))
	}
	start := now()
	endSetup := o.spans.begin("setup")
	clusters := make([]*core.Cluster, runs)
	clients := make([]*workload.Client, runs)
	for k := range clusters {
		var err error
		clusters[k], clients[k], err = p.build(o.seed*uint64(p.runs)+uint64(k), win, o.check, o.spans)
		if err != nil {
			return run{}, fmt.Errorf("%s: %w", p.name, err)
		}
	}
	endSetup()
	setupEnd := now()
	if o.setupOnly {
		return run{setup: start.to(setupEnd)}, nil
	}
	o.meter.start()
	runStart := now()
	r := run{window: win * sim.Time(runs), lat: stats.NewSample(), count: map[string]float64{}}
	cpu := make([]time.Duration, runs)
	for k, cl := range clusters {
		t := now()
		o.spans.call("core.Cluster.RunUntil", func() { cl.RunUntil(win) })
		r.offered += clients[k].Offered()
		r.answered += clients[k].Received
		if p.drain {
			o.spans.call("sim.Engine.Run", cl.Eng.Run)
		}
		cpu[k] = t.to(now()).cpu
	}
	r.host = runStart.to(now())
	o.meter.end()
	r.setup = start.to(setupEnd)

	r.violations = -1
	for k, cl := range clusters {
		c := clients[k]
		part := run{offered: c.Offered(), answered: c.Received, completed: c.Received,
			lat: c.Lat, events: cl.Eng.Executed(), count: clusterCounts(cl, []*workload.Client{c})}
		r.parts = append(r.parts, fingerprint(part))
		r.cpuPerReq = append(r.cpuPerReq, float64(cpu[k])/float64(part.completed))
		r.completed += part.completed
		r.lat.Merge(part.lat)
		r.events += part.events
		for name, v := range part.count {
			if strings.HasSuffix(name, "_util") {
				v /= float64(runs) // a mean over the clusters' means
			}
			r.count[name] += v
		}
		bad, fp := finishCheckers(cl)
		if bad >= 0 {
			r.violations = max(r.violations, 0) + bad
			r.fingerprint += fp
		}
	}
	r.failed = uint64(r.count["workload.rejected"] + r.count["netsim.drops"] + r.count["netsim.lost"])
	return r, nil
}

// --- rkv-nic -----------------------------------------------------------

// rkvNIC is the paper's headline app, sixteen times over: each cluster is
// sharded RKV (4 shards × 3 replicas) on 8 CN2350 nodes, driven by one
// closed-loop client over 1M Zipf(0.99) keys with the §5.1 95/5 GET/PUT
// mix and no warm-up writes, so reads of absent keys fall through to the
// host SSTable reader. A store slows as it fills, so a longer window
// would measure a different store, not a steadier one; independent
// clusters add samples of the same early phase.
var rkvNIC = pooled{name: "rkv-nic", runs: 16, window: 50 * sim.Millisecond, build: rkvCluster}

func rkvCluster(seed uint64, win sim.Time, check bool, spans *spanLog) (*core.Cluster, *workload.Client, error) {
	const nodes, shards, depth = 8, 4, 16
	var cl *core.Cluster
	spans.call("core.NewCluster", func() { cl = core.NewCluster(seed) })
	if check {
		cl.AttachCheckers()
	}
	pool := make([]*core.Node, nodes)
	for i := range pool {
		spans.call("core.AddNode", func() {
			pool[i] = cl.AddNode(core.Config{Name: fmt.Sprintf("s%d", i), LinkGbps: 10, NIC: spec.LiquidIOII_CN2350()})
		})
	}
	var d *deploy.RKV
	var err error
	spans.call("deploy.RKVSpec.Deploy", func() {
		d, err = deploy.RKVSpec{
			Common: deploy.Common{Placement: deploy.NIC, Failover: deploy.FailoverPolicy{Disabled: true}},
			Nodes:  pool, BaseID: 1000, MemLimit: 8 << 20,
			Shards: shards, Replicas: 3, ShardVNodes: 512,
		}.Deploy()
	})
	if err != nil {
		return nil, nil, fmt.Errorf("deploy: %w", err)
	}
	var client *workload.Client
	var keys *workload.Zipf
	spans.call("workload.NewClient", func() { client = workload.NewClient(cl, "cli", 100) })
	spans.call("workload.NewZipf", func() { keys = workload.NewZipf(cl.Eng.Rand(), 1_000_000, 0.99) })
	value := make([]byte, 200)
	client.ClosedLoop(depth, win, func(i uint64) workload.Request {
		key := []byte(fmt.Sprintf("k%07d", keys.Next()))
		data := rkv.GetReq(key)
		if i%20 == 0 {
			data = rkv.PutReq(key, value)
		}
		node, leader := d.LeaderFor(key)
		return workload.Request{Node: node, Dst: leader, Kind: rkv.KindReq, Data: data, Size: 256, FlowID: i + 1}
	})
	return cl, client, nil
}

// --- sched-tail --------------------------------------------------------

// schedTail is fig16's high-dispersion point on a CN2350 node under the
// iPipe hybrid FCFS+DRR scheduler, on 256 independent nodes. At 90% load
// the FCFS cores run close to saturation, so the light requests' tail —
// which sim_p99_us reads, the heavy 1/150 lying above it — converges
// slowly and one seed's figures wander from another's unless many busy
// periods are pooled. Independent clusters pool them, and also pool the
// open loop's end-of-window backlog that failed_share reads.
var schedTail = pooled{name: "sched-tail", runs: 256, window: 125 * sim.Millisecond, drain: true, build: schedCluster}

// schedCluster builds one sched-tail cluster: five light actors (≈b1 =
// 35µs) and one heavy actor (≈40·b2) receiving 1/150 of the requests,
// offered in open loop at 90% of the NIC cores' capacity.
func schedCluster(seed uint64, win sim.Time, check bool, spans *spanLog) (*core.Cluster, *workload.Client, error) {
	const actors, heavyShare, heavyScale, load = 6, 150, 40, 0.9
	nic := spec.LiquidIOII_CN2350()
	b1, b2 := 35*sim.Microsecond, 60*sim.Microsecond
	var cl *core.Cluster
	spans.call("core.NewCluster", func() { cl = core.NewCluster(seed) })
	if check {
		cl.AttachCheckers()
	}
	cfg := baseline.Hybrid(nic)
	var n *core.Node
	spans.call("core.AddNode", func() {
		n = cl.AddNode(core.Config{
			Name: "srv", NIC: nic, SchedOverride: &cfg,
			DisableMigration: true, WatchdogTimeout: -1,
		})
	})
	rnd := sim.NewRand(seed * 7)
	for i := 0; i < actors; i++ {
		base, jit := b1*8/10, b1*2/10
		if i == actors-1 {
			base, jit = b2*heavyScale, b2*heavyScale
		}
		d := shiftedExp{base: base, jit: workload.Exponential{R: rnd, M: jit}}
		a := &actor.Actor{
			ID: actor.ID(100 + i),
			OnMessage: func(ctx actor.Ctx, m actor.Msg) sim.Time {
				ctx.Reply(m)
				return sim.Time(float64(d.Draw()) / nic.CyclesScale())
			},
		}
		var err error
		spans.call("core.Node.Register", func() { err = n.Register(a, true, 0) })
		if err != nil {
			return nil, nil, fmt.Errorf("register: %w", err)
		}
	}
	light := float64(b1)
	heavy := 2 * float64(b2) * heavyScale
	meanService := light*(1-1/float64(heavyShare)) + heavy/float64(heavyShare)
	capacity := float64(nic.Cores) / (meanService / 1e9)
	var client *workload.Client
	spans.call("workload.NewClient", func() { client = workload.NewClient(cl, "cli", nic.LinkGbps) })
	client.OpenLoop(capacity*load, win, func(i uint64) workload.Request {
		dst := actor.ID(100 + int(i)%(actors-1))
		if i%heavyShare == 0 {
			dst = actor.ID(100 + actors - 1)
		}
		return workload.Request{Node: "srv", Dst: dst, Size: 512, FlowID: i + 1}
	})
	return cl, client, nil
}

// shiftedExp draws base + Exp(jit.M): a deterministic handler floor plus
// a data-dependent tail, as in fig16.
type shiftedExp struct {
	base sim.Time
	jit  workload.Exponential
}

func (s shiftedExp) Draw() sim.Time { return s.base + s.jit.Draw() }

// --- counters ----------------------------------------------------------

// clusterCounts reads the layer work counters through public accessors.
// Nodes are visited in name order so float sums are reproducible.
func clusterCounts(cl *core.Cluster, clients []*workload.Client) map[string]float64 {
	c := map[string]float64{
		"netsim.delivered": float64(cl.Net.Delivered()),
		"netsim.drops":     float64(cl.Net.Drops()),
		"netsim.lost":      float64(cl.Net.Lost()),
	}
	if cl.Group != nil {
		c["sim.rounds"] = float64(cl.Group.Rounds())
		c["sim.handoffs"] = float64(cl.Group.Crossed())
	}
	names := cl.Net.Nodes()
	sort.Strings(names)
	var scheds int
	for _, name := range names {
		n := cl.Node(name)
		if n == nil {
			continue // a client port
		}
		if s := n.Sched; s != nil {
			scheds++
			c["sched.completed"] += float64(s.Completed)
			c["sched.forwarded"] += float64(s.Forwarded)
			c["sched.downgrades"] += float64(s.Downgrades)
			c["sched.upgrades"] += float64(s.Upgrades)
			f, d := s.Utilization()
			c["sched.fcfs_util"] += f
			c["sched.drr_util"] += d
		}
		c["hostsim.cores_used"] += n.HostCoresUsed()
		c["hostsim.completed"] += float64(n.Host.Completed)
	}
	if scheds > 0 {
		c["sched.fcfs_util"] /= float64(scheds)
		c["sched.drr_util"] /= float64(scheds)
	}
	for _, cli := range clients {
		c["workload.retried"] += float64(cli.Retried)
		c["workload.rejected"] += float64(cli.Rejected)
	}
	return c
}

// finishCheckers closes the cluster's invariant ledgers and returns how
// many report violations plus their concatenated fingerprints (-1 and ""
// when checking was off).
func finishCheckers(cl *core.Cluster) (int, string) {
	chks := cl.Checkers()
	if len(chks) == 0 {
		return -1, ""
	}
	bad, fp := 0, ""
	for _, chk := range chks {
		chk.Finish()
		if chk.Err() != nil {
			bad++
		}
		fp += chk.Fingerprint()
	}
	return bad, fp
}

// stamp is a point in host time, on the wall clock and on the process
// CPU clock (user + system time of all threads).
type stamp struct {
	wall time.Time
	cpu  time.Duration
}

// hostTime is the host time between two stamps. The benchmark's host
// metrics use cpu: the benchmark host may be a virtual machine whose
// hypervisor takes CPU away for seconds at a time, and stolen time is
// kept out of the guest's CPU clock but not out of its wall clock.
type hostTime struct{ wall, cpu time.Duration }

func now() stamp {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("getrusage: %v", err)) // cannot fail for RUSAGE_SELF
	}
	return stamp{time.Now(), time.Duration(ru.Utime.Nano() + ru.Stime.Nano())}
}

func (a stamp) to(b stamp) hostTime { return hostTime{b.wall.Sub(a.wall), b.cpu - a.cpu} }
