// Package fault is the deterministic failure injector: it turns a
// declarative Schedule of faults — node crash/restart, NIC-complex
// failure, NIC overload bursts, link loss, link flapping, network
// partitions, accelerator stalls — into first-class simulator events on
// the cluster's engines. Every activation and restoration is recorded in
// a byte-deterministic log (same seed + same schedule ⇒ identical
// bytes), and when tracing is enabled each fault appears as a span on a
// dedicated "faults" trace group, so degraded regimes are visible right
// next to the per-core execution lanes they perturb.
//
// The injector only *causes* failures; the recovery mechanisms live
// where they belong — client retry with capped exponential backoff in
// internal/workload, Paxos leader failover in internal/apps/rkv,
// transaction-timeout aborts and lock leases in internal/apps/dt, and
// crash semantics plus NIC-down actor re-homing in internal/core.
package fault

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/invariant"
	"repro/internal/obs"
	"repro/internal/sim"
)

// Kind enumerates the injectable fault classes.
type Kind uint8

const (
	// NodeCrash fail-stops the whole node for Dur, then restarts it.
	NodeCrash Kind = iota + 1
	// NICDown kills only the SmartNIC processing complex: its actors
	// re-home to the host and ingress takes the host path.
	NICDown
	// NICOverload dilates NIC-core service times by Factor for Dur.
	NICOverload
	// LinkLoss drops the node's traffic (both directions) with
	// probability Rate for Dur.
	LinkLoss
	// LinkFlap repeatedly severs and heals the node's connectivity:
	// down Period/2, up Period/2, for the whole Dur window.
	LinkFlap
	// Partition severs the Nodes group from every other attached node
	// (including clients) for Dur; the group stays internally connected.
	Partition
	// AccelStall occupies the named accelerator Unit for Dur; invocations
	// queue behind the blockage.
	AccelStall
)

// String names the fault kind for logs and trace spans.
func (k Kind) String() string {
	switch k {
	case NodeCrash:
		return "crash"
	case NICDown:
		return "nic-down"
	case NICOverload:
		return "overload"
	case LinkLoss:
		return "loss"
	case LinkFlap:
		return "flap"
	case Partition:
		return "partition"
	case AccelStall:
		return "stall"
	}
	return fmt.Sprintf("fault(%d)", uint8(k))
}

// Fault is one scheduled failure. At is absolute virtual time; Dur the
// active window (every kind requires Dur > 0 — open-ended faults would
// make runs dependent on harness stop times, breaking determinism
// comparisons). Jitter, when set, shifts the start by a seed-derived
// offset in [0, Jitter), drawn from the engine's PRNG at install time.
type Fault struct {
	Kind  Kind
	Node  string   // target node (all kinds except Partition)
	Nodes []string // Partition: the group to cut off

	At  sim.Time
	Dur sim.Time

	Rate   float64  // LinkLoss drop probability (0, 1]
	Factor float64  // NICOverload service-time multiplier (> 1)
	Period sim.Time // LinkFlap cycle (default Dur/4)
	Unit   string   // AccelStall accelerator name
	Jitter sim.Time // optional seed-derived start offset
}

// label renders the fault for the deterministic log and trace spans.
func (f Fault) label() string {
	switch f.Kind {
	case NICOverload:
		return fmt.Sprintf("%s %s x%.3g", f.Kind, f.Node, f.Factor)
	case LinkLoss:
		return fmt.Sprintf("%s %s %.3g", f.Kind, f.Node, f.Rate)
	case Partition:
		return fmt.Sprintf("%s [%s]", f.Kind, strings.Join(f.Nodes, " "))
	case AccelStall:
		return fmt.Sprintf("%s %s %s", f.Kind, f.Node, f.Unit)
	}
	return fmt.Sprintf("%s %s", f.Kind, f.Node)
}

// Crash builds a node crash/restart fault.
func Crash(node string, at, dur sim.Time) Fault {
	return Fault{Kind: NodeCrash, Node: node, At: at, Dur: dur}
}

// NICFail builds a SmartNIC-complex failure.
func NICFail(node string, at, dur sim.Time) Fault {
	return Fault{Kind: NICDown, Node: node, At: at, Dur: dur}
}

// Overload builds a NIC overload burst (service times × factor).
func Overload(node string, at, dur sim.Time, factor float64) Fault {
	return Fault{Kind: NICOverload, Node: node, At: at, Dur: dur, Factor: factor}
}

// Loss builds a lossy-link window on the node's traffic.
func Loss(node string, at, dur sim.Time, rate float64) Fault {
	return Fault{Kind: LinkLoss, Node: node, At: at, Dur: dur, Rate: rate}
}

// Flap builds a flapping-link window (down Period/2, up Period/2).
func Flap(node string, at, dur, period sim.Time) Fault {
	return Fault{Kind: LinkFlap, Node: node, At: at, Dur: dur, Period: period}
}

// Cut builds a partition isolating the given group from everyone else.
func Cut(at, dur sim.Time, nodes ...string) Fault {
	return Fault{Kind: Partition, Nodes: nodes, At: at, Dur: dur}
}

// Stall builds an accelerator stall on the node's named unit.
func Stall(node, unit string, at, dur sim.Time) Fault {
	return Fault{Kind: AccelStall, Node: node, Unit: unit, At: at, Dur: dur}
}

// Schedule is a declarative set of faults, the Faults field of the
// deployment specs (internal/deploy).
type Schedule struct {
	Faults []Fault
}

// ScheduleError is the typed validation failure for one fault in a
// Schedule, returned by Validate (and therefore Install): it identifies
// the offending fault by index and rendered label so a mis-built
// schedule fails loudly before any event reaches the engine.
type ScheduleError struct {
	Index  int    // position in Schedule.Faults
	Label  string // the offending Fault's label
	Reason string
}

// Error implements error with the stable "fault N (label): reason" form.
func (e *ScheduleError) Error() string {
	return fmt.Sprintf("fault %d (%s): %s", e.Index, e.Label, e.Reason)
}

// Validate checks the schedule against a cluster: known target nodes,
// positive windows that do not start before the clock the arm is
// scheduled on (the group's barrier floor for a barrier arm, the owning
// node's engine for a local arm), sane parameters. Partition/LinkLoss/
// LinkFlap targets may name client endpoints (attached to the network
// but not cluster nodes), so only node-runtime faults require a cluster
// node. Every failure is a *ScheduleError.
func (s Schedule) Validate(cl *core.Cluster) error {
	for i, f := range s.Faults {
		where := func(msg string, args ...any) error {
			return &ScheduleError{Index: i, Label: f.label(), Reason: fmt.Sprintf(msg, args...)}
		}
		if f.At < 0 {
			return where("negative start time %v", f.At)
		}
		now := cl.Group.Floor()
		if n := cl.Node(f.Node); n != nil && !f.barrierArm() {
			now = n.Eng().Now()
		}
		if f.At < now {
			return where("window starts in the past (start %v, clock %v)", f.At, now)
		}
		if f.Dur <= 0 {
			return where("fault window must be positive, got %v", f.Dur)
		}
		switch f.Kind {
		case NodeCrash, NICDown, NICOverload, AccelStall:
			if cl.Node(f.Node) == nil {
				return where("unknown node %q", f.Node)
			}
		case LinkLoss, LinkFlap:
			if f.Node == "" {
				return where("needs a target node")
			}
		case Partition:
			if len(f.Nodes) == 0 {
				return where("needs a non-empty group")
			}
		default:
			return where("unknown fault kind")
		}
		switch f.Kind {
		case NICOverload:
			if f.Factor <= 1 {
				return where("overload factor must exceed 1, got %g", f.Factor)
			}
		case LinkLoss:
			if f.Rate <= 0 || f.Rate > 1 {
				return where("loss rate must be in (0, 1], got %g", f.Rate)
			}
		case AccelStall:
			if f.Unit == "" {
				return where("needs an accelerator unit name")
			}
		}
	}
	return nil
}

// Injector is an installed schedule: its arms are on the cluster's
// group (barrier arms through sim.Group.AtBarrier, local arms on the
// owning partition's engine), its trace lanes are registered, and its
// activation log fills in as the run progresses.
type Injector struct {
	cl *core.Cluster
	// chks holds every partition's checker: a barrier arm epochs all of
	// them at its arm time.
	chks []*invariant.Checker
	// barrierTrack is the "injector" lane of barrier arms, drawn through
	// partition 0's sink.
	barrierTrack obs.TrackID

	// srcs holds one log/counter/trace slot per partition. A local arm
	// uses its owning partition's slot, a barrier arm partition 0's.
	// Each slot has one writer at a time — partition p inside its own
	// window, barrier arms only between windows — so the injector needs
	// no locks; reads (Log, Injected, Active) are for after the run, like
	// every other counter.
	srcs []injSrc
}

// injSrc is one partition's private injector state.
type injSrc struct {
	part  int16
	eng   *sim.Engine
	chk   *invariant.Checker
	sink  *obs.Sink
	track obs.TrackID // the partition's "injector-p<part>" lane for local arms

	injected int
	active   int
	seq      int32
	log      []logEntry
}

// logEntry is one activation-log line with its deterministic sort key:
// merged output is ordered by (time, partition, per-slot seq), a pure
// function of the simulation. Each slot logs in execution order; on a
// partitioned cluster barrier arms (partition 0's slot) run before
// every same-time event, so they also sort first at t.
type logEntry struct {
	t    sim.Time
	part int16
	seq  int32
	text string
}

// barrierArm reports whether the fault kind mutates cluster-wide state
// (membership, the network's loss and blocked-link tables) and so is a
// sim.Group.AtBarrier action: a window-boundary action on a
// partitioned cluster, an engine event on a classic one. The remaining
// kinds touch only the owning node's partition-local state and run on
// its partition engine.
func (f Fault) barrierArm() bool {
	switch f.Kind {
	case NodeCrash, LinkLoss, LinkFlap, Partition:
		return true
	}
	return false
}

// Install validates the schedule and schedules every fault one way,
// whatever the cluster's partition count. Cluster-wide arms (crash,
// loss, flap, partition cuts) are sim.Group.AtBarrier actions: on a
// partitioned (PDES) cluster they mutate shared state between
// conservative windows, race-free and deterministically at any worker
// count, and on a classic cluster they are plain engine events.
// Partition-local arms (overload, accel stall, NIC-down) are events on
// the owning partition's engine. Jitter comes from the seeded PRNG of
// the partition whose slot the arm logs in: partition 0 for barrier
// arms, the owning partition for local arms. A mis-built schedule
// (unknown node, non-positive window, start before the clock its arm is
// scheduled on) is rejected with a *ScheduleError before anything
// reaches the engine. Installing an empty schedule is allowed and yields
// an injector that never fires.
func Install(cl *core.Cluster, s Schedule) (*Injector, error) {
	if err := s.Validate(cl); err != nil {
		return nil, err
	}
	tr := cl.Tracer()
	in := &Injector{cl: cl, chks: cl.Checkers(), barrierTrack: obs.NoTrack}
	in.srcs = make([]injSrc, cl.Partitions())
	for p := range in.srcs {
		in.srcs[p] = injSrc{
			part:  int16(p),
			eng:   cl.Group.Engine(p),
			chk:   cl.CheckerAt(p),
			sink:  tr.Sink(p),
			track: obs.NoTrack,
		}
	}

	// Stable order: sort by start time, preserving schedule order for
	// ties, so jitter draws and log lines never depend on input order
	// quirks.
	faults := append([]Fault(nil), s.Faults...)
	sort.SliceStable(faults, func(i, j int) bool { return faults[i].At < faults[j].At })

	// Trace lanes (registered at install): the barrier-arm lane, plus
	// one per partition owning local arms.
	if tr.Enabled() && len(faults) > 0 {
		grp := tr.Group(cl.ObsPrefix() + "faults")
		needBarrier := false
		needPart := make([]bool, len(in.srcs))
		for _, f := range faults {
			if f.barrierArm() {
				needBarrier = true
			} else {
				needPart[in.srcOf(f)] = true
			}
		}
		if needBarrier {
			in.barrierTrack = tr.NewTrack(grp, "injector")
		}
		for p, need := range needPart {
			if need {
				in.srcs[p].track = tr.NewTrack(grp, fmt.Sprintf("injector-p%d", p))
			}
		}
	}

	for _, f := range faults {
		f := f
		start := f.At
		if f.Jitter > 0 {
			start += sim.Time(in.srcs[in.srcOf(f)].eng.Rand().Float64() * float64(f.Jitter))
		}
		in.arm(f, start, func() { in.activate(f, start) })
	}
	return in, nil
}

// srcOf returns the slot a fault logs, counts and draws jitter in: the
// owning node's partition for a local arm, partition 0 for a barrier
// arm.
func (in *Injector) srcOf(f Fault) int {
	if f.barrierArm() {
		return 0
	}
	return in.cl.Node(f.Node).Part
}

// arm schedules fn at t by the fault's class: a barrier arm through
// Group.AtBarrier, a local arm on its owning partition's engine.
func (in *Injector) arm(f Fault, t sim.Time, fn func()) {
	if f.barrierArm() {
		in.cl.Group.AtBarrier(t, fn)
		return
	}
	in.srcs[in.srcOf(f)].eng.At(t, fn)
}

// Injected counts fault activations so far, across all slots.
func (in *Injector) Injected() int {
	n := 0
	for i := range in.srcs {
		n += in.srcs[i].injected
	}
	return n
}

// Active counts currently-active fault windows, across all slots.
func (in *Injector) Active() int {
	n := 0
	for i := range in.srcs {
		n += in.srcs[i].active
	}
	return n
}

// Log returns the activation log: one line per fault start and end,
// with virtual timestamps, merged across partition slots in (time,
// partition, seq) order. Byte-deterministic for a given seed and
// schedule at any PDES worker count; on classic clusters the merge is
// the identity. Call between runs, not from inside one.
func (in *Injector) Log() []string {
	var all []logEntry
	for i := range in.srcs {
		all = append(all, in.srcs[i].log...)
	}
	sort.Slice(all, func(a, b int) bool {
		if all[a].t != all[b].t {
			return all[a].t < all[b].t
		}
		if all[a].part != all[b].part {
			return all[a].part < all[b].part
		}
		return all[a].seq < all[b].seq
	})
	out := make([]string, len(all))
	for i := range all {
		out[i] = all[i].text
	}
	return out
}

// Fingerprint joins the log into one comparable string.
func (in *Injector) Fingerprint() string { return strings.Join(in.Log(), "\n") }

// logAt appends a log line to the slot's private vector, stamped for
// the deterministic merge.
func (in *Injector) logAt(src int, t sim.Time, text string) {
	s := &in.srcs[src]
	s.seq++
	s.log = append(s.log, logEntry{t: t, part: s.part, seq: s.seq, text: text})
}

// activate applies a fault and arms its restoration the way its start
// was armed. Log lines and epochs carry the arm time: under PDES a
// barrier arm runs with partition clocks one tick behind it.
func (in *Injector) activate(f Fault, start sim.Time) {
	src := in.srcOf(f)
	s := &in.srcs[src]
	revert := in.apply(src, f, start)
	s.injected++
	s.active++
	label := f.label()
	in.logAt(src, start, fmt.Sprintf("t=%d +%s", int64(start), label))
	in.epoch(f, s.chk, "+"+label, start)
	end := start + f.Dur
	track := s.track
	if f.barrierArm() {
		track = in.barrierTrack
	}
	// The span is emitted at activation (the window is known up front):
	// per-lane timestamps then stay monotonic even when windows overlap.
	s.sink.Span(track, label, start, end, obs.Args{})
	in.arm(f, end, func() {
		if revert != nil {
			revert()
		}
		s.active--
		in.logAt(src, end, fmt.Sprintf("t=%d -%s", int64(end), label))
		in.epoch(f, s.chk, "-"+label, end)
	})
}

// epoch stamps a fault edge at t on the ledgers that see it: every
// partition's for a barrier arm (a cluster-wide mutation), the owning
// partition's (chk) for a local arm.
func (in *Injector) epoch(f Fault, chk *invariant.Checker, label string, t sim.Time) {
	if !f.barrierArm() {
		chk.EpochAt(label, t)
		return
	}
	for _, c := range in.chks {
		c.EpochAt(label, t)
	}
}

// apply performs a fault's effect from its slot src and returns its
// undo (nil when the effect self-expires). Flap toggles are armed at
// explicit times, like every other barrier-arm edge.
func (in *Injector) apply(src int, f Fault, start sim.Time) func() {
	net := in.cl.Net
	switch f.Kind {
	case NodeCrash:
		n := in.cl.Node(f.Node)
		n.Fail()
		return n.Recover
	case NICDown:
		n := in.cl.Node(f.Node)
		n.FailNIC()
		return n.RecoverNIC
	case NICOverload:
		n := in.cl.Node(f.Node)
		n.SetNICSlowdown(f.Factor)
		return func() { n.SetNICSlowdown(1) }
	case LinkLoss:
		net.SetNodeLoss(f.Node, f.Rate)
		return func() { net.SetNodeLoss(f.Node, 0) }
	case LinkFlap:
		others := in.peersOf(f.Node)
		cut := func(on bool) {
			for _, o := range others {
				net.SetBlocked(f.Node, o, on)
			}
		}
		half := flapHalf(f)
		end := start + f.Dur
		down := true
		cut(true)
		sink := in.srcs[src].sink
		var toggle func(at sim.Time)
		toggle = func(at sim.Time) {
			if at >= end {
				return
			}
			down = !down
			cut(down)
			if down {
				sink.Instant(in.barrierTrack, "flap down "+f.Node, at)
			} else {
				sink.Instant(in.barrierTrack, "flap up "+f.Node, at)
			}
			in.arm(f, at+half, func() { toggle(at + half) })
		}
		in.arm(f, start+half, func() { toggle(start + half) })
		return func() { cut(false) }
	case Partition:
		return in.applyCut(f)
	case AccelStall:
		n := in.cl.Node(f.Node)
		if n.Accels == nil || !n.Accels.Stall(f.Unit, f.Dur) {
			in.logAt(src, start, fmt.Sprintf("t=%d skip %s (no unit)", int64(start), f.label()))
		}
		return nil // the station drains the stall by itself
	}
	return nil
}

// flapHalf derives a flap's half-period with the documented defaults.
func flapHalf(f Fault) sim.Time {
	half := f.Period / 2
	if half <= 0 {
		half = f.Dur / 8
	}
	if half <= 0 {
		half = 1
	}
	return half
}

// applyCut severs the fault's group from every other attached endpoint
// and returns the heal. Pure blocked-table writes.
func (in *Injector) applyCut(f Fault) func() {
	net := in.cl.Net
	group := map[string]bool{}
	for _, a := range f.Nodes {
		group[a] = true
	}
	var others []string
	for _, name := range in.allEndpoints() {
		if !group[name] {
			others = append(others, name)
		}
	}
	for _, a := range f.Nodes {
		for _, b := range others {
			net.SetBlocked(a, b, true)
		}
	}
	a := append([]string(nil), f.Nodes...)
	return func() {
		for _, x := range a {
			for _, b := range others {
				net.SetBlocked(x, b, false)
			}
		}
	}
}

// allEndpoints returns every network-attached name (nodes and clients),
// sorted for determinism.
func (in *Injector) allEndpoints() []string {
	names := in.cl.Net.Nodes()
	sort.Strings(names)
	return names
}

// peersOf returns every attached endpoint except the given one, sorted.
func (in *Injector) peersOf(node string) []string {
	var out []string
	for _, name := range in.allEndpoints() {
		if name != node {
			out = append(out, name)
		}
	}
	return out
}
