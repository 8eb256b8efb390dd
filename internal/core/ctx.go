package core

import (
	"repro/internal/actor"
	"repro/internal/dmo"
	"repro/internal/netsim"
	"repro/internal/sim"
)

// execCtx implements actor.Ctx for one handler invocation. It records
// the modeled cost of every runtime service the handler uses (sends,
// DMO accesses, accelerator invocations) in extra; the Run hooks add
// extra to the handler's own compute cost. Contexts are pooled per
// Node (getCtx/putCtx): the request path allocates none.
type execCtx struct {
	node  *Node
	a     *actor.Actor
	onNIC bool
	extra sim.Time
	// free disables cost accounting (used for OnInit, which the paper
	// performs at registration time, off the data path).
	free bool
	// effects collects the handler's outbound effects (sends, replies).
	// Handlers execute instantly in real time, but their messages must
	// leave when the modeled execution *finishes*, so the runtime
	// flushes these after the service time elapses (Node.flush).
	effects []effect
}

// effectKind enumerates a handler's deferred outbound effects.
type effectKind uint8

const (
	// effWire sends m to the remote node to as its own packet.
	effWire effectKind = iota
	// effReply returns m to the external client at m.Origin.
	effReply
	// effLocalFromNIC / effLocalFromHost route m to a same-node actor,
	// re-resolving where it lives at flush time.
	effLocalFromNIC
	effLocalFromHost
)

// effect is one deferred outbound effect, held by value.
type effect struct {
	kind effectKind
	size int
	to   string
	m    actor.Msg
}

// getCtx checks a context out of the node's pool.
func (n *Node) getCtx(a *actor.Actor, onNIC bool) *execCtx {
	var c *execCtx
	if k := len(n.ctxFree); k > 0 {
		c, n.ctxFree = n.ctxFree[k-1], n.ctxFree[:k-1]
	} else {
		c = &execCtx{node: n}
	}
	c.a, c.onNIC, c.extra = a, onNIC, 0
	return c
}

// putCtx returns a context whose effects have all been applied.
func (n *Node) putCtx(c *execCtx) {
	clear(c.effects)
	c.effects = c.effects[:0]
	c.a = nil
	n.ctxFree = append(n.ctxFree, c)
}

func (c *execCtx) charge(d sim.Time) {
	if !c.free {
		c.extra += d
	}
}

// later queues an outbound effect; OnInit contexts apply it immediately.
func (c *execCtx) later(e effect) {
	if c.free {
		c.apply(&e)
		return
	}
	c.effects = append(c.effects, e)
}

// finish schedules the deferred effects to fire when the modeled
// service completes — the context stays checked out until then — and
// returns the service time.
func (c *execCtx) finish(service sim.Time) sim.Time {
	n := c.node
	if len(c.effects) == 0 {
		n.putCtx(c)
		return service
	}
	if service <= 0 {
		service = 1
	}
	n.eng.AfterArg(service, n.flushFn, c)
	return service
}

// flush is the bound handler applying a finished execution's effects in
// the order the handler produced them.
func (n *Node) flush(arg any) {
	c := arg.(*execCtx)
	for i := range c.effects {
		c.apply(&c.effects[i])
	}
	n.putCtx(c)
}

// apply performs one outbound effect.
func (c *execCtx) apply(e *effect) {
	n := c.node
	switch e.kind {
	case effWire:
		n.c.Net.Send(&netsim.Packet{
			Src: n.Name, Dst: e.to, Size: e.size,
			FlowID:  e.m.FlowID,
			Payload: e.m,
		})
	case effReply:
		resp := e.m
		resp.Reply = nil
		n.c.Net.Send(&netsim.Packet{
			Src: n.Name, Dst: e.m.Origin, Size: e.size,
			FlowID:  e.m.FlowID,
			Payload: RespEnvelope{Fn: e.m.Reply, Msg: resp},
		})
	case effLocalFromNIC:
		c.deliverLocalFromNIC(e.m)
	case effLocalFromHost:
		c.deliverLocalFromHost(e.m)
	}
}

// Now implements actor.Ctx.
func (c *execCtx) Now() sim.Time { return c.node.eng.Now() }

// Self implements actor.Ctx.
func (c *execCtx) Self() actor.ID { return c.a.ID }

// OnNIC implements actor.Ctx.
func (c *execCtx) OnNIC() bool { return c.onNIC }

// Send implements actor.Ctx: asynchronous message to another actor,
// wherever it lives.
func (c *execCtx) Send(dst actor.ID, m actor.Msg) {
	n := c.node
	m.Src = c.a.ID
	m.Dst = dst
	ref, ok := n.c.Table.Lookup(dst)
	if !ok {
		n.Dropped++
		return
	}
	if ref.Node != n.Name {
		// Remote: serialize to the wire. Hardware-assisted messaging on
		// the NIC (Figure 6); DPDK/ring costs on the host.
		size := len(m.Data) + 48
		if size < 64 {
			size = 64
		}
		if c.onNIC {
			c.charge(n.NICModel.NICSendCost.Cost(size))
		} else if n.Offloaded() {
			// Host egress via the NIC: stage into the ring.
			c.charge(n.HostModel.RingTxOcc)
		} else {
			c.charge(n.HostModel.DPDKTxOcc)
		}
		m.Via = actor.ViaWire
		m.WireSize = size
		c.later(effect{kind: effWire, size: size, to: ref.Node, m: m})
		return
	}
	// Local node. The destination side is re-resolved at flush time:
	// the target may migrate between handler execution and completion.
	switch {
	case c.onNIC && ref.OnNIC:
		c.charge(100 * sim.Nanosecond)
		c.later(effect{kind: effLocalFromNIC, m: m})
	case c.onNIC && !ref.OnNIC:
		c.charge(150 * sim.Nanosecond)
		c.later(effect{kind: effLocalFromNIC, m: m})
	case !c.onNIC && ref.OnNIC:
		c.charge(60*sim.Nanosecond + n.HostModel.RingTxOcc)
		c.later(effect{kind: effLocalFromHost, m: m})
	default:
		c.charge(80 * sim.Nanosecond)
		c.later(effect{kind: effLocalFromHost, m: m})
	}
}

// deliverLocalFromNIC routes a NIC-originated local message to wherever
// the destination lives now.
func (c *execCtx) deliverLocalFromNIC(m actor.Msg) {
	n := c.node
	ref, ok := n.c.Table.Lookup(m.Dst)
	switch {
	case !ok:
		n.Dropped++
	case ref.Node != n.Name:
		n.sendRemote(m, ref.Node)
	case ref.OnNIC:
		m.Via = actor.ViaLocal
		n.Sched.Arrive(m)
	default:
		n.forwardToHost(m)
	}
}

// deliverLocalFromHost routes a host-originated local message.
func (c *execCtx) deliverLocalFromHost(m actor.Msg) {
	n := c.node
	ref, ok := n.c.Table.Lookup(m.Dst)
	switch {
	case !ok:
		n.Dropped++
	case ref.Node != n.Name:
		n.sendRemote(m, ref.Node)
	case ref.OnNIC:
		m.Via = actor.ViaRing
		if _, err := n.Chan.HostPush(toRingMsg(m)); err != nil {
			mm := m
			n.eng.After(2*sim.Microsecond, func() { n.hostUnowned(mm) })
		}
	default:
		m.Via = actor.ViaLocal
		n.Host.Arrive(m)
	}
}

// Reply implements actor.Ctx: route a response to the external client
// that originated the request.
func (c *execCtx) Reply(m actor.Msg) {
	n := c.node
	if m.Reply == nil || m.Origin == "" {
		n.Dropped++
		return
	}
	size := m.WireSize
	if size < 64 {
		size = 64
	}
	if c.onNIC {
		c.charge(n.NICModel.NICSendCost.Cost(size))
	} else if n.Offloaded() {
		c.charge(n.HostModel.RingTxOcc)
	} else {
		c.charge(n.HostModel.DPDKTxOcc)
	}
	c.later(effect{kind: effReply, size: size, m: m})
}

// side returns where this execution's objects live.
func (c *execCtx) side() dmo.Side {
	if c.onNIC {
		return dmo.NIC
	}
	return dmo.Host
}

// dmoOverhead is the per-operation DMO address-translation cost (object
// ID → base address lookup), one of the three framework overheads the
// paper measures in §5.5.
func (c *execCtx) dmoOverhead(bytes int) sim.Time {
	if c.node.cfg.RawState {
		return 0
	}
	return 60*sim.Nanosecond + sim.Time(float64(bytes)*0.02)
}

// Alloc implements actor.Ctx.
func (c *execCtx) Alloc(size int) (uint64, error) {
	c.charge(200 * sim.Nanosecond)
	return c.node.Objects.Alloc(uint32(c.a.ID), size, c.side())
}

// Free implements actor.Ctx.
func (c *execCtx) Free(obj uint64) error {
	c.charge(150 * sim.Nanosecond)
	err := c.node.Objects.Free(uint32(c.a.ID), obj)
	c.note(err)
	return err
}

// ObjRead implements actor.Ctx.
func (c *execCtx) ObjRead(obj uint64, off, n int) ([]byte, error) {
	c.charge(c.dmoOverhead(n))
	p, err := c.node.Objects.Read(uint32(c.a.ID), obj, off, n)
	c.note(err)
	return p, err
}

// ObjWrite implements actor.Ctx.
func (c *execCtx) ObjWrite(obj uint64, off int, p []byte) error {
	c.charge(c.dmoOverhead(len(p)))
	err := c.node.Objects.Write(uint32(c.a.ID), obj, off, p)
	c.note(err)
	return err
}

// ObjMigrate implements actor.Ctx: move one object across PCIe. The
// issuing core only stages the transfer; the bytes move at migration
// bandwidth in the background.
func (c *execCtx) ObjMigrate(obj uint64) (int, error) {
	to := dmo.Host
	if !c.onNIC {
		to = dmo.NIC
	}
	n, err := c.node.Objects.MigrateObject(uint32(c.a.ID), obj, to)
	c.note(err)
	if err != nil {
		return 0, err
	}
	c.charge(300 * sim.Nanosecond) // descriptor staging
	return n, nil
}

// ObjMemset implements actor.Ctx (dmo_mmset).
func (c *execCtx) ObjMemset(obj uint64, off, n int, b byte) error {
	c.charge(c.dmoOverhead(n))
	err := c.node.Objects.Memset(uint32(c.a.ID), obj, off, n, b)
	c.note(err)
	return err
}

// ObjMemcpy implements actor.Ctx (dmo_mmcpy).
func (c *execCtx) ObjMemcpy(dst uint64, dstOff int, src uint64, srcOff, n int) error {
	c.charge(c.dmoOverhead(n))
	err := c.node.Objects.Memcpy(uint32(c.a.ID), dst, dstOff, src, srcOff, n)
	c.note(err)
	return err
}

// ObjMemmove implements actor.Ctx (dmo_mmmove).
func (c *execCtx) ObjMemmove(obj uint64, dstOff, srcOff, n int) error {
	c.charge(c.dmoOverhead(n))
	err := c.node.Objects.Memmove(uint32(c.a.ID), obj, dstOff, srcOff, n)
	c.note(err)
	return err
}

// note records isolation violations (wrong-actor accesses).
func (c *execCtx) note(err error) {
	if err == dmo.ErrWrongActor {
		c.node.Violations.Record(c.a.ID)
	}
}

// Accel implements actor.Ctx: invoke a hardware unit if this zone has
// one. Host cores report ok=false and the handler computes inline.
func (c *execCtx) Accel(name string, bytes, batch int) (sim.Time, bool) {
	if !c.onNIC || c.node.Accels == nil {
		return 0, false
	}
	cost, ok := c.node.Accels.Invoke(name, bytes, batch, nil)
	if !ok {
		return 0, false
	}
	c.charge(cost)
	return cost, true
}
