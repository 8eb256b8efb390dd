package ipipe

import (
	"repro/internal/fault"
)

// Fault-injection surface: deployment specs carry a FaultSchedule whose
// faults become first-class simulator events (see internal/fault).
// Schedules can also be installed directly on a cluster with
// InstallFaults when no spec is involved.

// Fault aliases.
type (
	// Fault is one scheduled failure (node crash, NIC failure, overload
	// burst, link loss, flapping, partition, accelerator stall).
	Fault = fault.Fault
	// FaultKind enumerates the injectable fault classes.
	FaultKind = fault.Kind
	// FaultSchedule is a declarative set of faults.
	FaultSchedule = fault.Schedule
	// FaultInjector is an installed schedule: counters plus a
	// byte-deterministic activation log.
	FaultInjector = fault.Injector
)

// Fault kinds.
const (
	FaultNodeCrash   = fault.NodeCrash
	FaultNICDown     = fault.NICDown
	FaultNICOverload = fault.NICOverload
	FaultLinkLoss    = fault.LinkLoss
	FaultLinkFlap    = fault.LinkFlap
	FaultPartition   = fault.Partition
	FaultAccelStall  = fault.AccelStall
)

// FaultCrash builds a node crash/restart fault.
func FaultCrash(node string, at, dur Duration) Fault { return fault.Crash(node, at, dur) }

// FaultNICFail builds a SmartNIC-complex failure (actors re-home to the
// host).
func FaultNICFail(node string, at, dur Duration) Fault { return fault.NICFail(node, at, dur) }

// FaultOverload builds a NIC overload burst (service times × factor).
func FaultOverload(node string, at, dur Duration, factor float64) Fault {
	return fault.Overload(node, at, dur, factor)
}

// FaultLoss builds a lossy-link window on the node's traffic.
func FaultLoss(node string, at, dur Duration, rate float64) Fault {
	return fault.Loss(node, at, dur, rate)
}

// FaultFlap builds a flapping-link window (down period/2, up period/2).
func FaultFlap(node string, at, dur, period Duration) Fault {
	return fault.Flap(node, at, dur, period)
}

// FaultCut builds a partition isolating the given group from everyone
// else (including clients).
func FaultCut(at, dur Duration, nodes ...string) Fault { return fault.Cut(at, dur, nodes...) }

// FaultStall builds an accelerator stall on the node's named unit.
func FaultStall(node, unit string, at, dur Duration) Fault {
	return fault.Stall(node, unit, at, dur)
}

// InstallFaults validates a schedule and schedules every fault on the
// cluster's engine; call before Cluster.Run. Specs install their Faults
// field through the same path.
func InstallFaults(c *Cluster, s FaultSchedule) (*FaultInjector, error) {
	return fault.Install(c, s)
}
