package bench

import (
	"fmt"

	"repro/internal/actor"
	"repro/internal/fault"
	"repro/internal/sim"
)

// The migrate-pdes experiment certifies §3.2.5 migration on a
// partitioned (PDES) cluster — the mesh.Build echo mesh with migratable
// actors (see pdesMesh): every node force-pushes its actor to the host
// mid-window, fault arms (a crash and a NIC-complex failure) land
// between the migration phases, and after recovery every node pulls its
// actor back to the NIC. The node-local phases run on the owning
// partition's engine; the cluster-visible commit — the actor-table
// rewrite, host/NIC registration, buffered re-dispatch — defers to the
// next conservative-window boundary (sim.Group.DeferBarrier), so the
// copy-on-write actor table stays single-writer and every column is
// byte-identical at any worker count. The `-pdes` rows of
// `make replay-smoke` replay this along the PDES axis.

func init() {
	register("migrate-pdes", "Forced push+pull migrations on a partitioned (PDES) mesh with fault arms landing between the migration phases", migratePDES)
}

func migratePDES(opts Options) *Result {
	// Each actor owns a 256KB DMO region, so the phase-3 object move has
	// real bytes to charge.
	m, cfg := pdesMesh(opts, 256<<10)
	cl, nn := m.Cluster, m.Nodes
	w := float64(cfg.Window)
	at := func(f float64) sim.Time { return sim.Time(w * f) }
	// Forced pushes land mid-window; the fault arms are timed off the
	// push into specific protocol phases (p1 = 200µs, p3 starts ~250µs
	// in and moves the 256KB region for ~590µs more).
	pushAt, pullAt := at(0.10), at(0.55)

	in, err := fault.Install(cl, fault.Schedule{Faults: []fault.Fault{
		// Crash n000 mid phase-3 of its push (object move in flight);
		// the commit still lands — placement survives the crash like
		// durable state — and the node recovers before the pulls.
		fault.Crash("n000", pushAt+320*sim.Microsecond, at(0.10)),
		// Kill n001's NIC complex mid phase-1; re-homing skips the
		// in-flight actor and the push finishes onto the host.
		fault.NICFail("n001", pushAt+100*sim.Microsecond, at(0.10)),
	}})
	if err != nil {
		panic(err)
	}
	gaveUp := retryTraffic(m, cfg.Window)

	// pushOK[i]/pullOK[i] are written only by node i's partition engine
	// (the same single-writer discipline as the give-up counts).
	pushOK := make([]bool, len(nn))
	pullOK := make([]bool, len(nn))
	for i, n := range nn {
		n.Eng().At(pushAt, func() { pushOK[i] = n.MigrateNow(actor.ID(1 + i)) })
		n.Eng().At(pullAt, func() { pullOK[i] = n.PullNow() })
	}
	cl.RunUntil(cfg.Window + sim.Millisecond) // drain room for late retries
	t := m.Totals()

	var pushes, pulls, pushRecs, pullRecs, pushBytes, pullBytes, buffered int
	for i, n := range nn {
		if pushOK[i] {
			pushes++
		}
		if pullOK[i] {
			pulls++
		}
		for _, rec := range n.Migrations {
			if rec.Pull {
				pullRecs++
				pullBytes += rec.BytesMoved
			} else {
				pushRecs++
				pushBytes += rec.BytesMoved
			}
			buffered += rec.Buffered
		}
	}

	r := &Result{Header: []string{"metric", "value"}}
	r.Add("nodes x partitions", fmt.Sprintf("%dx%d", cfg.Nodes, cfg.Partitions))
	r.Add("requests sent/answered", fmt.Sprintf("%d/%d", t.Sent, t.Received))
	r.Add("retried/gave-up", fmt.Sprintf("%d/%d", t.Retried, gaveUp()))
	r.Add("latency p50/p99 (us)", fmt.Sprintf("%.2f/%.2f", t.Lat.Percentile(50), t.Lat.Percentile(99)))
	r.Add("forced push/pull accepted", fmt.Sprintf("%d/%d", pushes, pulls))
	r.Add("push records (count/bytes)", fmt.Sprintf("%d/%d", pushRecs, pushBytes))
	r.Add("pull records (count/bytes)", fmt.Sprintf("%d/%d", pullRecs, pullBytes))
	r.Add("buffered requests forwarded", buffered)
	r.Add("faults injected", in.Injected())
	r.Add("windows/crossed", fmt.Sprintf("%d/%d", cl.Group.Rounds(), cl.Group.Crossed()))
	r.Note("node-local migration phases run on the owning partition engine; the table/registration commit defers to the next window boundary (DESIGN.md §13)")
	r.Note("arms: crash n000 mid phase-3 (commit lands anyway), NIC-down n001 mid phase-1 (re-homing skips the in-flight actor); a pull whose NIC dies in flight bounces back to the host and records nothing")
	r.Note("pull records carry the direction tag, so both directions are accounted (a pull may be refused while a policy migration holds the latch)")
	return r
}
