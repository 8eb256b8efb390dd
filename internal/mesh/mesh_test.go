package mesh

import (
	"testing"

	"repro/internal/actor"
	"repro/internal/core"
	"repro/internal/sim"
)

// TestMeshParallelMatchesSerialMerge is the end-to-end determinism
// property of the PDES engine: a partitioned mesh run in parallel must
// be indistinguishable — ops, latency percentiles, event counts, and
// invariant fingerprints — from the same partitioned mesh executed one
// window at a time on a single goroutine.
func TestMeshParallelMatchesSerialMerge(t *testing.T) {
	base := Config{Nodes: 12, Partitions: 4, Seed: 7, Check: true}
	for _, seed := range []uint64{7, 1234} {
		cfg := base
		cfg.Seed = seed
		cfg.Workers = 1
		serial := Run(cfg)
		cfg.Workers = 4
		parallel := Run(cfg)

		// Wall varies run to run and Workers is the knob under test;
		// every other field must match bit for bit.
		serial.Wall, parallel.Wall = 0, 0
		serial.Workers, parallel.Workers = 0, 0
		if serial != parallel {
			t.Fatalf("seed %d: parallel diverged from serial merge:\n  serial:   %+v\n  parallel: %+v",
				seed, serial, parallel)
		}
		if serial.Ops == 0 || serial.Crossed == 0 {
			t.Fatalf("seed %d: degenerate run: %+v", seed, serial)
		}
		if serial.Violations != 0 {
			t.Fatalf("seed %d: %d ledgers reported violations", seed, serial.Violations)
		}
	}
}

// TestMeshSinglePartitionRuns: Partitions=1 (the classic engine) also
// works and produces traffic — the degenerate case every classic
// experiment relies on under -pdes.
func TestMeshSinglePartitionRuns(t *testing.T) {
	s := Run(Config{Nodes: 4, Partitions: 1, Seed: 3, Check: true})
	if s.Ops == 0 || s.Violations != 0 {
		t.Fatalf("classic mesh degenerate: %+v", s)
	}
	if s.Rounds != 0 || s.Crossed != 0 {
		t.Fatalf("classic mesh should not report PDES sync state: %+v", s)
	}
}

// TestMeshZipfSkew: the hot server must see disproportionate traffic —
// the workload shape the PDES scheduler has to survive.
func TestMeshZipfSkew(t *testing.T) {
	s := Run(Config{Nodes: 8, Partitions: 2, Seed: 1})
	if s.Sent < s.Ops {
		t.Fatalf("received %d more than sent %d", s.Ops, s.Sent)
	}
	if s.P99us < s.P50us || s.P50us <= 0 {
		t.Fatalf("latency percentiles degenerate: p50=%v p99=%v", s.P50us, s.P99us)
	}
}

// forcePush builds the mesh, force-pushes node 0's echo actor to the
// host at 100µs, runs for 2ms, and returns whether the push was accepted
// and node 0's migration records.
func forcePush(t *testing.T, cfg Config) (bool, []core.MigrationRecord) {
	t.Helper()
	m := Build(&cfg)
	n := m.Nodes[0]
	var ok bool
	n.Eng().At(100*sim.Microsecond, func() { ok = n.MigrateNow(actor.ID(1)) })
	m.Cluster.RunUntil(2 * sim.Millisecond)
	return ok, n.Migrations
}

// TestBuildObjectBytes: ObjectBytes 0 pins every echo actor to its NIC,
// so a forced push is refused; a positive ObjectBytes makes the actors
// migratable and gives the push's object move that many bytes.
func TestBuildObjectBytes(t *testing.T) {
	if ok, recs := forcePush(t, Config{Nodes: 4, Partitions: 2, Seed: 1}); ok || len(recs) != 0 {
		t.Fatalf("pinned mesh: MigrateNow = %v with %d records, want refused", ok, len(recs))
	}
	ok, recs := forcePush(t, Config{Nodes: 4, Partitions: 2, Seed: 1, ObjectBytes: 256 << 10})
	if !ok || len(recs) != 1 {
		t.Fatalf("migratable mesh: MigrateNow = %v with %d records, want one accepted push", ok, len(recs))
	}
	if recs[0].Pull || recs[0].BytesMoved < 256<<10 {
		t.Fatalf("push record %+v, want a push moving at least 256KiB", recs[0])
	}
}

// TestBuildDefaultsMatchRun: Build applies Run's defaults in place, so
// the built topology is the one Run reports.
func TestBuildDefaultsMatchRun(t *testing.T) {
	for _, in := range []Config{{Nodes: 12}, {Nodes: 3, Partitions: 5}, {Nodes: 1, Partitions: -1}} {
		cfg := in
		m := Build(&cfg)
		s := Run(in)
		if cfg.Nodes != s.Nodes || cfg.Partitions != s.Partitions {
			t.Fatalf("%+v: Build defaulted to %d nodes x %d partitions, Run reported %dx%d",
				in, cfg.Nodes, cfg.Partitions, s.Nodes, s.Partitions)
		}
		if len(m.Nodes) != cfg.Nodes || len(m.Clients) != cfg.Nodes || m.Cluster.Partitions() != cfg.Partitions {
			t.Fatalf("%+v: built %d nodes, %d clients, %d partitions; want %d, %d, %d", in,
				len(m.Nodes), len(m.Clients), m.Cluster.Partitions(), cfg.Nodes, cfg.Nodes, cfg.Partitions)
		}
	}
}
