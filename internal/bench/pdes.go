package bench

// scale-nodes: the experiment family the parallel (PDES) engine exists
// for. The paper's testbed tops out at 8 SmartNIC nodes; this sweep
// blows the RKV-shaped workload up to hundreds of nodes — one echo-RPC
// actor per NIC, one closed-loop client per node, Zipf-skewed
// destinations — and shards the simulation across engine partitions.
// The registered experiment reports only deterministic quantities
// (ops, percentiles, event and handoff counts), so its table is
// byte-identical at any sweep or window worker count; wall-clock
// speedup is measured separately by PDESBench, whose report is the
// BENCH_pdes.json artifact.

import (
	"runtime"

	"repro/internal/mesh"
	"repro/internal/sim"
)

func init() {
	register("scale-nodes", "Scale-out node sweep on the partitioned engine (beyond the paper's 8-node testbed)", runScaleNodes)
}

// scaleNodeSizes picks the sweep's node counts.
func scaleNodeSizes(opts Options) []int {
	if opts.Quick {
		return []int{8, 16}
	}
	return []int{16, 64, 128, 256}
}

func scaleWindow(opts Options) sim.Time {
	if opts.Quick {
		return 300 * sim.Microsecond
	}
	return sim.Millisecond
}

func runScaleNodes(opts Options) *Result {
	r := &Result{Header: []string{"nodes", "partitions", "ops", "tput_kops", "p50_us", "p99_us", "events", "crossed", "rounds"}}
	sizes := scaleNodeSizes(opts)
	runs := sweepMap(opts, len(sizes), func(i int) mesh.Stats {
		return mesh.Run(mesh.Config{
			Nodes:      sizes[i],
			Partitions: opts.PDESParts, // 0 takes mesh's default, min(8, nodes)
			Workers:    opts.PDESWorkers,
			Seed:       opts.seed(),
			Window:     scaleWindow(opts),
		})
	})
	for _, s := range runs {
		r.Add(s.Nodes, s.Partitions, s.Ops, s.TputKops, s.P50us, s.P99us, s.Events, s.Crossed, s.Rounds)
	}
	r.Note("closed-loop echo-RPC mesh: one NIC-pinned actor + one depth-2 client per node, Zipf(0.99) destinations")
	r.Note("deterministic columns only — wall-clock speedup is reported by the separate PDES bench artifact")
	return r
}

// PDESBenchEntry is one (size, workers) measurement of the speedup
// matrix.
type PDESBenchEntry struct {
	Nodes      int     `json:"nodes"`
	Partitions int     `json:"partitions"`
	Workers    int     `json:"workers"`
	Ops        uint64  `json:"ops"`
	Events     uint64  `json:"events"`
	WallMS     float64 `json:"wall_ms"`
	// EventsPerSec is the engine's event throughput for this run.
	EventsPerSec float64 `json:"events_per_sec"`
	// Speedup is the workers=1 wall-clock of the same (nodes,
	// partitions) point divided by this run's (1.0 for the baseline).
	Speedup float64 `json:"speedup"`
	// FingerprintOK reports that this run's per-partition invariant
	// fingerprints byte-match the workers=1 baseline — the determinism
	// contract holding at speed.
	FingerprintOK bool `json:"fingerprint_ok"`
}

// PDESBenchReport is the BENCH_pdes.json artifact: the parallel
// engine's wall-clock behavior on this machine, with the environment
// recorded so a single-core result is not mistaken for a scaling one.
type PDESBenchReport struct {
	GOMAXPROCS int              `json:"gomaxprocs"`
	NumCPU     int              `json:"num_cpu"`
	Seed       uint64           `json:"seed"`
	Quick      bool             `json:"quick"`
	Note       string           `json:"note"`
	Entries    []PDESBenchEntry `json:"entries"`
}

// PDESBench measures the speedup matrix: for every mesh size, a
// workers=1 baseline and then each requested worker count, all on the
// same seed and partition count, each run's fingerprint compared with
// the baseline's (PDESBenchEntry.FingerprintOK). Speedup > 1 requires
// GOMAXPROCS > 1; on one core the barrier overhead makes it ≤ 1 by
// construction.
func PDESBench(opts Options, sizes, workerCounts []int) *PDESBenchReport {
	if len(sizes) == 0 {
		sizes = scaleNodeSizes(opts)
	}
	if len(workerCounts) == 0 {
		workerCounts = []int{2, 4, 8}
	}
	rep := &PDESBenchReport{
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		Seed:       opts.seed(),
		Quick:      opts.Quick,
		Note:       "speedup is relative to the serial window merge (workers=1) at identical results; it needs as many cores as workers to exceed 1",
	}
	window := scaleWindow(opts)
	for _, n := range sizes {
		cfg := mesh.Config{
			Nodes:      n,
			Partitions: opts.PDESParts,
			Seed:       opts.seed(),
			Window:     window,
			Check:      true,
		}
		cfg.Workers = 1
		base := mesh.Run(cfg)
		baseEntry := PDESBenchEntry{
			Nodes: base.Nodes, Partitions: base.Partitions, Workers: 1,
			Ops: base.Ops, Events: base.Events,
			WallMS:        float64(base.Wall.Microseconds()) / 1e3,
			Speedup:       1,
			FingerprintOK: true,
		}
		if s := base.Wall.Seconds(); s > 0 {
			baseEntry.EventsPerSec = float64(base.Events) / s
		}
		rep.Entries = append(rep.Entries, baseEntry)
		for _, w := range workerCounts {
			if w <= 1 {
				continue
			}
			cfg.Workers = w
			run := mesh.Run(cfg)
			e := PDESBenchEntry{
				Nodes: run.Nodes, Partitions: run.Partitions, Workers: w,
				Ops: run.Ops, Events: run.Events,
				WallMS:        float64(run.Wall.Microseconds()) / 1e3,
				FingerprintOK: run.Fingerprint == base.Fingerprint && run.Violations == 0,
			}
			if s := run.Wall.Seconds(); s > 0 {
				e.EventsPerSec = float64(run.Events) / s
			}
			if run.Wall > 0 {
				e.Speedup = float64(base.Wall) / float64(run.Wall)
			}
			rep.Entries = append(rep.Entries, e)
		}
	}
	return rep
}
