// Command ipipe-bench regenerates the paper's tables and figures.
//
// Usage:
//
//	ipipe-bench [-quick] [-seed N] [-parallel N] [-json] [experiment ...]
//
// With no arguments it lists the available experiment ids; "all" runs
// everything in paper order. Output is one aligned text table per
// experiment, with notes comparing against the numbers the paper
// reports. -json emits one NDJSON record per experiment instead,
// including wall time and simulated-event throughput. -cpuprofile and
// -memprofile write pprof profiles of the run, in every mode.
//
// -check replaces the normal run with a golden-fingerprint replay: each
// experiment runs at two seeds with the runtime invariant checker
// attached to every cluster, once as a serial reference and once per
// variant — a parallel sweep at -parallel workers and, with -pdes, one
// window-parallel run per -pdes-workers count. Every variant's invariant
// fingerprints must match the reference's byte-for-byte and no
// invariant may be violated. Exits nonzero otherwise.
//
// -qos selects the qos-* experiment family (multi-tenant lanes,
// admission, SLO controller).
//
// -pdes N shards partition-aware experiments (the scale-nodes family)
// across N engine partitions, executed by -parallel window workers.
// -pdes-bench FILE writes the wall-clock speedup matrix
// (per size × worker count, with fingerprint certification and the
// machine's core count) as a JSON artifact.
//
// -report FILE re-runs a small experiment set (default: fig17 and
// scale-nodes; override with explicit ids) with tracing and metrics
// attached and writes the versioned run-summary artifact: merged
// sojourn histograms, gauge watermarks, scheduler timelines, counter
// totals, PDES handoff/round counts, and allocation cost. -baseline
// FILE compares the same summary against a stored artifact
// (BENCH_obs.json) and exits nonzero on any regression: deterministic
// fields must match exactly, allocation cost may not grow past its
// band. The two flags combine (write and gate in one run).
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/sim"
)

func main() { os.Exit(run(os.Args[1:])) }

// run is the command: it parses args, runs the selected mode and
// returns the exit code. Profiling brackets every mode, and the
// profiles are flushed on every return path, failures included.
func run(args []string) (code int) {
	fs := flag.NewFlagSet("ipipe-bench", flag.ContinueOnError)
	quick := fs.Bool("quick", false, "trim sweeps and windows for a fast run")
	csvOut := fs.Bool("csv", false, "emit CSV instead of aligned tables")
	jsonOut := fs.Bool("json", false, "emit one NDJSON record per experiment")
	seed := fs.Uint64("seed", 1, "simulation seed")
	parallel := fs.Int("parallel", runtime.GOMAXPROCS(0), "sweep-point worker count (1 = serial)")
	list := fs.Bool("list", false, "list experiment ids and exit")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile to `file`")
	memprofile := fs.String("memprofile", "", "write a heap profile to `file`")
	traceFile := fs.String("trace", "", "write a Chrome trace of every simulated cluster to `file` (forces -parallel 1)")
	metricsFile := fs.String("metrics", "", "write NDJSON metric snapshots to `file` (forces -parallel 1)")
	metricsInterval := fs.Duration("metrics-interval", 100*time.Microsecond, "metric snapshot interval (virtual time)")
	check := fs.Bool("check", false, "golden replay: run with invariant checking at two seeds, serial reference vs parallel variants, and compare fingerprints")
	qosAxis := fs.Bool("qos", false, "run the qos-* experiment family")
	pdes := fs.Int("pdes", 0, "engine partition count for partition-aware experiments (0 = their defaults); with -check, adds one replay variant per -pdes-workers count")
	pdesBench := fs.String("pdes-bench", "", "write the PDES speedup matrix (JSON) to `file` and exit ('-' for stdout)")
	pdesNodes := fs.String("pdes-nodes", "", "comma-separated mesh sizes for -pdes-bench (default: the scale-nodes sweep sizes)")
	pdesWorkers := fs.String("pdes-workers", "2,4,8", "comma-separated window worker counts for -pdes-bench and -check -pdes")
	reportFile := fs.String("report", "", "write the observed-run summary artifact (JSON) to `file` ('-' for stdout)")
	baselineFile := fs.String("baseline", "", "compare the observed-run summary against the artifact in `file`; exit nonzero on regression")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	stop, err := startProfiles(*cpuprofile, *memprofile)
	if err != nil {
		return fail(err)
	}
	defer func() {
		if err := stop(); err != nil && code == 0 {
			code = fail(err)
		}
	}()

	windowWorkers, err := intList(*pdesWorkers)
	if err != nil {
		return fail(fmt.Errorf("-pdes-workers: %w", err))
	}
	if *pdesBench != "" {
		opts := bench.Options{Quick: *quick, Seed: *seed, PDESParts: *pdes}
		sizes, err := intList(*pdesNodes)
		if err != nil {
			return fail(fmt.Errorf("-pdes-nodes: %w", err))
		}
		rep := bench.PDESBench(opts, sizes, windowWorkers)
		err = writeTo(*pdesBench, func(w io.Writer) error {
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			return enc.Encode(rep)
		})
		if err != nil {
			return fail(err)
		}
		for _, e := range rep.Entries {
			if !e.FingerprintOK {
				return fail(fmt.Errorf("pdes-bench: nodes=%d workers=%d diverged from the serial merge", e.Nodes, e.Workers))
			}
		}
		return 0
	}

	if *reportFile != "" || *baselineFile != "" {
		opts := bench.Options{Quick: *quick, Seed: *seed,
			PDESParts: *pdes, PDESWorkers: *parallel}
		rep, err := bench.ObsReport(opts, fs.Args())
		if err != nil {
			return fail(err)
		}
		if *reportFile != "" {
			if err := writeTo(*reportFile, rep.WriteReport); err != nil {
				return fail(err)
			}
			if *reportFile != "-" {
				fmt.Fprintf(os.Stderr, "report: %d experiments -> %s\n",
					len(rep.Experiments), *reportFile)
			}
		}
		if *baselineFile != "" {
			f, err := os.Open(*baselineFile)
			if err != nil {
				return fail(err)
			}
			base, err := obs.ReadReport(f)
			f.Close()
			if err != nil {
				return fail(err)
			}
			if bad := obs.CompareReports(base, rep, obs.GateOptions{}); len(bad) > 0 {
				for _, line := range bad {
					fmt.Fprintln(os.Stderr, "obs-gate: REGRESSION:", line)
				}
				fmt.Fprintf(os.Stderr, "obs-gate: FAIL (%d regressions vs %s)\n", len(bad), *baselineFile)
				return 1
			}
			fmt.Fprintf(os.Stderr, "obs-gate: OK (%d experiments vs %s)\n",
				len(base.Experiments), *baselineFile)
		}
		return 0
	}

	ids := fs.Args()
	if *qosAxis && len(ids) == 0 {
		ids = bench.QoSExperimentIDs()
	}
	if *list || len(ids) == 0 {
		fmt.Println("experiments (run with: ipipe-bench [ids...] or 'all'):")
		for _, id := range bench.IDs() {
			fmt.Printf("  %-8s %s\n", id, bench.Title(id))
		}
		return 0
	}
	if len(ids) == 1 && ids[0] == "all" {
		ids = bench.IDs()
	}

	if *check {
		if *traceFile != "" || *metricsFile != "" {
			return fail(fmt.Errorf("-check cannot be combined with -trace/-metrics (both claim the cluster observer hook)"))
		}
		sweep := *parallel
		if sweep < 2 {
			sweep = 4 // a serial sweep would only replay the reference
		}
		variants := []bench.ReplayVariant{{Parallel: sweep}}
		if *pdes > 0 {
			for _, w := range windowWorkers {
				variants = append(variants, bench.ReplayVariant{PDESWorkers: w})
			}
		}
		opts := bench.Options{Quick: *quick, Seed: *seed, PDESParts: *pdes}
		rep, err := bench.GoldenReplay(ids, opts, variants)
		if err != nil {
			return fail(err)
		}
		rep.Fprint(os.Stdout)
		if !rep.OK() {
			return 1
		}
		return 0
	}

	// Observability: one tracer shared across every cluster the sweep
	// builds (groups prefixed r00/, r01/, ...), one collector per cluster
	// (each is bound to its engine) concatenated into one NDJSON stream.
	// Sweep points must then run serially: parallel workers would race on
	// the shared tracer and scramble registration order.
	// Sweep parallelism must drop to 1, but PDES window workers stay:
	// sinks are sharded per partition, so window-parallel execution
	// cannot perturb the artifacts.
	pdesW := *parallel
	var tracer *obs.Tracer
	var collectors []*obs.Collector
	if *traceFile != "" || *metricsFile != "" {
		if *parallel != 1 {
			fmt.Fprintln(os.Stderr, "ipipe-bench: -trace/-metrics force -parallel 1")
			*parallel = 1
		}
		if *traceFile != "" {
			tracer = obs.NewTracer()
		}
		run := 0
		core.SetDefaultObserver(func(c *core.Cluster) {
			prefix := fmt.Sprintf("r%02d/", run)
			run++
			if tracer != nil {
				c.EnableTracingPrefixed(tracer, prefix)
			}
			if *metricsFile != "" {
				col := obs.NewCollector(c.Eng, sim.Time(metricsInterval.Nanoseconds()))
				collectors = append(collectors, col)
				c.EnableMetricsPrefixed(col, prefix)
				col.Start()
			}
		})
		defer core.SetDefaultObserver(nil)
	}

	opts := bench.Options{Quick: *quick, Seed: *seed, Parallel: *parallel,
		PDESParts: *pdes, PDESWorkers: pdesW}
	for _, id := range ids {
		r, err := bench.Run(id, opts)
		if err != nil {
			return fail(err)
		}
		switch {
		case *jsonOut:
			if err := r.FprintJSON(os.Stdout, opts); err != nil {
				return fail(err)
			}
		case *csvOut:
			r.FprintCSV(os.Stdout)
			fmt.Println()
		default:
			r.Fprint(os.Stdout)
			fmt.Println()
		}
	}

	if tracer != nil {
		if err := writeTo(*traceFile, tracer.WriteChromeTrace); err != nil {
			return fail(err)
		}
		fmt.Fprintf(os.Stderr, "trace: %d spans on %d tracks -> %s\n",
			tracer.Spans(), tracer.Tracks(), *traceFile)
	}
	if *metricsFile != "" {
		err := writeTo(*metricsFile, func(w io.Writer) error {
			for _, col := range collectors {
				col.Snapshot() // end-state record per cluster
				if err := col.WriteNDJSON(w); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return fail(err)
		}
		fmt.Fprintf(os.Stderr, "metrics: %d clusters -> %s\n", len(collectors), *metricsFile)
	}

	return 0
}

// fail reports err and returns the failure exit code.
func fail(err error) int {
	fmt.Fprintln(os.Stderr, "ipipe-bench:", err)
	return 1
}

// startProfiles starts the CPU profile and returns the function that
// stops it and writes the heap profile; either file may be "".
func startProfiles(cpuFile, memFile string) (stop func() error, err error) {
	var cpu *os.File
	if cpuFile != "" {
		if cpu, err = os.Create(cpuFile); err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(cpu); err != nil {
			cpu.Close()
			return nil, err
		}
	}
	return func() error {
		if cpu != nil {
			pprof.StopCPUProfile()
			if err := cpu.Close(); err != nil {
				return err
			}
		}
		if memFile == "" {
			return nil
		}
		runtime.GC()
		return writeTo(memFile, pprof.WriteHeapProfile)
	}, nil
}

// intList parses a comma-separated list of positive ints ("" = nil).
func intList(s string) ([]int, error) {
	if strings.TrimSpace(s) == "" {
		return nil, nil
	}
	var out []int
	for _, f := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil {
			return nil, err
		}
		if v < 1 {
			return nil, fmt.Errorf("value %d out of range", v)
		}
		out = append(out, v)
	}
	return out, nil
}

// writeTo writes an exporter's output to a file ("-" for stdout).
func writeTo(path string, write func(w io.Writer) error) error {
	if path == "-" {
		return write(os.Stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
