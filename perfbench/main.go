// Command perfbench is the repository benchmark. It runs one workload
// (mesh-pdes, rkv-nic or sched-tail) built from the simulator's public
// constructors, checks its outputs, and prints one JSON object as the
// last line of standard output:
//
//	{"correct":…, "attempted":…, "failed":…, "metrics":{name:{"value":…,"unit":…}}}
//
// With -trace 0 the metrics are the end-to-end ones, measured on
// untraced runs; with -trace 1 they are the per-layer ones, from
// separate profiled and traced runs. Host time (what the simulator costs
// its user) is wall-clock; virtual time (what the modelled iPipe design
// takes) is a pure function of the seed, so every sim_* figure must be
// identical across the repetitions of one invocation.
//
// Run it through run.py, which builds this package and keeps the Go
// build cache inside the checkout:
//
//	python3 perfbench/run.py --workload rkv-nic --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
)

func main() {
	name := flag.String("workload", "", "workload: mesh-pdes, rkv-nic or sched-tail")
	seed := flag.Uint64("seed", 1, "workload seed")
	seconds := flag.Float64("seconds", 10, "host seconds spent on timed repetitions")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics")
	work := flag.String("work", ".bench_build", "directory for profiles")
	flag.Parse()

	w, ok := findWorkload(*name)
	if !ok || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "usage: perfbench -workload {%s} -seed n -seconds s -trace {0|1}\n", strings.Join(workloadNames(), "|"))
		os.Exit(2)
	}
	fmt.Printf("machine num_cpu=%d gomaxprocs=%d go=%s\n", runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())

	res, err := measure(w, *seed, *seconds, *trace == 1, *work)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	for _, line := range res.notes {
		fmt.Println(line)
	}
	out, err := json.Marshal(res.report())
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
	if !res.correct {
		os.Exit(1)
	}
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return names
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is what one invocation reports.
type result struct {
	correct           bool
	attempted, failed uint64
	metrics           map[string]metric
	notes             []string
}

func (r *result) set(name string, v float64, unit string) { r.metrics[name] = metric{v, unit} }

func (r *result) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// fail records a failed check; the invocation then exits nonzero.
func (r *result) fail(format string, args ...any) {
	r.correct = false
	r.notef("FAIL "+format, args...)
}

func (r *result) report() any {
	return struct {
		Correct   bool              `json:"correct"`
		Attempted uint64            `json:"attempted"`
		Failed    uint64            `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.correct, r.attempted, r.failed, r.metrics}
}

// sortedKeys returns m's keys in order.
func sortedKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
