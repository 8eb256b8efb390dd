package bench

// Golden-fingerprint replay: rerun registered experiments with the
// runtime invariant checker attached to every cluster they build, then
// byte-compare the invariant fingerprints (per-epoch and final counter
// snapshots, see internal/invariant) between a reference run and each
// variant of the same experiment at the same seed. A variant changes
// only parallelism — sweep points fanned across goroutines, or
// partition windows executed by several workers — so any divergence
// means a parallel path changed simulation behavior: exactly the class
// of bug a performance-focused refactor can introduce silently.

import (
	"fmt"
	"io"
	"sync"

	"repro/internal/core"
	"repro/internal/invariant"
)

// ReplayVariant is one determinism axis point compared against the
// reference run (serial sweep, serial window merge). Parallel sets the
// sweep-point workers, PDESWorkers the goroutines executing one
// partitioned cluster's windows; 0 leaves that axis serial.
type ReplayVariant struct {
	Parallel    int
	PDESWorkers int
}

func (v ReplayVariant) String() string {
	return fmt.Sprintf("parallel=%d pdes-workers=%d", max(v.Parallel, 1), max(v.PDESWorkers, 1))
}

// ReplayReport summarizes a GoldenReplay sweep.
type ReplayReport struct {
	// Experiments and Runs count experiment ids and individual checked
	// runs (each id runs at two seeds × (reference + variants)).
	Experiments int
	Runs        int
	// Clusters counts clusters that had a checker attached; Checks the
	// individual invariant evaluations across all of them.
	Clusters int
	Checks   uint64
	// Violations holds every invariant violation observed, annotated
	// with the run that produced it.
	Violations []string
	// Mismatches lists variant runs whose fingerprints differ from the
	// reference byte-for-byte.
	Mismatches []string
}

// OK reports whether the replay saw no violations and no mismatches.
func (r *ReplayReport) OK() bool {
	return len(r.Violations) == 0 && len(r.Mismatches) == 0
}

// Fprint renders the report.
func (r *ReplayReport) Fprint(w io.Writer) {
	fmt.Fprintf(w, "golden replay: %d experiments, %d runs, %d checked clusters, %d invariant checks\n",
		r.Experiments, r.Runs, r.Clusters, r.Checks)
	for _, v := range r.Violations {
		fmt.Fprintf(w, "  VIOLATION %s\n", v)
	}
	for _, m := range r.Mismatches {
		fmt.Fprintf(w, "  MISMATCH  %s\n", m)
	}
	if r.OK() {
		fmt.Fprintln(w, "  all invariants hold; every variant's fingerprints match the reference")
	}
}

// checkedRun executes one experiment with an invariant checker attached
// to every cluster it builds, adds its counts and violations to the
// report, and returns the run's combined fingerprint (per-cluster
// fingerprints sorted, so cluster creation order — which a parallel
// sweep does not fix — cannot affect the comparison).
func (r *ReplayReport) checkedRun(id, tag string, opts Options) (string, error) {
	var mu sync.Mutex
	var byCluster [][]*invariant.Checker
	core.SetDefaultObserver(func(c *core.Cluster) {
		// One checker per engine partition: a partitioned cluster's
		// conservation ledgers live at partition granularity (handoff
		// counters reconcile the cross-partition packets); a classic
		// cluster gets the usual single checker. Grouping per cluster
		// lets the post-run cross-partition reconciliation below sum one
		// cluster's ledgers without mixing clusters from a sweep.
		cchks := c.AttachCheckers()
		mu.Lock()
		byCluster = append(byCluster, cchks)
		mu.Unlock()
	})
	_, err := Run(id, opts)
	core.SetDefaultObserver(nil)
	if err != nil {
		return "", err
	}
	r.Runs++
	var fps []string
	for _, cchks := range byCluster {
		// Cross-partition handoff reconciliation: after a drained run,
		// one cluster's outbound and inbound handoff ledgers must agree
		// (skipped automatically when events are still pending).
		invariant.CrossCheckHandoffs(cchks)
		for _, chk := range cchks {
			chk.Finish()
			r.Checks += chk.Checks()
			for _, v := range chk.Violations() {
				r.Violations = append(r.Violations, fmt.Sprintf("%s %s: %s", id, tag, v.String()))
			}
			fps = append(fps, chk.Fingerprint())
		}
		r.Clusters += len(cchks)
	}
	return invariant.SortFingerprints(fps), nil
}

// GoldenReplay runs each experiment id at two seeds (opts.Seed and
// opts.Seed+1): once as the reference (Parallel=1, PDESWorkers=1) and
// once per variant, checking invariants throughout and byte-comparing
// each variant's fingerprint with the reference's per (id, seed).
// Experiments that build no clusters (the raw device characterizations)
// contribute empty — trivially equal — fingerprints, and classic
// experiments run identically under a PDES variant (a no-regression
// control). GoldenReplay installs the process-wide cluster observer
// hook, so it must not run concurrently with other harness users.
func GoldenReplay(ids []string, opts Options, variants []ReplayVariant) (*ReplayReport, error) {
	rep := &ReplayReport{}
	for _, id := range ids {
		rep.Experiments++
		for _, seed := range []uint64{opts.seed(), opts.seed() + 1} {
			ref := opts
			ref.Seed, ref.Parallel, ref.PDESWorkers = seed, 1, 1
			fp, err := rep.checkedRun(id, fmt.Sprintf("seed=%d reference", seed), ref)
			if err != nil {
				return nil, err
			}
			for _, v := range variants {
				run := ref
				run.Parallel, run.PDESWorkers = max(v.Parallel, 1), max(v.PDESWorkers, 1)
				vfp, err := rep.checkedRun(id, fmt.Sprintf("seed=%d %v", seed, v), run)
				if err != nil {
					return nil, err
				}
				if vfp != fp {
					rep.Mismatches = append(rep.Mismatches,
						fmt.Sprintf("%s seed=%d: %v fingerprints differ from the reference", id, seed, v))
				}
			}
		}
	}
	return rep, nil
}
