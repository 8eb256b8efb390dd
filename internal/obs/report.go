// The run-report layer: a versioned, machine-readable summary of an
// observed experiment suite — per-experiment latency histograms,
// queue-depth watermarks, scheduler-decision timelines, handoff
// counters, and execution cost — plus the comparison gate that turns
// two such artifacts into a pass/fail perf-trajectory check
// (`ipipe-bench -report -baseline BENCH_obs.json`, `make obs-gate`).
//
// Two kinds of field live in a report, gated differently:
//
//   - Deterministic fields (ops, sojourn quantiles, events, counters,
//     watermarks, rounds/handoffs) are pure functions of (seed, code).
//     The gate compares them at a tight relative tolerance: ANY drift
//     means behavior changed, and the baseline must be regenerated
//     intentionally (make obs-baseline), never silently absorbed.
//   - Cost fields (allocs, alloc bytes) wobble with the runtime; the
//     gate applies a multiplicative band and only fails on growth.
//     Wall time is recorded but not gated by default — CI machines are
//     too noisy for it.
package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
)

// ReportVersion is the current artifact schema version. The gate
// refuses to compare artifacts across versions.
const ReportVersion = 1

// Report is the top-level run-summary artifact (BENCH_obs.json).
type Report struct {
	Version     int                 `json:"version"`
	Seed        uint64              `json:"seed"`
	Quick       bool                `json:"quick"`
	GoMaxProcs  int                 `json:"gomaxprocs"`
	Note        string              `json:"note,omitempty"`
	Experiments []ExperimentSummary `json:"experiments"`
}

// HistSummary is a histogram's frozen five-number summary.
type HistSummary struct {
	Count  uint64  `json:"count"`
	MeanUs float64 `json:"mean_us"`
	P50Us  float64 `json:"p50_us"`
	P99Us  float64 `json:"p99_us"`
	MaxUs  float64 `json:"max_us"`
}

// SummarizeHistogram freezes a histogram into its report form. A nil
// histogram summarizes to the zero value.
func SummarizeHistogram(h *Histogram) HistSummary {
	if h == nil {
		return HistSummary{}
	}
	return HistSummary{
		Count:  h.Count(),
		MeanUs: h.Mean(),
		P50Us:  h.Quantile(0.50),
		P99Us:  h.Quantile(0.99),
		MaxUs:  h.Max(),
	}
}

// TimelineEvent is one scheduler decision (mode switch, migration,
// autoscale move) on an experiment's timeline.
type TimelineEvent struct {
	TUs   float64 `json:"t_us"`
	Group string  `json:"group"`
	Name  string  `json:"name"`
}

// ExperimentSummary is one experiment's entry in a Report.
type ExperimentSummary struct {
	ID string `json:"id"`
	// Ops is the completed-operation total (NIC + host) across every
	// cluster the experiment built.
	Ops uint64 `json:"ops"`
	// SojournUs summarizes the merged per-node request-sojourn
	// histograms.
	SojournUs HistSummary `json:"sojourn_us"`
	// Watermarks holds the maximum sampled value per gauge name (queue
	// backlogs, core counts) across the run.
	Watermarks map[string]float64 `json:"watermarks,omitempty"`
	// Timeline holds the first scheduler decisions (bounded; see
	// TimelineTotal for the full count).
	Timeline      []TimelineEvent `json:"timeline,omitempty"`
	TimelineTotal int             `json:"timeline_total"`
	// Counters holds the end-of-run counter totals per metric name.
	Counters map[string]uint64 `json:"counters,omitempty"`
	// Handoffs/Rounds aggregate PDES cross-partition crossings and
	// synchronization windows over the experiment's partitioned
	// clusters (0 for classic experiments).
	Handoffs uint64 `json:"handoffs"`
	Rounds   uint64 `json:"rounds"`
	// Execution cost. WallMS and EventsPerSec vary run to run; Events
	// is deterministic; Allocs/AllocBytes are near-deterministic and
	// gated with a band.
	WallMS       float64 `json:"wall_ms"`
	Events       uint64  `json:"events"`
	EventsPerSec float64 `json:"events_per_sec"`
	Allocs       uint64  `json:"allocs"`
	AllocBytes   uint64  `json:"alloc_bytes"`
}

// WriteReport renders the artifact as indented JSON. encoding/json
// sorts map keys, so the bytes are deterministic for identical
// contents.
func (r *Report) WriteReport(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// ReadReport parses an artifact and checks its schema version.
func ReadReport(rd io.Reader) (*Report, error) {
	var r Report
	if err := json.NewDecoder(rd).Decode(&r); err != nil {
		return nil, fmt.Errorf("report: %w", err)
	}
	if r.Version != ReportVersion {
		return nil, fmt.Errorf("report: schema version %d, this build reads %d (regenerate the baseline)",
			r.Version, ReportVersion)
	}
	return &r, nil
}

// GateOptions tunes CompareReports.
type GateOptions struct {
	// RelTol is the relative tolerance for deterministic metrics
	// (default 1e-6 — effectively exact, allowing only float
	// formatting slack).
	RelTol float64
	// AllocFactor fails the gate when current allocs exceed baseline ×
	// factor (default 1.1; growth-only, shrinking is never a regression).
	// Allocation counts are nearly deterministic — five repeated quick
	// runs of the committed report spread by under 0.1% — so the band
	// leaves room for scheduler-dependent runtime allocations, not for
	// a hot path that starts allocating again.
	AllocFactor float64
	// GateWall also bands wall time by WallFactor (default off: CI
	// machines are too noisy).
	GateWall   bool
	WallFactor float64
}

func (o GateOptions) relTol() float64 {
	if o.RelTol <= 0 {
		return 1e-6
	}
	return o.RelTol
}

func (o GateOptions) allocFactor() float64 {
	if o.AllocFactor <= 1 {
		return 1.1
	}
	return o.AllocFactor
}

func (o GateOptions) wallFactor() float64 {
	if o.WallFactor <= 1 {
		return 3
	}
	return o.WallFactor
}

// CompareReports checks current against baseline and returns one line
// per regression (empty = gate passes). Deterministic fields must match
// within RelTol in either direction — drift means behavior changed and
// the baseline needs an intentional regen; cost fields fail only on
// growth beyond their band. Experiments present in the baseline but
// missing from the current run fail; extra current experiments are
// ignored (they have no baseline to regress against).
func CompareReports(baseline, current *Report, opt GateOptions) []string {
	var bad []string
	fail := func(format string, args ...any) { bad = append(bad, fmt.Sprintf(format, args...)) }

	if baseline.Version != current.Version {
		fail("schema version: baseline %d vs current %d", baseline.Version, current.Version)
		return bad
	}
	if baseline.Quick != current.Quick || baseline.Seed != current.Seed {
		fail("run shape: baseline (quick=%v seed=%d) vs current (quick=%v seed=%d) — not comparable",
			baseline.Quick, baseline.Seed, current.Quick, current.Seed)
		return bad
	}

	cur := map[string]*ExperimentSummary{}
	for i := range current.Experiments {
		cur[current.Experiments[i].ID] = &current.Experiments[i]
	}
	for i := range baseline.Experiments {
		b := &baseline.Experiments[i]
		c, ok := cur[b.ID]
		if !ok {
			fail("%s: in baseline but missing from current run", b.ID)
			continue
		}
		det := func(metric string, want, got float64) {
			if !within(want, got, opt.relTol()) {
				fail("%s: %s drifted: baseline %g vs current %g", b.ID, metric, want, got)
			}
		}
		det("ops", float64(b.Ops), float64(c.Ops))
		det("events", float64(b.Events), float64(c.Events))
		det("sojourn count", float64(b.SojournUs.Count), float64(c.SojournUs.Count))
		det("sojourn p50_us", b.SojournUs.P50Us, c.SojournUs.P50Us)
		det("sojourn p99_us", b.SojournUs.P99Us, c.SojournUs.P99Us)
		det("handoffs", float64(b.Handoffs), float64(c.Handoffs))
		det("rounds", float64(b.Rounds), float64(c.Rounds))
		det("timeline events", float64(b.TimelineTotal), float64(c.TimelineTotal))
		for _, name := range sortedKeys(b.Counters) {
			det("counter "+name, float64(b.Counters[name]), float64(c.Counters[name]))
		}
		for _, name := range sortedKeys(b.Watermarks) {
			det("watermark "+name, b.Watermarks[name], c.Watermarks[name])
		}
		if band := float64(b.Allocs) * opt.allocFactor(); b.Allocs > 0 && float64(c.Allocs) > band {
			fail("%s: allocs regressed: baseline %d, current %d (> %.0f)", b.ID, b.Allocs, c.Allocs, band)
		}
		if band := float64(b.AllocBytes) * opt.allocFactor(); b.AllocBytes > 0 && float64(c.AllocBytes) > band {
			fail("%s: alloc bytes regressed: baseline %d, current %d (> %.0f)", b.ID, b.AllocBytes, c.AllocBytes, band)
		}
		if opt.GateWall {
			if band := b.WallMS * opt.wallFactor(); b.WallMS > 0 && c.WallMS > band {
				fail("%s: wall time regressed: baseline %.1fms, current %.1fms (> %.1fms)",
					b.ID, b.WallMS, c.WallMS, band)
			}
		}
	}
	return bad
}

// within reports |a-b| ≤ tol·max(|a|,|b|) (with exact equality always
// passing, including 0 vs 0).
func within(a, b, tol float64) bool {
	if a == b {
		return true
	}
	scale := math.Max(math.Abs(a), math.Abs(b))
	return math.Abs(a-b) <= tol*scale
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
