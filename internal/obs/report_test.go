package obs

import (
	"bytes"
	"strings"
	"testing"
)

func sampleReport() *Report {
	return &Report{
		Version:    ReportVersion,
		Seed:       1,
		Quick:      true,
		GoMaxProcs: 4,
		Experiments: []ExperimentSummary{{
			ID:  "fig17",
			Ops: 11572,
			SojournUs: HistSummary{
				Count: 11572, MeanUs: 1.24, P50Us: 0.84, P99Us: 2.83, MaxUs: 4.59,
			},
			Watermarks:    map[string]float64{"host_backlog": 3, "host_cores_used": 2.64},
			Counters:      map[string]uint64{"host_completed": 11572},
			TimelineTotal: 7,
			Handoffs:      0,
			Rounds:        0,
			WallMS:        68.2,
			Events:        81411,
			EventsPerSec:  1.19e6,
			Allocs:        259545,
			AllocBytes:    30219024,
		}, {
			ID:        "scale-nodes",
			Ops:       2733,
			SojournUs: HistSummary{Count: 2733, MeanUs: 2.076, P50Us: 2.076, P99Us: 2.076, MaxUs: 2.076},
			Counters:  map[string]uint64{"nic_completed": 2733},
			Handoffs:  9556,
			Rounds:    528,
			Events:    61000,
			Allocs:    100000,
		}},
	}
}

func TestReportRoundTrip(t *testing.T) {
	rep := sampleReport()
	var buf bytes.Buffer
	if err := rep.WriteReport(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadReport(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if bad := CompareReports(rep, back, GateOptions{}); len(bad) != 0 {
		t.Fatalf("round-tripped report fails its own gate: %v", bad)
	}
	// Determinism of the bytes themselves.
	var buf2 bytes.Buffer
	if err := rep.WriteReport(&buf2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Fatal("identical report marshalled to different bytes")
	}
	// Version skew is rejected at read time.
	skew := strings.Replace(buf.String(), `"version": 1`, `"version": 999`, 1)
	if _, err := ReadReport(strings.NewReader(skew)); err == nil {
		t.Fatal("ReadReport accepted a future schema version")
	}
}

// expectFail asserts the gate reports at least one regression whose text
// mentions want.
func expectFail(t *testing.T, base, cur *Report, want string) {
	t.Helper()
	bad := CompareReports(base, cur, GateOptions{})
	if len(bad) == 0 {
		t.Fatalf("gate passed, want a regression mentioning %q", want)
	}
	for _, line := range bad {
		if strings.Contains(line, want) {
			return
		}
	}
	t.Fatalf("no regression mentions %q; got %v", want, bad)
}

// TestCompareReportsSyntheticRegressions is the -baseline contract: a
// run identical to the baseline passes, and each class of injected
// drift fails with an explanatory line.
func TestCompareReportsSyntheticRegressions(t *testing.T) {
	base := sampleReport()

	if bad := CompareReports(base, sampleReport(), GateOptions{}); len(bad) != 0 {
		t.Fatalf("identical reports must pass the gate, got %v", bad)
	}

	cur := sampleReport()
	cur.Experiments[0].Ops += 13 // deterministic drift, either direction
	expectFail(t, base, cur, "ops")

	cur = sampleReport()
	cur.Experiments[0].SojournUs.P99Us *= 0.9 // improvement still fails: behavior changed
	expectFail(t, base, cur, "p99")

	cur = sampleReport()
	cur.Experiments[1].Handoffs--
	expectFail(t, base, cur, "handoffs")

	cur = sampleReport()
	cur.Experiments[0].Counters["host_completed"] += 1
	expectFail(t, base, cur, "host_completed")

	cur = sampleReport()
	cur.Experiments[0].Watermarks["host_backlog"] = 11
	expectFail(t, base, cur, "host_backlog")

	cur = sampleReport()
	cur.Experiments[0].Allocs = cur.Experiments[0].Allocs * 6 / 5 // past the 1.1x band
	expectFail(t, base, cur, "allocs")

	cur = sampleReport()
	cur.Experiments[0].Allocs = cur.Experiments[0].Allocs * 21 / 20 // inside the band
	if bad := CompareReports(base, cur, GateOptions{}); len(bad) != 0 {
		t.Fatalf("1.05x allocs is inside the default 1.1x band, got %v", bad)
	}
	cur.Experiments[0].Allocs = base.Experiments[0].Allocs / 2 // shrinking never fails
	if bad := CompareReports(base, cur, GateOptions{}); len(bad) != 0 {
		t.Fatalf("fewer allocs must pass, got %v", bad)
	}

	cur = sampleReport()
	cur.Experiments = cur.Experiments[:1] // baseline experiment missing
	expectFail(t, base, cur, "missing")

	cur = sampleReport()
	cur.Seed = 2 // different run shape is not comparable
	expectFail(t, base, cur, "not comparable")

	cur = sampleReport()
	cur.Experiments[0].WallMS = base.Experiments[0].WallMS * 10
	if bad := CompareReports(base, cur, GateOptions{}); len(bad) != 0 {
		t.Fatalf("wall time is not gated by default, got %v", bad)
	}
	expectFail2 := CompareReports(base, cur, GateOptions{GateWall: true})
	if len(expectFail2) == 0 {
		t.Fatal("GateWall must fail a 10x wall regression")
	}
}
