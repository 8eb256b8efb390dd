package bench

import (
	"strings"
	"testing"
)

// TestGoldenReplaySubset is the tier-1 slice of the golden-replay
// harness: a fault-schedule experiment (epoch fingerprints), a
// multi-cluster sweep, and the faulted-PDES mesh (window-boundary
// barrier arms + partition-local arms), quick mode, serial vs parallel
// sweep. The full registry runs under `ipipe-bench -check all`.
func TestGoldenReplaySubset(t *testing.T) {
	rep, err := GoldenReplay([]string{"faults-availability", "fig17", "faults-pdes"}, Options{Quick: true},
		[]ReplayVariant{{Parallel: 4}})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Clusters == 0 || rep.Checks == 0 {
		t.Fatalf("replay checked nothing: %+v", rep)
	}
	if !rep.OK() {
		var buf strings.Builder
		rep.Fprint(&buf)
		t.Fatal(buf.String())
	}
}

func TestGoldenReplayUnknownID(t *testing.T) {
	if _, err := GoldenReplay([]string{"no-such-experiment"}, Options{}, []ReplayVariant{{Parallel: 2}}); err == nil {
		t.Fatal("unknown experiment id accepted")
	}
}
