package main

import (
	"math"
	"strings"
	"testing"

	"repro/internal/stats"
	"repro/internal/workload"
)

const cpuTraces = `File: perfbench
Type: cpu
Duration: 2.10s, Total samples = 12ms (0.57%)
-----------+-------------------------------------------------------
       5ms   runtime.mallocgc
             repro/internal/sim.(*Engine).At
             repro/internal/netsim.(*Network).Send.func1
-----------+-------------------------------------------------------
       3ms   repro/internal/spec.SerializationDelay (inline)
             repro/internal/netsim.(*Network).Send
             main.runSched.func2
-----------+-------------------------------------------------------
       2ms   repro/internal/apps/rkv.(*Memtable).handle
             repro/internal/core.(*Node).runOnNIC
-----------+-------------------------------------------------------
       1ms   runtime.gcBgMarkWorker
-----------+-------------------------------------------------------
       1ms   main.shiftedExp.Draw
             repro/internal/core.(*Node).runOnNIC
`

const allocTraces = `File: perfbench
Type: alloc_objects
-----------+-------------------------------------------------------
     bytes:  16B
      1000   repro/internal/workload.(*Client).send
             repro/internal/workload.(*Client).ClosedLoopVia.func1
-----------+-------------------------------------------------------
     bytes:  64B
       -20   repro/internal/workload.(*Client).send
-----------+-------------------------------------------------------
     bytes:  1kB
     1.50k   repro/internal/mesh.Run.func1
             repro/internal/core.(*Node).runOnNIC
`

func TestAttributeCPU(t *testing.T) {
	got, err := attribute(cpuTraces)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{"sim": 0.005, "netsim": 0.003, "rkv": 0.002, "gc": 0.001, "core": 0.001}
	assertClose(t, got, want)
}

func TestAttributeAllocs(t *testing.T) {
	got, err := attribute(allocTraces)
	if err != nil {
		t.Fatal(err)
	}
	assertClose(t, got, map[string]float64{"workload": 980, "mesh": 1500})
}

func TestAttributeRejectsGarbage(t *testing.T) {
	if _, err := attribute("-----------+---\n  many   repro/internal/sim.f\n"); err == nil {
		t.Fatal("an unparsable sample value was accepted")
	}
}

func assertClose(t *testing.T, got, want map[string]float64) {
	t.Helper()
	for k, v := range want {
		if math.Abs(got[k]-v) > 1e-9 {
			t.Errorf("%s = %v, want %v (all: %v)", k, got[k], v, got)
		}
	}
	for k := range got {
		if _, ok := want[k]; !ok {
			t.Errorf("unexpected layer %s = %v", k, got[k])
		}
	}
}

func TestLayerOf(t *testing.T) {
	for fn, want := range map[string]string{
		"repro/internal/sim.(*Engine).RunUntil":      "sim",
		"repro/internal/apps/rkv.(*Paxos).OnMessage": "rkv",
		"repro/internal/actor.(*Table).Get":          "",
		"repro/perfbench.runMesh":                    "",
		"runtime.mallocgc":                           "",
	} {
		if got := layerOf(fn); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

// TestPercentileRule checks samplesBeyond against stats.Sample's own
// nearest-rank percentiles, and the highest-percentile rule on top.
func TestPercentileRule(t *testing.T) {
	for _, n := range []uint64{1, 15, 20, 100, 999, 1000, 10000, 10010, 100000} {
		s := stats.NewSample()
		for v := uint64(1); v <= n; v++ {
			s.Observe(float64(v))
		}
		for _, p := range append([]float64{0, 100}, reportedPercentiles...) {
			want := n - uint64(s.Percentile(p)) // values are 1..n
			if got := samplesBeyond(n, p); got != want {
				t.Errorf("samplesBeyond(%d, %v) = %d, want %d", n, p, got, want)
			}
		}
	}
	for _, c := range []struct {
		n       uint64
		highest float64
	}{{0, 0}, {15, 0}, {20, 50}, {100, 90}, {999, 90}, {1000, 99}, {10010, 99.9}, {100100, 99.99}} {
		if got := highestPercentile(c.n, 10); got != c.highest {
			t.Errorf("highestPercentile(%d, 10) = %v, want %v", c.n, got, c.highest)
		}
	}
}

func TestFailedShare(t *testing.T) {
	// Edge-rejected requests are offered but never sent or answered.
	c := &workload.Client{Sent: 90, Rejected: 10, Received: 80}
	if got := failedShare(c.Offered(), c.Received); got != 0.2 {
		t.Fatalf("failedShare = %v, want 0.2", got)
	}
	if got := failedShare(0, 0); got != 0 {
		t.Fatalf("failedShare with nothing offered = %v, want 0", got)
	}
}

const chromeTrace = `{"displayTimeUnit":"ns","traceEvents":[
{"name":"process_name","ph":"M","pid":1,"tid":0,"args":{"name":"srv"}},
{"name":"thread_name","ph":"M","pid":1,"tid":1,"args":{"name":"nic core 0"}},
{"name":"thread_sort_index","ph":"M","pid":1,"tid":1,"args":{"sort_index":0}},
{"name":"thread_name","ph":"M","pid":1,"tid":2,"args":{"name":"host core 0"}},
{"name":"thread_name","ph":"M","pid":1,"tid":3,"args":{"name":"traffic mgr"}},
{"name":"thread_name","ph":"M","pid":1,"tid":4,"args":{"name":"dma"}},
{"name":"thread_name","ph":"M","pid":1,"tid":5,"args":{"name":"link rx"}},
{"name":"a100","cat":"span","ph":"X","ts":1.000,"dur":2.500,"pid":1,"tid":1,"args":{"req":7,"wait_us":0.250}},
{"name":"a100","cat":"span","ph":"X","ts":4.000,"dur":1.000,"pid":1,"tid":1,"args":{"req":8}},
{"name":"a101","cat":"span","ph":"X","ts":4.000,"dur":3.000,"pid":1,"tid":2,"args":{"wait_us":1.000}},
{"name":"admit","cat":"span","ph":"X","ts":0.500,"dur":0.100,"pid":1,"tid":3,"args":{"wait_us":0.050}},
{"name":"to-host","cat":"span","ph":"X","ts":2.000,"dur":0.700,"pid":1,"tid":4,"args":{}},
{"name":"frame","cat":"span","ph":"X","ts":0.100,"dur":0.200,"pid":1,"tid":5,"args":{"bytes":256}},
{"name":"downgrade a101","cat":"sched","ph":"i","s":"t","ts":3.000,"pid":1,"tid":1}
]}
`

func TestBudget(t *testing.T) {
	got, err := budget(strings.NewReader(chromeTrace))
	if err != nil {
		t.Fatal(err)
	}
	assertClose(t, got, map[string]float64{
		"core.nic_exec_us_per_req":     3.5,
		"core.nic_wait_us_per_req":     0.25,
		"core.host_exec_us_per_req":    3,
		"core.host_wait_us_per_req":    1,
		"nicsim.admit_wait_us_per_req": 0.05,
		"pcie.dma_us_per_req":          0.7,
		"netsim.frame_us_per_req":      0.2,
	})
}

// TestRepsAgree runs every workload twice on a tiny window: the
// deterministic fields, latency digest included, must match.
func TestRepsAgree(t *testing.T) {
	for _, w := range workloads {
		o := opts{seed: 3, shrink: 200}
		a, err := w.run(o)
		if err != nil {
			t.Fatal(err)
		}
		b, err := w.run(o)
		if err != nil {
			t.Fatal(err)
		}
		if a.completed == 0 {
			t.Errorf("%s: no request completed", w.name)
		}
		if fa, fb := fingerprint(a), fingerprint(b); fa != fb {
			t.Errorf("%s: reps differ:\n%s\n%s", w.name, fa, fb)
		}
		if a.setup.wall <= 0 || a.host.wall <= 0 || a.host.cpu <= 0 {
			t.Errorf("%s: set-up %v and run %v must both be timed", w.name, a.setup, a.host)
		}
	}
}

// TestMeshMatchesLibrary pins mesh-pdes' topology to mesh.Run's.
func TestMeshMatchesLibrary(t *testing.T) {
	d, err := meshMatchesLibrary(5)
	if err != nil {
		t.Fatal(err)
	}
	if d != "" {
		t.Fatal(d)
	}
}

func TestSpanLogSelfTime(t *testing.T) {
	l := &spanLog{}
	l.spans = []hostSpan{
		{Name: "setup", Parent: -1, Start: 0, End: 10e6},
		{Name: "core.AddNode", Parent: 0, Start: 1e6, End: 3e6},
		{Name: "core.AddNode", Parent: 0, Start: 4e6, End: 5e6},
	}
	want := "core.AddNode x2 3.000ms (self 3.000ms); setup x1 10.000ms (self 7.000ms)"
	if got := l.totals(); got != want {
		t.Fatalf("totals = %q, want %q", got, want)
	}
	var nilLog *spanLog
	nilLog.call("ignored", func() {}) // a nil log records nothing
	live := newSpanLog()
	live.call("outer", func() { live.call("inner", func() {}) })
	if len(live.spans) != 2 || live.spans[1].Parent != 0 || live.spans[0].Parent != -1 {
		t.Fatalf("nesting not recorded: %+v", live.spans)
	}
}

// TestScaledDownRunMatches checks the gate's comparison of a scaled-down
// sched-tail run with the matching clusters of a larger one.
func TestScaledDownRunMatches(t *testing.T) {
	one, err := schedTail.run(opts{seed: 3, shrink: schedTail.runs})
	if err != nil {
		t.Fatal(err)
	}
	two, err := schedTail.run(opts{seed: 3, shrink: schedTail.runs / 2})
	if err != nil {
		t.Fatal(err)
	}
	other, err := schedTail.run(opts{seed: 4, shrink: schedTail.runs / 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(one.parts) != 1 || len(two.parts) != 2 {
		t.Fatalf("got %d and %d clusters, want 1 and 2", len(one.parts), len(two.parts))
	}
	if !sameRun(one, two) {
		t.Error("a one-cluster run differs from the first cluster of a two-cluster run")
	}
	if sameRun(two, one) || sameRun(one, other) {
		t.Error("runs of different inputs compare equal")
	}
}
