package core_test

import (
	"bytes"
	"strconv"
	"strings"
	"testing"

	"repro/internal/actor"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/spec"
	"repro/internal/workload"
)

// observedRun drives a NIC-resident echo workload with tracing and
// metrics enabled and returns the rendered trace, the NDJSON metrics,
// and the workload result.
func observedRun(t *testing.T, seed uint64, trace, metrics bool) (traceOut, metricsOut []byte, received uint64, p99 float64) {
	t.Helper()
	cl := core.NewCluster(seed)
	var tr *obs.Tracer
	if trace {
		tr = obs.NewTracer()
		cl.EnableTracing(tr)
	}
	var col *obs.Collector
	if metrics {
		col = obs.NewCollector(cl.Eng, 50*sim.Microsecond)
		cl.EnableMetrics(col)
	}
	n := cl.AddNode(core.Config{Name: "srv", NIC: spec.LiquidIOII_CN2350()})
	if err := n.Register(&actor.Actor{
		ID:   1,
		Name: "kv-shard",
		OnMessage: func(ctx actor.Ctx, m actor.Msg) sim.Time {
			ctx.Reply(m)
			return sim.Time(1000 + cl.Eng.Rand().Intn(4000))
		},
	}, true, 0); err != nil {
		t.Fatal(err)
	}
	client := workload.NewClient(cl, "cli", 10)
	client.OpenLoop(200000, 2*sim.Millisecond, func(i uint64) workload.Request {
		return workload.Request{Node: "srv", Dst: 1, Size: 512, FlowID: i + 1}
	})
	if col != nil {
		col.Start()
	}
	cl.Run()
	if col != nil {
		col.Snapshot()
	}
	if tr != nil {
		var buf bytes.Buffer
		if err := tr.WriteChromeTrace(&buf); err != nil {
			t.Fatalf("trace write: %v", err)
		}
		traceOut = buf.Bytes()
	}
	if col != nil {
		var buf bytes.Buffer
		if err := col.WriteNDJSON(&buf); err != nil {
			t.Fatalf("metrics write: %v", err)
		}
		metricsOut = buf.Bytes()
	}
	return traceOut, metricsOut, client.Received, client.Lat.Percentile(99)
}

// TestTraceEndToEnd drives a request stream through link → traffic
// manager → NIC core and checks the exported trace is valid Chrome
// trace_event JSON with the expected lanes populated.
func TestTraceEndToEnd(t *testing.T) {
	trace, metrics, received, _ := observedRun(t, 42, true, true)
	if received == 0 {
		t.Fatal("no requests completed")
	}
	st, err := obs.ValidateChromeTrace(bytes.NewReader(trace))
	if err != nil {
		t.Fatalf("invalid trace: %v", err)
	}
	if st.Spans == 0 || st.Processes < 2 {
		t.Fatalf("trace too thin: %+v", st)
	}
	out := string(trace)
	for _, lane := range []string{`"srv"`, `"cli"`, `"nic core 0"`, `"link tx"`, `"link rx"`, `"kv-shard"`} {
		if !strings.Contains(out, lane) {
			t.Errorf("trace missing %s", lane)
		}
	}
	ms, err := obs.ValidateMetricsNDJSON(bytes.NewReader(metrics))
	if err != nil {
		t.Fatalf("invalid metrics: %v", err)
	}
	if ms.Records < 2 {
		t.Fatalf("expected periodic snapshots, got %d", ms.Records)
	}
	for _, key := range []string{`"fcfs_tail_us"`, `"nic_completed"`, `"sojourn_us"`} {
		if !strings.Contains(string(metrics), key) {
			t.Errorf("metrics missing %s", key)
		}
	}
}

// TestTraceCausalOrdering: for a sampled request, the client's link-tx
// span must precede the server's link-rx span, which must precede the
// NIC-core execution span — the cross-layer causality the trace exists
// to show.
func TestTraceCausalOrdering(t *testing.T) {
	trace, _, _, _ := observedRun(t, 7, true, false)
	// Pull out ts values for req 5 by lane, in emitted order. Spans are
	// sorted by track, so per-lane order is by start time.
	var txTS, rxTS, execTS []string
	for _, line := range strings.Split(string(trace), "\n") {
		if !strings.Contains(line, `"req":5,`) && !strings.Contains(line, `"req":5}`) {
			continue
		}
		switch {
		case strings.Contains(line, `"name":"frame"`):
			// Distinguish tx/rx by pid later; collect all frame spans.
			txTS = append(txTS, line)
		case strings.Contains(line, `"name":"kv-shard"`):
			execTS = append(execTS, line)
		}
	}
	_ = rxTS
	if len(txTS) < 2 || len(execTS) < 1 {
		t.Fatalf("req 5 not fully traced: %d frame spans, %d exec spans", len(txTS), len(execTS))
	}
	ts := func(line string) float64 {
		i := strings.Index(line, `"ts":`)
		if i < 0 {
			t.Fatalf("no ts in %s", line)
		}
		rest := line[i+5:]
		end := 0
		for end < len(rest) && (rest[end] == '.' || (rest[end] >= '0' && rest[end] <= '9')) {
			end++
		}
		v, err := strconv.ParseFloat(rest[:end], 64)
		if err != nil {
			t.Fatalf("bad ts in %s: %v", line, err)
		}
		return v
	}
	var frameMin, frameMax float64
	for i, l := range txTS {
		v := ts(l)
		if i == 0 || v < frameMin {
			frameMin = v
		}
		if i == 0 || v > frameMax {
			frameMax = v
		}
	}
	exec := ts(execTS[0])
	if !(frameMin < exec) {
		t.Fatalf("request frame (ts %v) not before execution (ts %v)", frameMin, exec)
	}
}

// TestObservationDoesNotPerturb: results with tracing+metrics on must be
// identical to results with observation off — the tracer may only watch.
func TestObservationDoesNotPerturb(t *testing.T) {
	_, _, recvOn, p99On := observedRun(t, 99, true, true)
	_, _, recvOff, p99Off := observedRun(t, 99, false, false)
	if recvOn != recvOff || p99On != p99Off {
		t.Fatalf("observation perturbed the run: %d/%f observed vs %d/%f bare",
			recvOn, p99On, recvOff, p99Off)
	}
}

// TestTraceDeterministicBytes: identical seeds must render byte-identical
// trace and metrics files.
func TestTraceDeterministicBytes(t *testing.T) {
	t1, m1, _, _ := observedRun(t, 1234, true, true)
	t2, m2, _, _ := observedRun(t, 1234, true, true)
	if !bytes.Equal(t1, t2) {
		t.Fatal("same seed produced different trace bytes")
	}
	if !bytes.Equal(m1, m2) {
		t.Fatal("same seed produced different metrics bytes")
	}
}
