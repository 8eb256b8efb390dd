package workload_test

import (
	"testing"

	"repro/internal/actor"
	"repro/internal/sim"
	"repro/internal/workload"
)

// TestRequestRoundTripAllocations: a client request allocates its
// per-request state (one struct plus its bound reply method), the
// request packet and its boxed message; the server adds the response
// packet and envelope. Retry and give-up timers reuse bound handlers.
func TestRequestRoundTripAllocations(t *testing.T) {
	cl, c := echoCluster(t, 1, 2*sim.Microsecond)
	gaveUp := 0
	r := workload.Request{Node: "srv", Dst: 1, Size: 256, FlowID: 1,
		Timeout: 50 * sim.Microsecond, Retries: 1, OnGiveUp: func() { gaveUp++ }}
	allocs := testing.AllocsPerRun(200, func() {
		c.Send(r)
		cl.Run()
	})
	if allocs > 6 {
		t.Fatalf("request round trip allocated %v, want ≤ 6", allocs)
	}
	if c.Received != 201 || c.Retried != 0 || gaveUp != 0 {
		t.Fatalf("received %d, retried %d, gave up %d; want 201, 0, 0", c.Received, c.Retried, gaveUp)
	}
}

// TestClosedLoopIssuesSuccessorAfterOnResp: the closed loop's successor
// is issued after the request's own OnResp, from the reply itself.
func TestClosedLoopIssuesSuccessorAfterOnResp(t *testing.T) {
	cl, c := echoCluster(t, 1, 2*sim.Microsecond)
	var order []uint64
	c.ClosedLoop(1, 100*sim.Microsecond, func(i uint64) workload.Request {
		order = append(order, 2*i) // issued
		return workload.Request{Node: "srv", Dst: 1, FlowID: i + 1,
			OnResp: func(actor.Msg) { order = append(order, 2*i+1) }} // answered
	})
	cl.Run()
	if len(order) < 4 {
		t.Fatalf("closed loop issued only %v", order)
	}
	for k, v := range order {
		if v != uint64(k) {
			t.Fatalf("issue/answer order %v, want 0,1,2,3,…", order)
		}
	}
}
