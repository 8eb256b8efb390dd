GO ?= go
GOFMT ?= gofmt

.PHONY: build test check bench fmt race vet trace-smoke fault-smoke scale-smoke replay-smoke pdes-bench obs-smoke obs-gate obs-baseline lines

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# fmt: fail when any Go file in the tree is not gofmt-formatted.
fmt:
	@out=$$($(GOFMT) -l .); if [ -n "$$out" ]; then \
		echo "fmt: files need gofmt:" >&2; echo "$$out" >&2; exit 1; fi
	@echo "fmt: ok"

# race: the concurrency gate for the engine hot path, the parallel
# sweep runner (includes the serial-vs-parallel parity test), the
# fault-injection / recovery suites, the scale-out router/batching
# code exercised from parallel sweeps, the PDES partition sync path
# (sim.Group windows, netsim cross-partition handoff, the mesh scale
# topology), the sharded tracer/collector emitting from parallel
# partition windows, the QoS lane/admission path running one LaneSched
# and Gate per partition under window-parallel execution, and the
# window-boundary barrier-action path (sim.Group.AtBarrier) that runs
# cluster-wide fault arms between conservative windows, and the
# deferred-commit migration path (sim.Group.DeferBarrier, the
# core/migrate.go commit point) that rewrites the actor table from
# window execution.
race:
	$(GO) test -race ./internal/sim/... ./internal/bench/... \
		./internal/fault/... ./internal/deploy/... ./internal/core/... \
		./internal/shard/... ./internal/workload/... ./internal/msgring/... \
		./internal/stats/... ./internal/invariant/... ./internal/sched/... \
		./internal/netsim/... ./internal/mesh/... ./internal/obs/... \
		./internal/pcie/... ./internal/qos/...

# trace-smoke: run a traced simulation and validate the emitted Chrome
# trace (well-formed trace_event JSON, named lanes, monotonic per-track
# timestamps) and the NDJSON metric snapshots.
trace-smoke:
	$(GO) run ./cmd/ipipe-sim -app rkv -nic cn2350 -duration 5ms \
		-trace /tmp/ipipe-trace-smoke.json -metrics /tmp/ipipe-metrics-smoke.ndjson >/dev/null
	$(GO) run ./cmd/ipipe-trace check /tmp/ipipe-trace-smoke.json
	$(GO) run ./cmd/ipipe-trace check-metrics /tmp/ipipe-metrics-smoke.ndjson

# fault-smoke: run the availability experiment under the default fault
# schedule with tracing on, validate the trace artifact, and confirm the
# injected faults appear as spans on the dedicated faults lanes.
fault-smoke:
	$(GO) run ./cmd/ipipe-bench -quick -trace /tmp/ipipe-fault-smoke.json \
		faults-availability >/dev/null
	$(GO) run ./cmd/ipipe-trace check /tmp/ipipe-fault-smoke.json
	@grep -q '"crash kv0"' /tmp/ipipe-fault-smoke.json || \
		{ echo "fault-smoke: no fault span in trace" >&2; exit 1; }
	@echo "fault-smoke: fault spans present"

# scale-smoke: run the sharded scale-out sweeps end to end (router,
# multi-group deployment, client batching) in quick mode.
scale-smoke:
	$(GO) run ./cmd/ipipe-bench -quick scale-shards scale-batch >/dev/null
	@echo "scale-smoke: ok"

# replay-smoke: audit runtime invariants on a live simulation, then
# golden-replay one table of (flags, experiments) rows. Each row runs
# its experiments at two seeds as a serial reference plus variants — a
# parallel sweep at -parallel workers and, with -pdes N, window-parallel
# runs at each -pdes-workers count on N partitions — and every
# variant's invariant fingerprints must match the reference's
# byte-for-byte. The rows cover faults, queue-model ablation, sharded
# scale-out and multi-cluster sweeps; the partitioned scale sweep,
# faulted mesh (barrier and partition-local arms) and migrating mesh
# (window-boundary commits) at 2 and 4 partitions, with classic
# controls; and the multi-tenant QoS family (lane conservation, strict
# priority, admission ledger) at its default 4 partitions. The full
# registry runs with `ipipe-bench -quick -check all`.
REPLAY_SMOKE = \
	"faults-availability fig17 ablate-queue scale-shards" \
	"-pdes 2 -pdes-workers 2 scale-nodes fig17 scale-shards faults-pdes migrate-pdes" \
	"-pdes 4 -pdes-workers 4 scale-nodes fig17 faults-pdes migrate-pdes" \
	"-qos -pdes 4 -pdes-workers 2,4 -parallel 4"

replay-smoke:
	$(GO) run ./cmd/ipipe-sim -app rkv -nic cn2350 -duration 5ms -check >/dev/null
	@for row in $(REPLAY_SMOKE); do \
		echo "replay-smoke: $$row"; \
		$(GO) run ./cmd/ipipe-bench -quick -check $$row || exit 1; \
	done
	@echo "replay-smoke: ok"

# pdes-bench: regenerate the wall-clock speedup matrix artifact
# (fingerprint-certified; speedup > 1 needs as many cores as workers).
pdes-bench:
	$(GO) run ./cmd/ipipe-bench -pdes-bench BENCH_pdes.json \
		-pdes-nodes 64,128,256 -pdes-workers 2,4,8
	@echo "pdes-bench: wrote BENCH_pdes.json"

# obs-smoke: trace a partitioned mesh run with window-parallel
# execution and validate the merged artifacts — including the
# cross-partition handoff span pairing.
obs-smoke:
	$(GO) run ./cmd/ipipe-sim -app mesh -nodes 8 -partitions 4 -pdes 4 \
		-duration 300us -trace /tmp/ipipe-obs-smoke.json \
		-metrics /tmp/ipipe-obs-smoke.ndjson >/dev/null
	$(GO) run ./cmd/ipipe-trace check /tmp/ipipe-obs-smoke.json
	$(GO) run ./cmd/ipipe-trace check-metrics /tmp/ipipe-obs-smoke.ndjson
	@grep -q '"handoff out"' /tmp/ipipe-obs-smoke.json || \
		{ echo "obs-smoke: no handoff spans in partitioned trace" >&2; exit 1; }
	@echo "obs-smoke: ok"

# obs-gate: the perf-trajectory gate — rebuild the observed-run summary
# and compare it against the committed BENCH_obs.json baseline.
# Deterministic fields (ops, quantiles, events, counters, watermarks,
# handoffs) must match exactly; allocation cost may not grow past its
# band. Regenerate the baseline intentionally with `make obs-baseline`.
obs-gate:
	$(GO) run ./cmd/ipipe-bench -quick -report /tmp/ipipe-obs-report.json \
		-baseline BENCH_obs.json
	@echo "obs-gate: ok"

# obs-baseline: regenerate the committed observed-run baseline after an
# intentional behavior change (review the diff before committing).
obs-baseline:
	$(GO) run ./cmd/ipipe-bench -quick -report BENCH_obs.json
	@echo "obs-baseline: wrote BENCH_obs.json"

# check: the CI step — formatting, static analysis, the race suite, and
# the observability and invariant smoke tests.
check: fmt vet race trace-smoke fault-smoke scale-smoke replay-smoke obs-smoke obs-gate

bench:
	$(GO) test -bench=. -benchmem -run=^$$ ./internal/sim/ ./internal/bench/

# lines: print the prod line counts ROADMAP tracks — non-blank,
# non-comment lines of the non-test Go files in each package, then the
# total. Informational only; not part of check.
LINES_PKGS = core sim bench fault mesh

lines:
	@total=0; for p in $(LINES_PKGS); do \
		n=$$(cat $$(ls internal/$$p/*.go | grep -v '_test\.go$$') | \
			grep -cv '^[[:space:]]*\(//.*\)\?$$'); \
		printf 'internal/%-8s %6d\n' $$p $$n; total=$$((total + n)); \
	done; printf '%-17s %6d\n' total $$total
