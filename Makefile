GO ?= go
GOFMT ?= gofmt

.PHONY: build test check bench fmt race vet trace-smoke fault-smoke fault-pdes-smoke migrate-pdes-smoke scale-smoke invariant-smoke pdes-smoke pdes-bench obs-smoke obs-gate obs-baseline qos-smoke

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

# fault-pdes-smoke: golden-replay the faulted partitioned mesh along
# the PDES axis — every fault arm (barrier arms at window boundaries,
# local arms on owning engines) at 2 and 4 partitions, serial window
# merge vs parallel window execution; the per-partition invariant
# fingerprints must match byte-for-byte.
fault-pdes-smoke:
	$(GO) run ./cmd/ipipe-bench -quick -check -pdes 2 -parallel 2 \
		faults-pdes
	$(GO) run ./cmd/ipipe-bench -quick -check -pdes 4 -parallel 4 \
		faults-pdes
	@echo "fault-pdes-smoke: ok"

# migrate-pdes-smoke: golden-replay the migrating partitioned mesh —
# forced push+pull migrations whose node-local phases run on the owning
# partition engine and whose cluster-visible commits defer to window
# boundaries, with crash / NIC-down arms landing between the migration
# phases — at 2 and 4 partitions; the per-partition invariant
# fingerprints (including the migration conservation ledger) must match
# byte-for-byte between worker counts.
migrate-pdes-smoke:
	$(GO) run ./cmd/ipipe-bench -quick -check -pdes 2 -parallel 2 \
		migrate-pdes
	$(GO) run ./cmd/ipipe-bench -quick -check -pdes 4 -parallel 4 \
		migrate-pdes
	@echo "migrate-pdes-smoke: ok"

# scale-smoke: run the sharded scale-out sweeps end to end (router,
# multi-group deployment, client batching) in quick mode.
scale-smoke:
	$(GO) run ./cmd/ipipe-bench -quick scale-shards scale-batch >/dev/null
	@echo "scale-smoke: ok"

# invariant-smoke: audit runtime invariants on a live simulation, then
# golden-replay a registry subset covering faults, queue-model ablation,
# sharded scale-out, and a multi-cluster sweep (serial vs parallel
# fingerprints must match byte-for-byte). The full registry runs with
# `ipipe-bench -quick -check all` (~35s).
invariant-smoke:
	$(GO) run ./cmd/ipipe-sim -app rkv -nic cn2350 -duration 5ms -check >/dev/null
	$(GO) run ./cmd/ipipe-bench -quick -check \
		faults-availability fig17 ablate-queue scale-shards
	@echo "invariant-smoke: ok"

# pdes-smoke: golden-replay a registry subset along the PDES axis — the
# partitioned scale sweep plus classic controls, at 2 and 4 partitions,
# serial window merge vs parallel window execution; the per-partition
# invariant fingerprints must match byte-for-byte.
pdes-smoke:
	$(GO) run ./cmd/ipipe-bench -quick -check -pdes 2 -parallel 2 \
		scale-nodes fig17 scale-shards
	$(GO) run ./cmd/ipipe-bench -quick -check -pdes 4 -parallel 4 \
		scale-nodes fig17
	@echo "pdes-smoke: ok"

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

# qos-smoke: golden-replay the multi-tenant QoS experiment family along
# both determinism axes — serial vs parallel sweep on the classic
# clusters, and PDES at 1-vs-2 / 1-vs-4 window workers on the
# partitioned lane mesh — with the invariant checker (lane conservation,
# strict priority, control-shed violations, admission ledger) attached
# to every cluster.
qos-smoke:
	$(GO) run ./cmd/ipipe-bench -quick -check -qos
	@echo "qos-smoke: ok"

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
check: fmt vet race trace-smoke fault-smoke fault-pdes-smoke migrate-pdes-smoke scale-smoke invariant-smoke pdes-smoke qos-smoke obs-smoke obs-gate

bench:
	$(GO) test -bench=. -benchmem -run=^$$ ./internal/sim/ ./internal/bench/
