# fesplit — reproduction of "Characterizing Roles of Front-end Servers in
# End-to-End Performance of Dynamic Content Distribution" (IMC 2011).

GO ?= go

.PHONY: all build test vet bench bench-json bench-compare check report report-full examples clean fuzz-smoke equivalence fastpath-check lossy-check telemetry-smoke profile-smoke queueing-check scale-check

all: build vet test

# CI-equivalent verification: vet, build, race-clean tests, then a
# quick warn-only benchmark diff against the committed baseline. The
# observability instrumentation must stay goroutine-free; -race proves
# the simulation stays single-threaded.
check:
	$(GO) vet ./...
	$(GO) build ./...
	$(GO) test -race ./...
	$(MAKE) fuzz-smoke
	$(MAKE) bench-compare

# Perf gate: short-benchtime run diffed against the latest committed
# snapshot. ns/op growth beyond 15% is reported but does not fail the
# build (timings on shared machines are too noisy to hard-gate; eyeball
# the REGRESSION lines). allocs/op on the hot-path benchmarks IS a hard
# gate even under -warn-only — allocation counts are deterministic, and
# the event engine and packet send path are pinned at zero allocs/op.
bench-compare:
	$(GO) run ./cmd/benchjson -benchtime 100ms -o bench-check.json \
		-compare $(BENCH_BASELINE) -warn-only

BENCH_BASELINE ?= BENCH_10.json

# Fast-forward engine equivalence gate: the differential property test
# (randomized RTT/loss/size/cwnd scenarios — i.i.d. and Gilbert — fast
# lane vs packet lane), the fallback-boundary tests and the keep-alive
# fuzz seeds, at an elevated -count and under the race detector. Slower
# than the regular test run; CI runs it as its own job.
fastpath-check:
	$(GO) test -race -count=5 -run 'FastPath' ./internal/tcpsim
	$(MAKE) lossy-check
	$(GO) test -race -count=5 -run 'FuzzKeepAliveExpiry' ./internal/httpsim
	$(GO) test -race -count=2 -run 'TestParallelSerialEquivalence' .

# Lossy fast-lane gate: the loss-epoch boundary pins (first-segment
# loss, dropped retransmission, final-round loss, tail-loss RTO,
# Gilbert burst re-entry) and the fuzz corpus replay, at an elevated
# -count under the race detector. See docs/PERF.md §lossy
# fast-forwarding.
lossy-check:
	$(GO) test -race -count=5 -run 'TestLossEpoch|FuzzLossEpochBoundary' ./internal/tcpsim

# Short fuzz pass over the observability codecs (label escaping, the
# metrics JSONL round trip) and the lossy fast-lane differential
# property. Go runs one fuzz target per invocation, so one run each.
# ~10s each — a smoke pass for CI, not a campaign.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzPrometheusLabelEscape -fuzztime 10s ./internal/obs
	$(GO) test -run '^$$' -fuzz FuzzMetricsJSONLRoundTrip -fuzztime 10s ./internal/obs
	$(GO) test -run '^$$' -fuzz FuzzLossEpochBoundary -fuzztime 10s ./internal/tcpsim

# Load-aware queueing gate: the Lindley/M-D-1 property tests, the
# zero-load byte-identity degeneracy, FE admission control and
# retry/backoff at an elevated -count under the race detector, the
# overload/hotspot/failover/capacity scenario determinism check, the
# golden-CSV gate that pins those cells, and a short fuzz pass over the
# FE admission control. See docs/QUEUEING.md.
queueing-check:
	$(GO) test -race -count=3 ./internal/backend ./internal/frontend
	$(GO) test -race -count=2 -run 'TestQueueScenariosDeterministic|TestGoldenFigureCSVs' .
	$(GO) test -run '^$$' -fuzz FuzzAdmissionControl -fuzztime 10s ./internal/frontend

# Bounded-memory gate. The heap-bound and fold tests run first: the
# 10⁴-client fleet heap bound, the streamed fixed-FE campaign's
# recorders holding only sessions in flight, and its field-for-field
# match with the accumulated dataset (campus and lossy wireless). Then,
# end to end through the CLI: a 10⁴-client streaming diurnal campaign
# must complete every arrival with the heap watermark under the pinned
# bound (192 MiB, matching TestFleetStudyHeapBound) and a
# worker-invariant fleet.csv, and the small-scale figure CSVs must stay
# byte-identical to testdata/golden. See docs/SCALE.md.
scale-check: build
	$(GO) test -run 'TestFleetStudyHeapBound' .
	$(GO) test -run 'TestStreamedExperimentBRecordersHoldOnlyInFlight|TestStreamedExperimentBMatchesAccumulated' ./internal/emulator
	./scripts/scale_smoke.sh ./bin/fesplit

# Runtime-telemetry smoke, end to end through the CLI: a short study
# with heartbeat, streaming sink and the HTTP endpoint all on; scrapes
# /metrics and /progress and checks the expected series, snapshot keys,
# heartbeat lines and runtime.jsonl landed. Telemetry is wall-clock
# only, so nothing here diffs against deterministic artifacts.
telemetry-smoke: build
	./scripts/telemetry_smoke.sh ./bin/fesplit

# Critical-path profiler / regression-gate smoke, end to end through
# the CLI: two same-seed profiled runs must diff clean (exit 0) and a
# run with an injected 2× BE slowdown must fail the gate (nonzero)
# with a verdict naming the be-proc phase. See docs/PROFILING.md.
profile-smoke: build
	./scripts/profile_smoke.sh ./bin/fesplit

# Serial/parallel equivalence, end to end through the CLI: the full
# observed study exported twice — one worker, then four — must be
# byte-identical across every artifact (CSVs, JSONL, Prometheus text,
# HTML, spans). This is the parallel runner's contract; see
# docs/PARALLEL.md.
equivalence: build
	rm -rf equiv-w1 equiv-w4
	./bin/fesplit study -seed 7 -workers 1 -dir equiv-w1
	./bin/fesplit study -seed 7 -workers 4 -dir equiv-w4
	diff -r equiv-w1 equiv-w4
	rm -rf equiv-w1 equiv-w4
	@echo "serial and parallel study outputs are byte-identical"

build:
	$(GO) build ./...
	$(GO) build -o bin/fesplit ./cmd/fesplit

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

cover:
	$(GO) test -cover ./...

bench:
	$(GO) test -bench=. -benchmem ./...

# Perf-trajectory snapshot: root study benchmarks plus the simnet and
# tcpsim micro-benchmarks, recorded as BENCH_10.json (name → ns/op,
# B/op, allocs/op, heap_bytes). Later PRs diff new snapshots against
# this file.
#
# The `[^4]$` bench regexp drops BenchmarkStudyRunAllWorkers4 — the
# only name ending in "4" — so the full study runs once, not twice.
# The serial run (Workers1) is the trajectory's study timing: it does
# not depend on the runner's core count, and the parallel runner's
# correctness is already pinned byte-for-byte by `make equivalence`.
bench-json:
	$(GO) run ./cmd/benchjson -bench '[^4]$$' -o BENCH_10.json

# Light-scale figure regeneration (seconds).
report: build
	./bin/fesplit report

# Paper-scale regeneration (250 nodes, 720 repeats). Measured on a
# 2-CPU, 8 GiB host: about 1 min and 1.2 GiB peak RSS (docs/SCALE.md).
report-full: build
	./bin/fesplit report -scale full -csv results_csv | tee report_full.txt

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/placement
	$(GO) run ./examples/splitbaseline
	$(GO) run ./examples/cachingdetect
	$(GO) run ./examples/livedemo
	$(GO) run ./examples/dnspolicy

clean:
	rm -rf bin
