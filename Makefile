# Development entry points. CI (.github/workflows/ci.yml) runs the same
# targets, so `make check bench` locally reproduces a full CI pass.

GO ?= go

# Experiment and output directory for `make profile`.
EXP ?= scale
PROFILE_DIR ?= profiles

.PHONY: check test lint staticcheck fuzz bench bench-all profile clean

# check is the tier-1 gate: format, vet, doc lint, staticcheck, build,
# race tests.
check: lint staticcheck
	test -z "$$($(GO)fmt -l .)" || { $(GO)fmt -l .; exit 1; }
	$(GO) vet ./...
	$(GO) build ./...
	$(GO) test -race ./...

# bench/ is its own Go module, so the root `go test ./...` never reaches
# ezperf's self-test (phase-split digests against plain runs, per workload).
test:
	$(GO) test ./...
	$(GO) -C bench vet ./...
	$(GO) -C bench test ./...

# fuzz is a short smoke over the hostile-input decoders: the scenario
# JSON loader, the shard worker frame protocol (plus the chaos-spec
# grammar), and the mobility trace-file parser; plus three differential
# checks: the event engine's order (heap and lanes against the
# heap-only reference), PHY batch moves (MoveNodes against the same
# moves applied one at a time), and PHY interference (the indexed
# channel, far ring included, against a receiver-major reference over
# fuzzed placements, capture ratios and schedules). Ten seconds each is
# enough to catch decode panics and order slips in CI; crank FUZZTIME
# for a real soak. A worker stops fuzzing while it minimizes a new input,
# for up to a minute by default, so minimization is capped at 2 s to
# leave the smoke its mutated inputs.
FUZZTIME ?= 10s
fuzz:
	$(GO) test -run='^$$' -fuzz='^FuzzParse$$' -fuzztime=$(FUZZTIME) -fuzzminimizetime=2s ./internal/scenario
	$(GO) test -run='^$$' -fuzz='^FuzzWorkerFrames$$' -fuzztime=$(FUZZTIME) -fuzzminimizetime=2s ./internal/campaign
	$(GO) test -run='^$$' -fuzz='^FuzzParseChaos$$' -fuzztime=$(FUZZTIME) -fuzzminimizetime=2s ./internal/campaign
	$(GO) test -run='^$$' -fuzz='^FuzzParseMobilityTrace$$' -fuzztime=$(FUZZTIME) -fuzzminimizetime=2s ./internal/mobility
	$(GO) test -run='^$$' -fuzz='^FuzzEngineOrder$$' -fuzztime=$(FUZZTIME) -fuzzminimizetime=2s ./internal/sim
	$(GO) test -run='^$$' -fuzz='^FuzzMoveNodes$$' -fuzztime=$(FUZZTIME) -fuzzminimizetime=2s ./internal/phy
	$(GO) test -run='^$$' -fuzz='^FuzzInterference$$' -fuzztime=$(FUZZTIME) -fuzzminimizetime=2s ./internal/phy

# lint enforces the godoc conventions (package docs everywhere, exported
# symbol docs in the public ezflow package and all internal packages) and
# the unused-export rule (every exported identifier of the root package or
# under internal/ has a use outside tests in the root or bench/ module).
# Stdlib only, offline.
lint:
	$(GO) run ./tools/lintdoc

# staticcheck runs honnef.co/go/tools when installed (CI installs it;
# offline dev containers may not have it, so it degrades to a notice).
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./... ; \
	else \
		echo "staticcheck not installed; skipping (CI runs it)"; \
	fi

# bench runs the hot-path benchmarks guarding the simulator core — the
# end-to-end chain and large-topology scenarios, the event-queue
# micro-benchmarks (schedule/cancel churn, a deep heap, and a MAC-shaped
# mix of lane and heap events pinned at zero allocs by
# TestEngineMixedAllocs), the PHY transmission path (one flight at a
# time and eight overlapping), a traffic source's arrival at a full
# source queue (pinned at zero allocs and zero pooled packets by
# TestSourceOverflowAllocs), the controller hot hooks (OnOverhear/OnDequeue/
# OnTransmit, pinned at zero allocs), the observability instruments
# (vec/histogram/flight-record increments plus the disabled
# nil-receiver hooks, all pinned at zero allocs), the
# routing strategies (pure route-computation cost per registry entry
# plus the lossy-disk rerun per strategy), the fabric cache
# (key derivation and a store Put+Get round trip — the fixed overhead
# a cache hit pays to skip a simulation), the mobility path (one
# phy.Channel.MoveNodes batch on a 200-node disk — a tick that steps all
# 200 stations and a sparse one that moves 1, each one index rebuild,
# pinned at zero steady-state allocs by TestMoveNodesSteadyStateAllocs —
# plus a full 200-node waypoint disk run and one route-repair round over
# the mobile workload's disk), and large-disk set-up
# (mesh.RandomDiskLossy at 200 and 400 nodes with its connectivity
# resampling, and one full PHY neighbor-index build) — gates them against
# the committed baseline (BENCH_PR8.json; >25% allocs/op regression
# fails, zero-alloc pins fail on any alloc, ns/op gets a wider 2x band
# because the archived baseline was recorded on a different host),
# archives the fresh run as BENCH_PR10.json (uploaded as a CI artifact,
# committed when the recorded trajectory changes), and prints the
# speedup table.
bench:
	$(GO) test -bench='^BenchmarkChainRun|^BenchmarkEngineThroughput|^BenchmarkGrid100Run$$|^BenchmarkRandomDisk200Run$$|^BenchmarkDiskScaling$$|^BenchmarkRouting|^BenchmarkDiskScalingRouting$$|^BenchmarkWaypointDisk200$$|^BenchmarkRepairRound$$' \
	    -benchmem -run='^$$' -benchtime=20x . | tee /tmp/bench.out
	$(GO) test -bench='^BenchmarkEngine' -benchmem -run='^$$' -benchtime=1s \
	    ./internal/sim | tee -a /tmp/bench.out
	$(GO) test -bench='^BenchmarkChannelTransmit|^BenchmarkMoveNodes$$|^BenchmarkBuildIndex$$' -benchmem -run='^$$' -benchtime=1s \
	    ./internal/phy | tee -a /tmp/bench.out
	$(GO) test -bench='^BenchmarkRandomDiskBuild$$' -benchmem -run='^$$' -benchtime=20x \
	    ./internal/mesh | tee -a /tmp/bench.out
	$(GO) test -bench='^BenchmarkSourceOverflow$$' -benchmem -run='^$$' -benchtime=1s \
	    ./internal/traffic | tee -a /tmp/bench.out
	$(GO) test -bench='^BenchmarkCtl' -benchmem -run='^$$' -benchtime=1s \
	    ./internal/ctl | tee -a /tmp/bench.out
	$(GO) test -bench='^BenchmarkObs' -benchmem -run='^$$' -benchtime=1s \
	    ./internal/obs | tee -a /tmp/bench.out
	$(GO) test -bench='^BenchmarkCacheKey$$|^BenchmarkStoreRoundTrip$$' -benchmem -run='^$$' -benchtime=1s \
	    ./internal/fabric | tee -a /tmp/bench.out
	$(GO) run ./tools/benchjson -baseline BENCH_PR8.json -tolerance 0.25 -ns-tolerance 1.0 \
	    < /tmp/bench.out > BENCH_PR10.json
	@echo wrote BENCH_PR10.json
	$(GO) run ./tools/benchjson -compare BENCH_PR8.json BENCH_PR10.json

# bench-all additionally regenerates every figure/table benchmark of the
# paper (slow).
bench-all:
	$(GO) test -bench=. -benchmem -run='^$$' ./...

# profile writes CPU and allocation pprof profiles of one ezbench
# experiment (default: the large-topology scale sweep). Inspect with
#
#	go tool pprof -top $(PROFILE_DIR)/cpu.pprof
#
# Override the experiment with `make profile EXP=scenario1`.
profile:
	mkdir -p $(PROFILE_DIR)
	$(GO) run ./cmd/ezbench -exp $(EXP) \
	    -cpuprofile $(PROFILE_DIR)/cpu.pprof -memprofile $(PROFILE_DIR)/mem.pprof
	@echo wrote $(PROFILE_DIR)/cpu.pprof and $(PROFILE_DIR)/mem.pprof

clean:
	rm -f /tmp/bench.out
	rm -rf $(PROFILE_DIR)
