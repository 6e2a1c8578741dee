GO ?= go

.PHONY: all build test test-short bench bench-json bench-fleet bench-compare bench-warm bench-serve bench-cold vet check check-tests figs cluster fuzz cover trace-demo clean

all: build test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test: vet
	$(GO) test ./...

test-short:
	$(GO) test -short ./...

# check is the CI gate (.github/workflows/ci.yml runs exactly this):
# the test gate (check-tests) plus the bench-regression gates
# (bench-compare, bench-warm, bench-serve, and bench-cold).
check: check-tests bench-compare bench-warm bench-serve bench-cold

# check-tests: a gofmt gate (any file `gofmt -l .` lists fails), vet,
# the race-enabled test suite, a focused race pass
# over the worker pool and singleflight layers (their concurrency tests
# are the dedup/arena safety gate) and over the observatory (its
# collector takes concurrent Note/MetricsInto reads during fleet runs),
# an explicit non-race pass over the allocation gates
# (TestEngineSteadyStateZeroAllocs, TestPacketPathZeroAllocs,
# TestTranslateZeroAllocs, TestRxDMAChainZeroAllocs,
# TestDESPointAllocBudget, TestObservatoryDisabledZeroAlloc,
# TestServeTraceDisabledZeroAlloc) so the allocation-free hot-path,
# bounded-DES-point, disabled-observatory, and disabled-query-trace
# properties are enforced by name under the plain runtime, and a 1x
# smoke pass over the engine benchmarks so a compile break in the
# hot-path benches fails CI. The last step vets and short-tests the
# nested hicperf benchmark module, which the root ./... never compiles,
# so an API break there fails CI instead of the next benchmark run.
check-tests:
	@unformatted="$$(gofmt -l .)"; if [ -n "$$unformatted" ]; then \
		echo "gofmt -l lists unformatted files:"; echo "$$unformatted"; exit 1; fi
	$(GO) vet ./...
	$(GO) test -race -timeout 20m ./...
	$(GO) test -race -count=2 ./internal/runner/ ./internal/runcache/ ./internal/observatory/
	$(GO) test -run 'ZeroAllocs' -count=1 ./internal/sim/ ./internal/pkt/ ./internal/iommu/ ./internal/nic/
	$(GO) test -run 'TestDESPointAllocBudget' -count=1 ./internal/core/
	$(GO) test -run 'TestObservatoryDisabledZeroAlloc' -count=1 ./internal/observatory/
	$(GO) test -run 'TestServeTraceDisabledZeroAlloc' -count=1 ./internal/serve/
	$(GO) test -run=NONE -bench=BenchmarkEngine -benchtime=1x ./internal/sim/
	cd hicperf && $(GO) vet ./... && $(GO) test -short ./...

# bench-compare is the bench-regression gate: a small smoke bench (400
# fleet hosts instead of 10k — the compare tool skips rate sections at
# mismatched scale) gated against the committed BENCH_hotpath.json.
# Allocation counts on the zero-alloc hot paths are exact-class (any
# increase fails); timing metrics get a loose 75% tolerance because CI
# machines are noisy — the gate exists to catch order-of-magnitude
# regressions and alloc leaks, not 10% drift. An audit-over-tolerance
# count in the new report fails at any tolerance.
bench-compare:
	mkdir -p results
	$(GO) run ./cmd/hicbench -out results/bench_smoke.json -fleet-hosts 400 \
		-sections engine,packet_path,fig6_scenario,observatory,fleet,fidelity,serve
	$(GO) run ./cmd/hicbench -compare-tol 0.75 -compare BENCH_hotpath.json results/bench_smoke.json

# bench-warm is the cross-run warm-start gate: a cold-then-warm fleet
# pair at smoke scale (rates are skipped against the committed 10k
# baseline — host counts differ) whose hard gates are scale-free: any
# warm-audited point over tolerance fails unconditionally, and the
# warm-resumed point's allocation profile is near-exact-class (0.1%
# noise floor, see cmd/hicbench/compare.go).
bench-warm:
	mkdir -p results
	$(GO) run ./cmd/hicbench -out results/bench_warm.json -sections warm_start -fleet-hosts 400
	$(GO) run ./cmd/hicbench -compare-tol 0.75 -compare BENCH_hotpath.json results/bench_warm.json

# bench-serve is the serving-layer gate: a coordinator plus two
# in-process workers run a 400-host catalog query cold, warm, and then
# traced (end-to-end query tracing on), and the section is compared
# against the committed baseline. Three gates are tolerance-free at any
# scale: the merged aggregate hash — including the traced pass's — must
# equal the single-process run's (neither sharding nor tracing may
# change bytes), the warm query must re-calibrate nothing (worker
# residency), and the coordinator's federated per-worker hic_worker_*
# counters must sum to the merged queries' counters (fed_sum_match).
# Throughput, scaling, and trace_overhead (traced wall over warm wall)
# gate with the loose noise tolerance like every rate metric.
bench-serve:
	mkdir -p results
	$(GO) run ./cmd/hicbench -out results/bench_serve.json -sections serve -serve-hosts 400
	$(GO) run ./cmd/hicbench -compare-tol 0.75 -compare BENCH_hotpath.json results/bench_serve.json

# bench-cold is the cold-path acceleration gate: the never-seen auto
# fleet at smoke scale with knee search and calibration transfer off
# then on (rates skip against the committed 10k baseline — host counts
# differ), plus the sharded determinism check. Two gates are
# tolerance-free at any scale: no audited point in the accelerated pass
# may exceed tolerance (the accelerations must not buy speed with
# error), and the 1-worker and 2-worker coordinator runs must
# hash-match the in-process run (located knees and borrowed
# calibrations may not depend on shard order).
bench-cold:
	mkdir -p results
	$(GO) run ./cmd/hicbench -out results/bench_cold.json -sections cold_path -cold-hosts 500
	$(GO) run ./cmd/hicbench -compare-tol 0.75 -compare BENCH_hotpath.json results/bench_cold.json

trace-demo:
	mkdir -p results
	$(GO) run ./cmd/hicsim -config configs/fig3_iommu_on_12cores.json \
		-trace-spans -trace-out results/trace_demo.json -metrics-out results/trace_demo.prom
	@echo "open results/trace_demo.json in https://ui.perfetto.dev"

bench:
	$(GO) test -bench=. -benchmem ./...

# bench-json runs every hicbench section (the engine and pooled packet
# path microbenchmarks, the Figure 6 scenario end to end with and
# without the observatory, the fleet execution bench, the multi-fidelity
# section: fluid vs DES per-point cost plus the -fidelity=auto fleet
# against the pure-DES fleet, the cold-path acceleration pair, the
# warm-start section: the same auto fleet cold then warm against one
# persistent calibration and checkpoint store, and the serve section:
# one catalog query sharded across a coordinator and two workers, cold,
# warm and traced) and writes BENCH_hotpath.json.
bench-json:
	$(GO) run ./cmd/hicbench -out BENCH_hotpath.json

# bench-fleet is the fleet-execution smoke: a 10k-host Figure 1 fleet on
# the pooled/deduplicated path, then auto-routed, then cold-then-warm,
# skipping the microbenchmarks.
bench-fleet:
	$(GO) run ./cmd/hicbench -sections fleet,fidelity,warm_start -fleet-hosts 10000

figs:
	$(GO) run ./cmd/hicfigs -outdir results

cluster:
	$(GO) run ./cmd/hiccluster -hosts 200

fuzz:
	$(GO) test -fuzz FuzzDecode -fuzztime 30s ./internal/wire/
	$(GO) test -fuzz FuzzSeqWindow -fuzztime 30s ./internal/transport/
	$(GO) test -fuzz FuzzHistogram -fuzztime 30s ./internal/metrics/

cover:
	$(GO) test -short -cover ./internal/...

clean:
	rm -rf results
