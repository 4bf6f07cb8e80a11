# offchip build helpers. `make check` is the gate CI runs; keep it green.

GO ?= go

.PHONY: check vet fmt build test test-race determinism validate conservation bench-smoke profile-smoke service-smoke fuzz-smoke bench bench-engine bench-sweepd clean

## check: everything CI enforces — vet, formatting, build, tests under -race,
## the sequential-vs-parallel determinism gate, the invariant/metamorphic
## validation battery, the engine allocation gate, the profiler conservation
## gate, and the sweep-service smoke.
check: vet fmt build test-race determinism validate bench-smoke profile-smoke service-smoke

vet:
	$(GO) vet ./...

## fmt: fails if any file needs gofmt; prints the offenders.
fmt:
	@out=$$(gofmt -l .); \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

build:
	$(GO) build ./...

test:
	$(GO) test ./...

test-race:
	$(GO) test -race ./...

## determinism: differential gate — every parallel run must be bit-identical
## to sequential. -count=2 defeats test caching so both runs actually execute.
determinism:
	$(GO) test -run Determinism -race -count=2 ./...

## validate: the simulator-wide validation battery — every runtime invariant
## probe (causality, conservation, XY routing, zero-load oracles, the
## FR-FCFS starvation bound, address-map bijection) over every bundled
## workload, both L2 organizations, and the optimal scheme, plus the
## metamorphic relations (faster DRAM / ideal NoC / optimal scheme never
## slower; seeds never change totals). Subsumes the old `conservation`
## target, whose identities now live in check.VerifyTotals.
validate:
	$(GO) test -race ./internal/check
	$(GO) test -run Conservation -race -count=2 ./internal/sim

## conservation: legacy alias for the conservation half of `validate`.
conservation:
	$(GO) test -run Conservation -race -count=2 ./internal/sim

## bench-smoke: the allocation-regression gates on the hot paths. Runs the
## engine micro-benchmarks briefly and fails if the steady-state dispatch
## path allocates at all (pinned ceiling: 0 allocs/op), then pins the
## trace-cache hit path — decoding a memoized workload from its delta-encoded
## blob — to the same ceiling, so cache hits stay allocation-free no matter
## how the encoding evolves. Last, one full-length trace.Generate call is
## pinned at 500 allocs: the compiled generator allocates per call (about
## 340 on apsi at 64 threads), never per access (about 330k accesses).
bench-smoke:
	$(GO) test -run='^$$' -bench='SteadyStateDispatch|ScheduleOnly' -benchtime=100x -benchmem ./internal/engine \
		| $(GO) run ./cmd/benchgate -bench 'SteadyStateDispatchTyped$$|ScheduleOnly$$' -max-allocs 0
	$(GO) test -run='^$$' -bench='DecodeCacheHit' -benchtime=1000x -benchmem ./internal/tracecache \
		| $(GO) run ./cmd/benchgate -bench 'DecodeCacheHit$$' -max-allocs 0
	$(GO) test -run='^$$' -bench='^BenchmarkGenerate$$' -benchtime=3x -benchmem ./internal/trace \
		| $(GO) run ./cmd/benchgate -bench '^BenchmarkGenerate/' -max-allocs 500

## profile-smoke: the latency-attribution conservation gate — a small
## three-way comparison with the profiler attached must attribute every
## access's latency exactly (components sum to the probe-observed end-to-end
## latency, no violations) and the live plane's Prometheus exposition must
## re-parse. -count=1 defeats caching so the simulation actually runs.
profile-smoke:
	$(GO) test -run TestProfileSmoke -count=1 ./internal/prof

## service-smoke: boot the sweep service with a real worker-process fleet,
## submit a sweep over HTTP, and check the results against the golden
## snapshot. -count=1 defeats caching so the fleet actually spawns.
service-smoke:
	$(GO) test -run TestServiceSmoke -count=1 ./cmd/sweepd

## fuzz-smoke: a short fuzz of every Fuzz target (also run nightly in CI).
FUZZTIME ?= 30s
fuzz-smoke:
	$(GO) test -run=^$$ -fuzz=FuzzParseProgram -fuzztime=$(FUZZTIME) ./internal/ir
	$(GO) test -run=^$$ -fuzz=FuzzParseJobID -fuzztime=$(FUZZTIME) ./internal/runner
	$(GO) test -run=^$$ -fuzz=FuzzDecodeOTC1 -fuzztime=$(FUZZTIME) ./internal/tracecache
	$(GO) test -run=^$$ -fuzz=FuzzParseMigrationSpec -fuzztime=$(FUZZTIME) ./internal/mem
	$(GO) test -run=^$$ -fuzz=FuzzParseMixSpec -fuzztime=$(FUZZTIME) ./internal/workloads

## bench: record the event-kernel wall-clock and allocation numbers into
## BENCH_engine.json, then run the per-figure benchmarks plus the obs
## overhead guards.
bench: bench-engine
	$(GO) test -bench=. -benchmem ./...

## bench-engine: time `-exp all` end to end and the engine micro-benchmarks,
## and write BENCH_engine.json (see README "Performance" for how to read it).
bench-engine:
	$(GO) run ./cmd/benchtab -bench-engine BENCH_engine.json

## bench-sweepd: time the example sweep in-process vs on a worker-process
## fleet and write BENCH_sweepd.json (see README "Performance").
bench-sweepd:
	$(GO) run ./cmd/benchtab -bench-sweepd BENCH_sweepd.json -parallel 2

clean:
	$(GO) clean ./...
