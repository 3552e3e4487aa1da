# Development entry points. `make check` is the full gate CI runs.

GO ?= go

# Packages with worker pools / goroutine fan-out: the race-detector set.
RACE_PKGS = ./internal/burst ./internal/poolsim ./internal/rs ./internal/syssim ./internal/cluster ./internal/runctl ./internal/obs

.PHONY: check build vet lint test race stress bench bench-json bench-engines bench-engines-compare fuzz obs-smoke chaos race-oracle

## check: build + vet + mlecvet + tests + race tests — the CI gate.
check: build vet lint test race stress obs-smoke chaos

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

## lint: the repository's own static-analysis suite (see internal/lint).
## The committed baseline ratchets per-analyzer finding counts (they may
## fall, never rise) and the timeout is the CI budget: a run that cannot
## finish in 60s is itself a regression and exits 2. The budget covers
## the one `go build -gcflags=-d=defer,ssa/check_bce -m=2` of the
## //mlec:hot packages whose bounds-check, inlining, escape and defer
## verdicts hotbce, hotinline, hotalloc, hotiface and hotdefer report.
lint:
	$(GO) run ./cmd/mlecvet -baseline lint/baseline.json -timeout 60s ./...

## race-oracle: cross-check the concurrency analyzers (lockcheck,
## atomicmix, goleak, waitgroupcapture, copylock) against the race
## detector. Generates a stress harness for every //mlec:guardedby
## annotation, runs the annotated packages' tests under -race in a
## throwaway GOCACHE, and fails on any data race the static suite
## cannot claim; CI uploads the unexplained reports as an artifact.
race-oracle:
	$(GO) run ./cmd/mlecvet -race-oracle ./...

test:
	$(GO) test ./...

## race: race-detect the concurrent simulator packages.
race:
	$(GO) test -race $(RACE_PKGS)

## stress: repeat the cancellation / checkpoint-resume tests under the
## race detector — mid-run cancels exercise the pool drain paths that a
## single pass can miss.
stress:
	$(GO) test -race -count=3 -run 'Cancel|Resume|Partial|Context|Pool' \
		./internal/runctl ./internal/poolsim ./internal/burst ./internal/syssim

## obs-smoke: prove observability is inert. Builds mlecdur/mlecburst,
## byte-compares fixed-seed stdout with the full -obs/-progress/
## -trace-out stack on vs off, validates the trace file, and scrapes a
## live endpoint through the strict Prometheus parser.
obs-smoke:
	$(GO) test -count=1 -run 'TestCLIInertness|TestEndpointServes' ./internal/obs

## chaos: the deterministic fault-injection matrix (see
## internal/faultinject). Builds mlecdur/mlecburst with -race and
## asserts that fixed-seed campaigns with injected worker panics, torn
## checkpoint writes, and a deliberately corrupted checkpoint
## generation all converge to stdout byte-identical to the fault-free
## run. CHAOS_REPORT collects per-case verdicts (the CI artifact).
CHAOS_REPORT ?= chaos-report.txt
chaos:
	rm -f $(CHAOS_REPORT)
	CHAOS_REPORT=$(abspath $(CHAOS_REPORT)) $(GO) test -count=1 -run 'TestChaos' ./internal/faultinject
	@cat $(CHAOS_REPORT)

bench:
	$(GO) test -bench=. -benchmem -run=^$$ ./...

## bench-json: refresh the committed kernel benchmark baseline
## (BENCH_gf256.json): GB/s and allocs/op for the gf256 primitives and
## the RS encode/reconstruct paths. LABEL names the run; APPEND=1 keeps
## the runs already in the file so before/after pairs sit side by side.
LABEL ?= dev
bench-json:
	$(GO) run ./cmd/mlecbench -label $(LABEL) -out BENCH_gf256.json $(if $(APPEND),-append)

## bench-compare: one throwaway run compared against the committed
## baseline; warns on kernels that lost >20% GB/s, never fails.
bench-compare:
	$(GO) run ./cmd/mlecbench -label compare -out /tmp/mlec-bench-compare.json -against BENCH_gf256.json

## bench-engines: refresh the committed engine benchmark baseline
## (BENCH_engines.json): events per wall second for the pinned-seed
## poolsim / syssim / burst campaigns, counted by the engines' own obs
## counters. Same LABEL/APPEND discipline as bench-json.
bench-engines:
	$(GO) run ./cmd/mlecperf -label $(LABEL) -out BENCH_engines.json $(if $(APPEND),-append)

## bench-engines-compare: one throwaway engine run compared against the
## committed baseline; warns on engines that lost >20% events/sec,
## never fails.
bench-engines-compare:
	$(GO) run ./cmd/mlecperf -label compare -out /tmp/mlec-perf-compare.json -against BENCH_engines.json

## fuzz: short fuzzing smoke of the hand-written parsers (failure-trace
## files, //lint:allow directives). `go test -fuzz` accepts a single
## target per invocation, hence one line each.
fuzz:
	$(GO) test -run='^$$' -fuzz=FuzzParseTrace -fuzztime=10s ./internal/failure
	$(GO) test -run='^$$' -fuzz=FuzzParseAllowDirective -fuzztime=10s ./internal/lint
	$(GO) test -run='^$$' -fuzz=FuzzTaintEngine -fuzztime=10s ./internal/lint
	$(GO) test -run='^$$' -fuzz=FuzzLockStateEngine -fuzztime=10s ./internal/lint
	$(GO) test -run='^$$' -fuzz=FuzzLoadCheckpoint -fuzztime=10s ./internal/runctl
