# Developer entry points. CI runs the same commands; keep them in sync
# with .github/workflows/ci.yml (bench is the exception: CI's bench-smoke
# job runs single workloads of it for 2 s, not the whole thing).

GO ?= go

.PHONY: build test race vet barriervet fuzz-smoke barrierd-e2e barrierbench-smoke bench bench-ab tier1-soak

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# The uncached suite N times in a row, one line per run; a failing
# package's JSON is kept under .bench_build/soak/ (scripts/tier1-soak.sh).
#	make tier1-soak N=10
N ?= 10
tier1-soak:
	bash scripts/tier1-soak.sh $(N)

# vet is the full static gate: gofmt on every tracked Go file, the stock
# toolchain vet, and barriervet, the repo's own invariant analyzers (see
# internal/analyzers).
vet:
	@unformatted=$$(gofmt -l $$(git ls-files '*.go')); \
	if [ -n "$$unformatted" ]; then echo "gofmt needed on:"; echo "$$unformatted"; exit 1; fi
	$(GO) vet ./... && $(GO) run ./cmd/barriervet ./...

barriervet:
	$(GO) run ./cmd/barriervet ./...

# The 13 targets of CI's fuzz-smoke matrix, 10 s each, one after another.
FUZZ_CONFORMANCE = FuzzCB FuzzRB FuzzTB FuzzDT FuzzMB FuzzRuntime \
	FuzzRuntimeTCP FuzzRuntimeTree FuzzRuntimeMux FuzzRuntimeHybrid \
	FuzzRuntimeByz FuzzScheduleParse

fuzz-smoke:
	for target in $(FUZZ_CONFORMANCE); do \
		$(GO) test ./internal/conformance -run '^$$' -fuzz "^$$target\$$" -fuzztime 10s || exit 1; \
	done
	$(GO) test ./internal/transport -run '^$$' -fuzz '^FuzzTransport$$' -fuzztime 10s

# CI's barrierd job: the daemon's loopback e2e tests (startup validation,
# the kill + rejoin table, flags/roster-file equivalence, halt -> 503).
barrierd-e2e:
	$(GO) test ./cmd/barrierd -count=1 -v -timeout 10m

# The CI cluster-load gate: loopback TCP, 16 groups x 8 procs, 30s of
# open-loop traffic under a seed-deterministic chaos schedule; exits
# non-zero unless the SLO verdict is PASS.
barrierbench-smoke:
	$(GO) run ./cmd/barrierbench -profile smoke

# The repo benchmark (BENCHMARK.json): probes plus the six workloads,
# results in benchmarks/out/. Builds into .bench_build/.
bench:
	bash benchmarks/run.sh

# Paired runs of one workload, the committed tree of REF against this
# checkout, alternating which side goes first; prints per-side median
# [q1, q3], pairs won and the verdict a performance claim needs (see
# scripts/bench-ab.sh). The ref is exported under .bench_build/ab/.
#	make bench-ab REF=HEAD~1 WORKLOAD=ring32-inproc
PAIRS ?= 10
SECONDS ?= 20
bench-ab:
	bash scripts/bench-ab.sh "$(REF)" "$(WORKLOAD)" $(PAIRS) $(SECONDS)
