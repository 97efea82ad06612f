# Developer entry points. CI runs the same commands; keep them in sync
# with .github/workflows/ci.yml (bench is the exception: CI's bench-smoke
# job runs single workloads of it for 2 s, not the whole thing).

GO ?= go

.PHONY: build test race vet barriervet fuzz-smoke barrierbench-smoke bench

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# vet is the full static gate: the stock toolchain vet plus barriervet,
# the repo's own invariant analyzers (see internal/analyzers).
vet:
	$(GO) vet ./... && $(GO) run ./cmd/barriervet ./...

barriervet:
	$(GO) run ./cmd/barriervet ./...

fuzz-smoke:
	$(GO) test ./internal/transport -run '^$$' -fuzz '^FuzzTransport$$' -fuzztime 10s

# The CI cluster-load gate: loopback TCP, 16 groups x 8 procs, 30s of
# open-loop traffic under a seed-deterministic chaos schedule; exits
# non-zero unless the SLO verdict is PASS.
barrierbench-smoke:
	$(GO) run ./cmd/barrierbench -profile smoke

# The repo benchmark (BENCHMARK.json): probes plus the six workloads,
# results in benchmarks/out/. Builds into .bench_build/.
bench:
	bash benchmarks/run.sh
