# The exact tier-1 + lint gate CI runs. `make check` before pushing.

GO ?= go

.PHONY: build test race lint lint-json check bench

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The full race-detector shard CI runs in its own job (slow: race
# builds take several times longer than plain `go test`).
race:
	$(GO) test -race ./...

lint:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt needed on:"; echo "$$out"; exit 1; fi
	$(GO) vet ./...
	$(GO) run ./cmd/putgetlint ./...

# Machine-readable findings (the stream CI converts to ::error
# annotations): exit 0 → [], exit 2 → findings, exit 1 → load error.
lint-json:
	$(GO) run ./cmd/putgetlint -json ./...

check: build test lint
	@echo "check: all gates green"

# Wall-clock simulator cost on every BENCHMARK.json workload, the runs
# CI's bench job makes (perfbench/run.sh's build output stays under
# .bench_build/).
bench:
	@set -e; for w in pair-gpu pair-host kvserve allreduce; do \
		bash perfbench/run.sh --workload $$w --seed 1 --seconds 20 --trace 0; \
	done
