# DIPBench-Go build targets.

GO ?= go

.PHONY: all build test test-race bench bench-full bench-json cover \
        run-quickstart run-comparison fig10 fig11 full-run spec clean

all: build test

build:
	$(GO) build ./...
	$(GO) vet ./...

test:
	$(GO) test ./...

test-race:
	$(GO) test -race ./...

# Quick benchmark pass (3 iterations each).
bench:
	$(GO) test -bench=. -benchmem -benchtime=3x .

# Default-duration benchmark pass.
bench-full:
	$(GO) test -bench=. -benchmem .

# The repo's benchmark (BENCHMARK.json): six workloads, end-to-end and
# per-layer metrics in bench/out/BENCH.json, diffed against the last
# committed baseline.
bench-json:
	bash bench/run.sh -baseline bench/results/BENCH_13.json

cover:
	$(GO) test -cover ./internal/...

run-quickstart:
	$(GO) run ./examples/quickstart

run-comparison:
	$(GO) run ./examples/comparison

# Regenerate the paper's Figs. 10/11 quickly (compressed schedule).
fig10:
	$(GO) test -bench=Fig10 -benchtime=3x .

fig11:
	$(GO) test -bench=Fig11 -benchtime=3x .

# The paper's full configuration: 100 periods at t=1 per datasize
# (several minutes each; writes results/).
full-run:
	mkdir -p results
	$(GO) run ./cmd/dipbench -d 0.05 -t 1 -periods 100 -verify \
		-csv results/fig10_full.csv -series results/fig10_series.csv \
		| tee results/fig10_full.txt
	$(GO) run ./cmd/dipbench -d 0.1 -t 1 -periods 100 -verify \
		-csv results/fig11_full.csv | tee results/fig11_full.txt

spec:
	$(GO) run ./cmd/dipbench -spec

clean:
	$(GO) clean ./...
