GO ?= go

.PHONY: all build test race bench bench-scale bench-blob profile-scale fuzz fmt vet lint

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

fmt:
	gofmt -l -w .

vet:
	$(GO) vet ./...

# lint is part of the tier-1 loop: go vet, then the determinism suite
# (cmd/brisa-lint: maporder/unseededmap/walltime/globalrand over the
# deterministic packages), then staticcheck when installed (CI always runs
# it, pinned; locally it is optional so the target works offline).
lint: vet
	$(GO) run ./cmd/brisa-lint ./...
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./... ; \
	else \
		echo "staticcheck not installed; skipped (CI runs it pinned)"; \
	fi

# bench regenerates the scenario-suite records (BENCH_scenarios.json).
bench:
	$(GO) test -run '^$$' -bench BenchmarkScenarios -benchtime 1x .

# bench-scale regenerates the engine-scale records (BENCH_scale.json):
# tree dissemination at 1k, 2.5k, 10k and 100k nodes, single- and
# multi-stream (scale-tree-4x2500), with a 1/2/8-worker sweep at 10k,
# reporting wall-clock, allocations and simulator events/s per
# (scenario, workers).
bench-scale:
	$(GO) test -run '^$$' -bench BenchmarkScale -benchtime 1x -timeout 90m .

# profile-scale captures CPU and heap profiles of the canonical 10k-node
# engine-scale run (compressed join schedule, 10 messages, auto workers)
# into ./profiles/, for `go tool pprof ./profiles/cpu.out` sessions against
# the scheduler and collector hot paths.
profile-scale:
	mkdir -p profiles
	$(GO) run ./cmd/brisa-sim -nodes 10000 -messages 10 -rate 5 \
		-cpuprofile profiles/cpu.out -memprofile profiles/mem.out

# bench-blob regenerates the blob dissemination records (BENCH_blob.json):
# a payload-size sweep (128 KiB..1 MiB, with and without erasure coding) on
# the simulator plus one live loopback run, reporting per-node
# reconstruction MB/s and broadcaster upload overhead per case.
bench-blob:
	$(GO) test -run '^$$' -bench BenchmarkBlob -benchtime 1x .

# fuzz runs the wire-codec, connection-decoder, piggyback, view and dist-answer fuzz targets briefly (CI
# runs the same smoke); longer local sessions: go test -fuzz FuzzDecoder -fuzztime 5m ./internal/wire
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzDecoder$$' -fuzztime 10s ./internal/wire
	$(GO) test -run '^$$' -fuzz '^FuzzFrameRoundTrip$$' -fuzztime 10s ./internal/wire
	$(GO) test -run '^$$' -fuzz '^FuzzConnDecode$$' -fuzztime 10s ./internal/wire
	$(GO) test -run '^$$' -fuzz '^FuzzPiggyback$$' -fuzztime 10s ./internal/core
	$(GO) test -run '^$$' -fuzz '^FuzzView$$' -fuzztime 10s ./internal/hyparview
	$(GO) test -run '^$$' -fuzz '^FuzzDistAnswer$$' -fuzztime 10s .
