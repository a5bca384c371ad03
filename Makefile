# Tier-1 verification recipe. `make verify` is what CI (and the roadmap's
# acceptance gate) runs: build, full test suite, vet, a race-detector
# pass over the concurrency-heavy packages (client batching layer and
# replica protocol), and a short seeded chaos soak under -race checked by
# the linearizability history oracle.

GO ?= go

.PHONY: verify build test vet race bench bench-smoke bench-write-smoke chaos-smoke chaos-soak docs-check obs-smoke tiering-smoke codec-smoke qos-smoke seq-smoke reconfig-smoke perfbench-check size

verify: build test vet race chaos-smoke bench-write-smoke obs-smoke tiering-smoke codec-smoke qos-smoke seq-smoke reconfig-smoke docs-check perfbench-check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

race:
	$(GO) test -race ./internal/core/... ./internal/replica/... ./internal/transport/... ./internal/storage/... ./internal/ctrlplane/...

# Short seeded chaos soak (drop/dup/reorder/jitter + replica crashes +
# leader kills) under -race; a failure prints the seed and the nemesis
# schedule to replay it (FLEXLOG_CHAOS_SEED=<seed>).
chaos-smoke:
	$(GO) test -race -short -count=1 -run 'TestChaosSoakShort|TestScheduleDeterminism' ./internal/chaos/

# Full ≥30s acceptance soak (see EXPERIMENTS.md "chaos soak").
chaos-soak:
	FLEXLOG_CHAOS_SOAK=1 $(GO) test -race -count=1 -timeout 300s -run 'TestChaosSoak$$' -v ./internal/chaos/

bench:
	$(GO) run ./cmd/flexlog-bench -quick all

# Fast profiling loop for the read path: one quick ablation run with CPU
# and heap profiles dropped next to the binary's working dir.
bench-smoke:
	$(GO) run ./cmd/flexlog-bench -quick -cpuprofile cpu.pprof -memprofile mem.pprof ablate-readpath

# Write-path smoke: the quick ablation must finish (well) inside 30s and
# report zero drops; part of `make verify` so the parallel write path
# can't silently rot. The block profile captures lane/lock contention.
bench-write-smoke:
	timeout 30 $(GO) run ./cmd/flexlog-bench -quick -blockprofile block.pprof ablate-writepath

# Tiered-storage lifecycle smoke: the checkpoint-bounded-recovery unit
# test (replay stays flat while the log grows under a PM budget) plus the
# quick ablate-tiering curve (eviction under budget, cold-tier reads,
# flat recovery vs the lifecycle-less baseline). See DESIGN.md §11.
tiering-smoke:
	$(GO) test -count=1 -run 'TestCheckpointBoundsRecoveryReplay|TestBackgroundEvictionUnderBudget' ./internal/storage/
	timeout 60 $(GO) test -count=1 -run 'TestTieringShape' ./internal/bench/

# Observability overhead smoke: the ablation runs the same append workload
# with the registry + tracing off and on, and fails if modeled throughput
# drops more than 5% (see internal/bench/obs.go and DESIGN.md §9).
obs-smoke:
	timeout 60 $(GO) run ./cmd/flexlog-bench -quick ablate-obs

# Wire-codec smoke (DESIGN.md §12): the 0 allocs/op ceiling on the hot
# frame types, the golden-bytes pin of the wire format, and the quick
# TCP-deployment ablation (binary must hold >= 2x gob append throughput
# over real loopback sockets).
codec-smoke:
	$(GO) test -count=1 -run 'TestCodecZeroAllocHotPath|TestCodecGolden' ./internal/proto/
	timeout 120 $(GO) test -count=1 -run 'TestAblateCodecShape' ./internal/bench/

# Multi-tenant QoS smoke (DESIGN.md §13): the quick ablate-qos run must
# show noisy-neighbor isolation (victim keeps >= ~80% of solo throughput
# while the aggressor gets admission-throttled), zero sheds at nominal
# load, and a hedged-read P99 win under a jitter-degraded replica; plus
# the lane backpressure and retry-after unit tests under -race.
qos-smoke:
	$(GO) test -race -count=1 -run 'TestLaneBackpressure|TestLaneTenantFIFO|TestBackoffRetryAfter' ./internal/transport/ ./internal/core/
	timeout 120 $(GO) test -count=1 -run 'TestAblateQoSShape' ./internal/bench/

# Lock-free sequencer smoke (DESIGN.md §14): the -race ordering stress
# tests (concurrent colors with duplicate retries; epoch bumps forced into
# a request flood) plus the quick ablate-seq curve (order lanes must hold
# >= 3x modeled ordering throughput at 64 concurrent colors with the
# single-driver round-trip inside 10%).
seq-smoke:
	$(GO) test -race -count=1 -run 'TestConcurrentOrderingStress|TestEpochBumpDuringFlood' ./internal/seq/
	timeout 120 $(GO) test -count=1 -run 'TestAblateSeqShape' ./internal/bench/

# Reconfiguration smoke (DESIGN.md §15): the -race stress test (appends
# flooding two colors through a concurrent shard split + replica drain +
# replica add, gated by the histcheck oracle) plus the quick
# ablate-reconfig curve (bounded dip during the window, post-split
# throughput >= 95% of pre-split).
reconfig-smoke:
	$(GO) test -race -count=1 -run 'TestReconfigUnderLoad' ./internal/ctrlplane/
	timeout 60 $(GO) test -count=1 -run 'TestAblateReconfigShape' ./internal/bench/

# Godoc coverage gate: every exported symbol in internal/obs (and the
# control plane's operator-facing API) must carry a doc comment
# (OPERATIONS.md's coverage test guards the metric names; this guards the
# API docs). -flags verifies every flexlog-server / flexlog-cli flag is
# documented in README.md or OPERATIONS.md.
docs-check:
	$(GO) run ./cmd/docs-check internal/obs internal/ctrlplane
	$(GO) run ./cmd/docs-check -flags cmd/flexlog-server cmd/flexlog-cli

# The benchmark harness (perfbench/) is its own module, so the root
# `go build ./...` cannot see a deleted or renamed exported symbol it
# still uses. Vet and test it against this tree, offline.
perfbench-check:
	cd perfbench && GOFLAGS=-mod=mod GOPROXY=off $(GO) vet . && GOFLAGS=-mod=mod GOPROXY=off $(GO) test .

# Code-size ledger for simplicity work (ROADMAP: track net non-test lines,
# wire tags and config fields): non-test Go lines of the root module
# (perfbench/ is its own module and excluded), the wire type tags in
# internal/proto/wire.go (tag 255 included), and the fields of every
# *Config struct in the replica, seq and core packages.
size:
	@echo "go_lines      $$(find . -name '*.go' ! -name '*_test.go' ! -path './perfbench/*' | xargs cat | wc -l)"
	@echo "wire_tags     $$(grep -cE '^[[:space:]]+Tag[A-Za-z]+[[:space:]]+byte = [0-9]+' internal/proto/wire.go)"
	@echo "config_fields $$(awk '/^type [A-Za-z]*Config struct \{/ { f = 1; next } f && /^\}/ { f = 0 } f { sub(/\/\/.*/, ""); if (NF == 0) next; n++; for (i = 1; i < NF; i++) if ($$i ~ /,$$/) n++ } END { print n }' $$(ls internal/replica/*.go internal/seq/*.go internal/core/*.go | grep -v '_test\.go$$'))"
