# Convenience targets for the reproduction. Everything is plain `go` —
# these just bundle the invocations the docs mention.

.PHONY: all build test short race ci chaos sockets fuzz soak bench bench-md bench-transport transport-loc repro examples fmt vet

all: build vet test

build:
	go build ./...

vet:
	go vet ./...

fmt:
	gofmt -l .

test:
	go test ./...

# Short mode skips the 5-node/300-step soak runs.
short:
	go test -short ./...

# Race-detector pass over the short suite (the parallel explorer and the
# concurrent ACC/XACC candidate enumeration run under it).
race:
	go test -short -race ./...

# Mirror of the CI workflow's push/PR job (.github/workflows/ci.yml).
# staticcheck runs when installed (CI installs it; locally it is optional —
# nothing here fetches dependencies).
ci:
	go build ./...
	go vet ./...
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi
	@if command -v staticcheck >/dev/null 2>&1; then staticcheck ./...; else echo "staticcheck not installed; skipping (CI runs it)"; fi
	go test -short -race ./...
	go test -race ./internal/transport/
	go test -race ./internal/conformance/
	go -C bench vet ./... && go -C bench test ./...
	go run ./cmd/crdt-sim -chaos -algo rga -nodes 3 -ops 10 -seed 1 -seeds 5
	go run ./cmd/crdt-sim -chaos -algo aw-set -nodes 3 -ops 10 -seed 1 -seeds 5
	go run ./cmd/crdt-sim -chaos -algo rga -nodes 3 -ops 10 -seed 1 -seeds 5 -snapshot-every 4
	@$(MAKE) --no-print-directory transport-loc

# The transport's size, numbers ROADMAP.md tracks: non-test Go lines in
# internal/transport, and the code lines among them — blank and comment-only
# lines do not count, so deleting comments is not a reduction.
transport-loc:
	@src=$$(find internal/transport -maxdepth 1 -name '*.go' ! -name '*_test.go' -exec cat {} +); \
	echo "internal/transport non-test lines: $$(printf '%s\n' "$$src" | wc -l)"; \
	echo "internal/transport code lines: $$(printf '%s\n' "$$src" | grep -vcE '^\s*(//.*)?$$')"

# Mirror of CI's chaos + fuzz smoke: seeded fault-injection runs over every
# registry algorithm, then a short coverage-guided pass over both fuzz
# targets. Each chaos line is replayable — rerun with the printed seed.
chaos:
	go run ./cmd/crdt-sim -chaos -algo rga -nodes 3 -ops 10 -seed 1 -seeds 5
	go run ./cmd/crdt-sim -chaos -algo aw-set -nodes 3 -ops 10 -seed 1 -seeds 5
	go run ./cmd/crdt-sim -chaos -algo rga -nodes 3 -ops 10 -seed 1 -seeds 5 -snapshot-every 4
	@for a in counter g-set lww-register lww-set 2p-set cseq rw-set; do \
		go run ./cmd/crdt-sim -chaos -algo $$a -nodes 3 -ops 10 -seed 1 -seeds 3 | tail -1; done
	go test -run '^$$' -fuzz '^FuzzClusterDelivery$$' -fuzztime 30s ./internal/sim/

# Mirror of CI's socket-transport smoke job: the in-repo two-OS-process test
# plus the node/manifest multiplexing tests, then the crdt-sim socket meshes
# of scripts/socket-smoke.sh — the script CI's job runs, so the two cannot
# drift: unix and tcp pairs, a batched three-process mesh, late joiners with
# snapshot catch-up (one object, and four mixed objects over tcp) and the
# parallel receive pipeline, each checking byte-identical canonical states
# and the ledgers the binary prints.
sockets:
	go test -run 'TestStream|TestNode|TestManifest' ./internal/transport/
	bash scripts/socket-smoke.sh

fuzz:
	go test -run '^$$' -fuzz '^FuzzCheckACC$$' -fuzztime 30s ./internal/core/
	go test -run '^$$' -fuzz '^FuzzClusterDelivery$$' -fuzztime 30s ./internal/sim/
	go test -run '^$$' -fuzz '^FuzzCodecRoundTrip$$' -fuzztime 30s ./internal/codec/
	go test -run '^$$' -fuzz '^FuzzSnapshotInstall$$' -fuzztime 30s ./internal/transport/
	go test -run '^$$' -fuzz '^FuzzPeerDelivery$$' -fuzztime 30s ./internal/transport/

soak:
	go test -run TestSoak ./internal/conformance/

# Full benchmark sweep; also regenerates the checked-in machine-readable
# explorer ablation (BENCH_explore.json) that the nightly CI job uploads.
bench:
	go test -bench=. -benchmem . > bench.out; status=$$?; cat bench.out; \
	  [ $$status -eq 0 ] && go run ./cmd/bench-report -json -group ExploreParallel -out BENCH_explore.json < bench.out; \
	  rm -f bench.out; exit $$status

# Pipe benchmarks through the markdown renderer.
bench-md:
	go test -bench=. -benchmem . | go run ./cmd/bench-report

# Mirror of CI's transport-bench job: the stream-throughput sweep (network ×
# batch size × payload × receive-pipeline workers) and the peer layer's
# Peer.Handle rows, run 3× and collapsed to each case's fastest run (min-of-N
# damps scheduler noise). The sweep renders to bench-current.json, gated
# against the checked-in BENCH_transport.json — any case more than 25%
# slower, or past +34% allocs/op, fails, and so does a baseline case the
# sweep no longer produces. The peer rows render to
# bench-peer-current.json, gated against BENCH_peer.json with the same two
# tolerances plus B/op at +50% (EXPERIMENTS.md derives it), so a replica that
# goes back to copying its state on every apply fails. Both gates run before
# the target reports. The outputs are deliberately NOT named like the
# baselines: bench-report refuses a -out that shadows the baseline's filename
# outside its canonical path. To regenerate a baseline after an intentional
# perf change, rerun the sweep with `-worst -out BENCH_transport.json` (or
# `-group PeerHandle -worst -out BENCH_peer.json`; see EXPERIMENTS.md).
bench-transport:
	go test -run '^$$' -bench 'BenchmarkStreamThroughput|BenchmarkPeerHandle' -benchtime=0.3s -count=3 -benchmem ./internal/transport/ > bench_transport.out || { s=$$?; cat bench_transport.out; rm -f bench_transport.out; exit $$s; }
	cat bench_transport.out
	go run ./cmd/bench-report -json -group StreamThroughput -best -out bench-current.json -baseline BENCH_transport.json -tolerance 0.25 -alloc-tolerance 0.34 < bench_transport.out; s1=$$?; \
	go run ./cmd/bench-report -json -group PeerHandle -best -out bench-peer-current.json -baseline BENCH_peer.json -tolerance 0.25 -alloc-tolerance 0.34 -bytes-tolerance 0.5 < bench_transport.out; s2=$$?; \
	rm -f bench_transport.out; [ $$s1 -eq 0 ] && [ $$s2 -eq 0 ]

# One-command reproduction of every paper experiment.
repro:
	go run ./cmd/paper-report

examples:
	go run ./examples/quickstart
	go run ./examples/collab-editor
	go run ./examples/shopping-cart
	go run ./examples/client-verify
	go run ./examples/todo-board
	go run ./examples/offline-sync
