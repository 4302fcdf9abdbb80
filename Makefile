# Build/verify entry points. `make ci` is the full gate the repo's tests
# are expected to pass; individual targets exist for faster iteration.

GO ?= go

.PHONY: all build vet test race check-sim-equivalence check-serve-admission check-infer-equivalence check-int8-agreement check-telemetry-merge check-dist-equivalence check-bench bench-smoke bench-obs smoke-obs smoke-telemetry smoke-dist smoke-serve fuzz-wire ci clean

all: build

build:
	$(GO) build ./...

# vet also fails when any Go file in the repo (bench/ included) is not
# gofmt-formatted, listing the offenders.
vet:
	$(GO) vet ./...
	@unformatted=$$(gofmt -l .); if [ -n "$$unformatted" ]; then \
		echo "gofmt -l lists files that need formatting:"; echo "$$unformatted"; exit 1; fi

test:
	$(GO) test ./...

# The concurrency-heavy packages (training engine incl. the persistent
# gradient-shard worker pool, fold/collection pools, event engine, machine
# lifecycle, metrics registry/tracer) under the race detector.
race:
	$(GO) test -race ./internal/ml ./internal/core ./internal/sim ./internal/kernel ./internal/obs ./internal/serve ./internal/trace ./internal/dist

# The simulator's shortcuts must not move a bit. Besides the golden dataset
# hashes, each shortcut is checked against the work it skips: the event
# queue's one-queued-occurrence series against an eagerly scheduled
# container/heap reference (FuzzEventQueue's seed corpus), the machine that
# books time only on the attacker core against one that books it on every
# core, the jittered timer's short tick scan against the full scan, and the
# on-demand eBPF ring against a preallocated one. Same grep discipline as
# the other gates, anchored to the top-level PASS line.
check-sim-equivalence:
	$(GO) test -run 'TestGoldenDeterminism$$' -v ./internal/core \
		| grep -- '^--- PASS: TestGoldenDeterminism '
	$(GO) test -run 'TestUntrackedCoresEquivalence$$' -v ./internal/core \
		| grep -- '^--- PASS: TestUntrackedCoresEquivalence '
	$(GO) test -run 'FuzzEventQueue$$' -v ./internal/sim \
		| grep -- '^--- PASS: FuzzEventQueue '
	$(GO) test -run 'TestFirstCrossingJitteredMatchesFullScan$$' -v ./internal/attack \
		| grep -- '^--- PASS: TestFirstCrossingJitteredMatchesFullScan '
	$(GO) test -run 'TestRingBufferGrownMatchesPreallocated$$' -v ./internal/ebpf \
		| grep -- '^--- PASS: TestRingBufferGrownMatchesPreallocated '

# The serving daemon admits a request before it pays for it. Under the race
# detector: a malformed request is answered under its own id; 512 requests
# arriving at once on one P are all answered, not refused; with the queue
# full, refusals start no goroutine and allocate nothing; a connection
# that never reads stalls only itself; a connection whose writes fail
# still drains. The admitted path's zero allocations are checked without
# -race, under which sync.Pool drops slots at random. Same grep discipline
# as the other gates.
check-serve-admission:
	$(GO) test -race -run 'TestHandleConnEchoesBadRequestID$$' -v ./internal/serve \
		| grep -- '^--- PASS: TestHandleConnEchoesBadRequestID '
	$(GO) test -race -run 'TestHandleConnAnswersBacklog$$' -v ./internal/serve \
		| grep -- '^--- PASS: TestHandleConnAnswersBacklog '
	$(GO) test -race -run 'TestRefusalIsFree$$' -v ./internal/serve \
		| grep -- '^--- PASS: TestRefusalIsFree '
	$(GO) test -race -run 'TestSlowReaderStallsOnlyItself$$' -v ./internal/serve \
		| grep -- '^--- PASS: TestSlowReaderStallsOnlyItself '
	$(GO) test -race -run 'TestHandleConnWriteFailureDrains$$' -v ./internal/serve \
		| grep -- '^--- PASS: TestHandleConnWriteFailureDrains '
	$(GO) test -run 'TestAdmittedRequestAllocatesNothing$$' -v ./internal/serve \
		| grep -- '^--- PASS: TestAdmittedRequestAllocatesNothing '

# The compiled inference path must agree (argmax per trace) with the float64
# reference on every golden scenario. Run narrowly with -v and grep for the
# PASS line: a skipped test prints no PASS, so silent skips fail ci too.
check-infer-equivalence:
	$(GO) test -run 'TestCompiledReferenceEquivalence' -v ./internal/core \
		| grep -- '--- PASS: TestCompiledReferenceEquivalence'

# The int8 tier's two correctness gates, with the same grep discipline:
# the AVX2 kernels must be bit-identical to their scalar twins, and the
# quantized tier's argmax decisions must agree with the f64 reference on
# ≥99% of golden-grid traces (the rate itself is asserted inside the test).
check-int8-agreement:
	$(GO) test -run 'TestInt8KernelsBitIdentical' -v ./internal/ml \
		| grep -- '--- PASS: TestInt8KernelsBitIdentical'
	$(GO) test -run 'TestInt8ReferenceAgreementRate' -v ./internal/core \
		| grep -- '--- PASS: TestInt8ReferenceAgreementRate'

# The telemetry merge property: aggregating two registries through their
# JSON telemetry payloads must equal merging their snapshots directly,
# bucket-for-bucket. Same grep discipline as the other equivalence gates.
check-telemetry-merge:
	$(GO) test -run 'TestAggregatorMergeEquivalence' -v ./internal/obs \
		| grep -- '--- PASS: TestAggregatorMergeEquivalence'

# The distributed runner's correctness gate: a grid sharded over two
# in-process workers must produce per-cell results byte-identical to the
# single-process run and an identical merged manifest row set (modulo
# source/timing provenance). Same grep discipline as the other gates.
check-dist-equivalence:
	$(GO) test -run 'TestDistManifestEquivalence' -v ./internal/dist \
		| grep -- '--- PASS: TestDistManifestEquivalence'

# The repository benchmark's own tests (bench/ is a separate module): every
# workload runs once at seed 1 and its outputs must match the pinned
# digests in bench/testdata, so any change to the four workloads' results
# fails ci.
check-bench:
	cd bench && $(GO) test -count=1 .

# One-iteration pass over every benchmark in the repo (the root package's
# table benchmarks included): catches bit-rot in benchmark code without
# paying for stable timings. bench/ is the repository benchmark; its own
# module is exercised by check-bench.
bench-smoke:
	$(GO) test -run xxx -bench . -benchtime 1x ./...

# Observability overhead check: the instrumented collection sweep with obs
# off must match BenchmarkCollectDataset (see EXPERIMENTS.md baselines).
bench-obs:
	$(GO) test -run xxx -bench 'BenchmarkCollectDataset$$|BenchmarkObs' -benchmem ./internal/core

# End-to-end observability smoke: a small obs-enabled run must produce a
# manifest containing per-cell rows (grep proves the derivation ran).
smoke-obs:
	rm -rf smoke-obs-out
	$(GO) run ./cmd/experiments -scale small -only bg,f7 -obs -outdir smoke-obs-out -manifest run.json
	grep -q '"scenario": "bgnoise/quiet"' smoke-obs-out/run.json
	rm -rf smoke-obs-out

# Telemetry smoke: obstop scrapes its own debug server over HTTP, decodes
# the JSON payload, aggregates it, and prints "obstop selftest ok" — the
# whole export/scrape/merge path in one short run.
smoke-telemetry:
	$(GO) run ./cmd/obstop -selftest | grep -q 'obstop selftest ok'

# Distributed end-to-end smoke: a coordinator and two worker-replica
# processes split a small run over loopback TCP; the merged manifest must
# contain the per-cell rows and attribute them to the worker sources, and
# count bg's two cells once each: 2 planned and 2 completed, both in the
# merged metrics and in the pipeline section.
smoke-dist:
	rm -rf smoke-dist-out
	$(GO) build -o smoke-dist-out/experiments ./cmd/experiments
	./smoke-dist-out/experiments -worker 127.0.0.1:17961 -workername smoke-w1 & \
	./smoke-dist-out/experiments -worker 127.0.0.1:17961 -workername smoke-w2 & \
	./smoke-dist-out/experiments -coordinator 127.0.0.1:17961 -scale small -only bg \
		-outdir smoke-dist-out -manifest run.json
	grep -q '"scenario": "bgnoise/quiet"' smoke-dist-out/run.json
	grep -q '"source": "smoke-w' smoke-dist-out/run.json
	grep -Eq '"core\.cells\.planned": 2,?$$' smoke-dist-out/run.json
	grep -Eq '"core\.cells\.completed": 2,?$$' smoke-dist-out/run.json
	grep -Eq '"cells_planned": 2,?$$' smoke-dist-out/run.json
	grep -Eq '"cells_completed": 2,?$$' smoke-dist-out/run.json
	rm -rf smoke-dist-out

# Serving deployment smoke across real processes: the daemon trains and
# freezes logreg, listens, and serves its debug endpoints; obstop scrapes
# its telemetry once and must list the daemon's windowed end-to-end
# latency; on SIGTERM the daemon must say it is shutting down and exit 0.
# The daemon gets 60 s to start listening and is killed on every exit
# path, so no process outlives the target.
smoke-serve:
	rm -rf smoke-serve-out
	$(GO) build -o smoke-serve-out/serve ./cmd/serve
	$(GO) build -o smoke-serve-out/obstop ./cmd/obstop
	@set -e; out=smoke-serve-out; \
	$$out/serve -addr 127.0.0.1:17962 -httpaddr 127.0.0.1:17963 2> $$out/serve.log & pid=$$!; \
	trap 'kill -9 $$pid 2>/dev/null || true' EXIT; trap 'exit 1' HUP INT TERM; \
	i=0; until grep -q 'listening on' $$out/serve.log; do \
		if [ $$i -ge 600 ] || ! kill -0 $$pid 2>/dev/null; then \
			echo "smoke-serve: daemon is not listening"; cat $$out/serve.log; exit 1; fi; \
		i=$$((i+1)); sleep 0.1; done; \
	$$out/obstop -once 127.0.0.1:17963 > $$out/obstop.txt || { cat $$out/obstop.txt; exit 1; }; \
	grep -q 'serve\.win\.e2e_us' $$out/obstop.txt || { cat $$out/obstop.txt; exit 1; }; \
	kill -TERM $$pid; wait $$pid; \
	grep -q 'serve: shutting down' $$out/serve.log || { cat $$out/serve.log; exit 1; }
	rm -rf smoke-serve-out

# The network decoders under the fuzzer, 10 s each (`test` runs only their
# seed corpora): the frame reader, and the serve, dist and telemetry
# payload decoders behind it.
fuzz-wire:
	$(GO) test -run '^$$' -fuzz '^FuzzFrame$$' -fuzztime 10s ./internal/wire
	$(GO) test -run '^$$' -fuzz '^FuzzFrameDecode$$' -fuzztime 10s ./internal/serve
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeMsg$$' -fuzztime 10s ./internal/dist
	$(GO) test -run '^$$' -fuzz '^FuzzTelemetryDecode$$' -fuzztime 10s ./internal/obs

ci: build vet test race bench-smoke check-sim-equivalence check-serve-admission check-infer-equivalence check-int8-agreement check-telemetry-merge check-dist-equivalence check-bench smoke-obs smoke-telemetry smoke-dist smoke-serve fuzz-wire

clean:
	$(GO) clean
	rm -f cpu.prof mem.prof
	rm -rf smoke-obs-out smoke-dist-out smoke-serve-out
