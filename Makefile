# Build/verify entry points. `make ci` is the full gate the repo's tests
# are expected to pass; individual targets exist for faster iteration.

GO ?= go

.PHONY: all build vet test race bench bench-ml bench-infer bench-infer-smoke bench-infer-int8 bench-infer-int8-smoke bench-serve bench-serve-smoke bench-dist bench-dist-smoke check-infer-equivalence check-int8-agreement check-telemetry-merge check-dist-equivalence check-bench bench-smoke bench-obs smoke-obs smoke-telemetry smoke-dist ci clean

# Run directory for benchmark artifacts. Every bench target drops all of its
# outputs — profiles and the machine-readable JSON from cmd/benchjson — into
# this one directory, mirroring cmd/experiments' -outdir convention.
# Override per run: `make bench OUTDIR=runs/2026-08-05`.
OUTDIR ?= bench-out

$(OUTDIR):
	mkdir -p $(OUTDIR)

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

# Full benchmark sweep (slow: regenerates every table/figure at bench scale).
# CPU/heap profiles land next to the parsed BENCH.json in $(OUTDIR) instead
# of littering the repo root.
bench: | $(OUTDIR)
	$(GO) test -run xxx -bench . -benchmem \
		-cpuprofile $(OUTDIR)/cpu.prof -memprofile $(OUTDIR)/mem.prof . \
		| $(GO) run ./cmd/benchjson -tee -o $(OUTDIR)/BENCH.json

# Just the ML-engine benchmarks: training throughput, inference, and the
# f64/f32 GEMM kernels. BENCH_ml.json is the machine-readable trajectory
# future changes diff against (the committed copy at the repo root is the
# current baseline).
bench-ml: | $(OUTDIR)
	$(GO) test -run xxx -bench 'BenchmarkTrainPaperNet|BenchmarkGEMM|BenchmarkPredictBatch|BenchmarkGemm32Kernel|BenchmarkAblationClassifiers' -benchmem . ./internal/ml \
		| $(GO) run ./cmd/benchjson -tee -o $(OUTDIR)/BENCH_ml.json

# Inference fast path only: compiled-vs-reference PredictBatch plus the f32
# kernel behind it.
bench-infer: | $(OUTDIR)
	$(GO) test -run xxx -bench 'BenchmarkPredictBatch|BenchmarkGemm32Kernel' -benchmem . ./internal/ml \
		| $(GO) run ./cmd/benchjson -tee -o $(OUTDIR)/BENCH_infer.json

# One-iteration pass over the inference benchmarks: catches bit-rot in the
# compiled path's benchmark plumbing without paying for stable timings.
bench-infer-smoke:
	$(GO) test -run xxx -bench 'BenchmarkPredictBatch|BenchmarkGemm32Kernel' -benchtime 1x . ./internal/ml

# Quantized inference tier: the int8 PredictBatch leg measured back to back
# with the f32 compiled leg it is gated against (≥2× in EXPERIMENTS.md),
# plus the int8 kernel microbenchmarks. BENCH_infer_int8.json at the repo
# root is the committed baseline; the compiled leg rides along so the pair
# is always from one run on one machine.
bench-infer-int8: | $(OUTDIR)
	$(GO) test -run xxx -bench 'BenchmarkPredictBatch|BenchmarkQ8' -benchmem . ./internal/ml \
		| $(GO) run ./cmd/benchjson -tee -o $(OUTDIR)/BENCH_infer_int8.json

# One-iteration pass over the int8 benchmarks: catches bit-rot in the
# quantized path's benchmark plumbing without paying for stable timings.
bench-infer-int8-smoke:
	$(GO) test -run xxx -bench 'BenchmarkPredictBatch/int8|BenchmarkQ8' -benchtime 1x . ./internal/ml

# Serving daemon: sustained throughput of the admission-controlled
# micro-batching server vs the unbatched and naive paths, the low-load
# latency legs, and the tier×batchwait×workers sweep. BENCH_serve.json at
# the repo root is the committed baseline; profiles land in $(OUTDIR).
bench-serve: | $(OUTDIR)
	$(GO) test -run xxx -bench 'BenchmarkServe' -benchtime 2s \
		-cpuprofile $(OUTDIR)/serve-cpu.prof -memprofile $(OUTDIR)/serve-mem.prof \
		./internal/serve \
		| $(GO) run ./cmd/benchjson -tee -o $(OUTDIR)/BENCH_serve.json

# One-iteration pass over the serving benchmarks: catches bit-rot in the
# load-harness plumbing without paying for stable timings.
bench-serve-smoke:
	$(GO) test -run xxx -bench 'BenchmarkServe' -benchtime 1x ./internal/serve

# Distributed runner: a paced 16-cell grid over 1/2/4 worker replicas
# (dispatcher scaling — wall clock should halve per doubling) plus the
# worker-churn leg where a replica dies holding a cell and the retry path
# completes the grid. BENCH_dist.json at the repo root is the committed
# baseline; EXPERIMENTS.md's "Distributed runs" section interprets it.
bench-dist: | $(OUTDIR)
	$(GO) test -run xxx -bench 'BenchmarkDist' -benchtime 5x ./internal/dist \
		| $(GO) run ./cmd/benchjson -tee -o $(OUTDIR)/BENCH_dist.json

# One-iteration pass over the dist benchmarks: catches bit-rot in the
# coordinator/worker bench harness without paying for stable timings.
bench-dist-smoke:
	$(GO) test -run xxx -bench 'BenchmarkDist' -benchtime 1x ./internal/dist

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

# The telemetry merge property: aggregating two registries through the
# binary wire format must equal merging their snapshots directly,
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

# One-iteration pass over the simulation-side benchmarks: catches bit-rot in
# benchmark code without paying for stable timings.
bench-smoke:
	$(GO) test -run xxx -bench . -benchtime 1x ./internal/sim ./internal/kernel ./internal/core ./internal/obs

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
# the binary frame, aggregates it, and prints "obstop selftest ok" — the
# whole export/scrape/merge path in one short run.
smoke-telemetry:
	$(GO) run ./cmd/obstop -selftest | grep -q 'obstop selftest ok'

# Distributed end-to-end smoke: a coordinator and two worker-replica
# processes split a small run over loopback TCP; the merged manifest must
# contain the per-cell rows and attribute them to the worker sources.
smoke-dist:
	rm -rf smoke-dist-out
	$(GO) build -o smoke-dist-out/experiments ./cmd/experiments
	./smoke-dist-out/experiments -worker 127.0.0.1:17961 -workername smoke-w1 & \
	./smoke-dist-out/experiments -worker 127.0.0.1:17961 -workername smoke-w2 & \
	./smoke-dist-out/experiments -coordinator 127.0.0.1:17961 -scale small -only bg \
		-outdir smoke-dist-out -manifest run.json
	grep -q '"scenario": "bgnoise/quiet"' smoke-dist-out/run.json
	grep -q '"source": "smoke-w' smoke-dist-out/run.json
	rm -rf smoke-dist-out

ci: build vet test race bench-smoke bench-infer-smoke bench-infer-int8-smoke bench-serve-smoke bench-dist-smoke check-infer-equivalence check-int8-agreement check-telemetry-merge check-dist-equivalence check-bench smoke-obs smoke-telemetry smoke-dist

clean:
	$(GO) clean
	rm -f cpu.prof mem.prof
	rm -rf smoke-obs-out smoke-dist-out bench-out
