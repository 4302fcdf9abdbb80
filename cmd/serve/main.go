// Command serve is the fingerprint-serving daemon: it trains a classifier
// on simulated traces once at startup, freezes the model into a fast
// inference tier (int8 by default), and serves classification requests
// over the length-prefixed binary TCP protocol (internal/serve) with
// admission-controlled micro-batching.
//
// Admission comes before any work: a request that finds the queue (-queue)
// full is refused with a 16-byte overloaded answer before it is decoded or
// preprocessed, and one connection may have at most 256 requests
// unanswered before its reader waits. So the daemon's memory is bounded by
// its queue depth, not by the load offered to it.
//
// Usage:
//
//	serve [-addr :7077] [-clf logreg|cnn] [-infer int8|compiled]
//	      [-scale small|medium|full] [-seed N]
//	      [-maxbatch 32] [-queue N] [-deadline 0]
//	      [-obs] [-progress 2s] [-manifest run.json] [-httpaddr :0]
//	      [-outdir dir] [-cpuprofile f] [-memprofile f]
//
// The daemon listens until SIGINT or SIGTERM, then prints "serve: shutting
// down", fails /readyz, closes the listener and exits 0. Its speed is
// measured elsewhere: bench/'s serve-open workload drives it with
// open-loop load over TCP, and `go test -bench BenchmarkServe
// ./internal/serve` compares the micro-batching server with the naive
// one-request-one-PredictBatch path in process.
//
// Run manifests (-manifest) record the serve.* histograms with
// interpolated p50/p95/p99, so tail latency lands in the run artifact,
// not just in a live /debug/vars scrape.
//
// Live telemetry: -progress lines report the last-10 s window (req/s and
// e2e p50/p95/p99), -httpaddr additionally serves /debug/telemetry (the
// JSON snapshot cmd/obstop scrapes), /debug/events (the flight recorder
// as JSON-lines), and /healthz + /readyz probes. With -outdir the flight
// recorder is also dumped to events.jsonl on shutdown.
package main

import (
	"errors"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/ml"
	"repro/internal/obs"
	"repro/internal/serve"
)

func main() {
	os.Exit(run())
}

func run() int {
	addr := flag.String("addr", ":7077", "TCP listen address")
	clf := flag.String("clf", "logreg", "classifier to train and freeze: logreg or cnn")
	infer := flag.String("infer", "int8", "frozen inference tier: int8 (falls back to compiled per model) or compiled")
	scaleName := flag.String("scale", "small", "training dataset scale: small, medium, or full")
	seed := flag.Uint64("seed", 1, "root random seed")
	maxBatch := flag.Int("maxbatch", 0, "max coalesced batch width (0 = the compiled tier's micro-batch width)")
	queueDepth := flag.Int("queue", 0, "submission queue bound; beyond it requests shed with an overload error (0 = 4×maxbatch)")
	deadline := flag.Duration("deadline", 0, "per-request deadline; expired requests are dropped before scoring (0 = none)")
	obsOn := flag.Bool("obs", false, "enable the observability layer (metrics + span tracing)")
	progress := flag.Duration("progress", 0, "live progress-line interval on stderr (implies -obs)")
	manifestPath := flag.String("manifest", "", "write a run-manifest JSON to this file (implies -obs)")
	httpAddr := flag.String("httpaddr", "", "serve /debug/vars, /debug/pprof, /debug/telemetry, /debug/events, /healthz, /readyz on this address (implies -obs)")
	obsDir := flag.String("outdir", "", "directory observability artifacts land in: manifest, metrics.json, profiles")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile to this file at exit")
	flag.Parse()

	if *progress > 0 || *manifestPath != "" || *httpAddr != "" {
		*obsOn = true
	}
	if *obsOn {
		obs.Enable()
	}
	resolve := func(p string) string {
		if p == "" || *obsDir == "" || filepath.IsAbs(p) {
			return p
		}
		return filepath.Join(*obsDir, p)
	}
	if *obsDir != "" {
		if err := os.MkdirAll(*obsDir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
	}
	prof, err := obs.StartProfile(resolve(*cpuProfile), resolve(*memProfile))
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	defer func() {
		if err := prof.Stop(); err != nil {
			fmt.Fprintln(os.Stderr, err)
		}
	}()
	if *httpAddr != "" {
		dbgAddr, closeDebug, err := obs.ServeDebug(*httpAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		fmt.Fprintf(os.Stderr, "obs: debug server on http://%s/debug/vars\n", dbgAddr)
		defer closeDebug()
	}

	tier, err := ml.ParseInferTier(*infer)
	if err == nil && tier == ml.TierReference {
		err = errors.New("serve: serving requires a compiled tier (want int8 or compiled)")
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	sc, err := trainScale(*scaleName, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}

	start := time.Now()
	fmt.Fprintf(os.Stderr, "serve: training %s at scale %s (seed %d)...\n", *clf, *scaleName, *seed)
	sm, err := core.Runner{Classifier: *clf, Tier: tier}.BuildServingModel(core.ServingScenario(), sc)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	fmt.Fprintf(os.Stderr, "serve: %s frozen at tier %s in %v (%d classes, input %d)\n",
		*clf, sm.Tier, time.Since(start).Round(time.Millisecond), sm.Classes, sm.InputLen)

	srv, err := serve.New(serve.Config{
		Model:      sm.Model,
		Prep:       sm.Prep,
		InputLen:   sm.InputLen,
		MaxBatch:   *maxBatch,
		QueueDepth: *queueDepth,
		Deadline:   *deadline,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}

	rep := obs.StartReporter(os.Stderr, *progress, serve.ProgressLine)
	writeObs := func(runErr error) {
		rep.Stop()
		if !*obsOn {
			return
		}
		if *obsDir != "" {
			if err := obs.WriteMetricsFile(filepath.Join(*obsDir, "metrics.json")); err != nil {
				fmt.Fprintln(os.Stderr, err)
			}
			evPath := filepath.Join(*obsDir, "events.jsonl")
			if f, err := os.Create(evPath); err != nil {
				fmt.Fprintln(os.Stderr, err)
			} else {
				if err := obs.DefaultEvents.WriteJSONL(f); err != nil {
					fmt.Fprintln(os.Stderr, err)
				}
				f.Close()
				fmt.Fprintf(os.Stderr, "obs: flight recorder dumped to %s (%d events)\n",
					evPath, len(obs.DefaultEvents.Events()))
			}
		}
		if *manifestPath == "" {
			return
		}
		m := obs.NewManifest("serve")
		m.Config["classifier"] = *clf
		m.Config["tier"] = sm.Tier.String()
		m.Config["scale"] = *scaleName
		m.Config["seed"] = fmt.Sprint(*seed)
		m.Config["telemetry.frame_version"] = fmt.Sprint(obs.TelemetryVersion)
		m.Config["telemetry.windows"] = "10s/10,1m/12"
		if runErr != nil {
			m.Config["error"] = runErr.Error()
		}
		m.Finish(obs.Default, obs.DefaultTracer, start)
		path := resolve(*manifestPath)
		if err := m.WriteFile(path); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return
		}
		fmt.Fprintf(os.Stderr, "obs: manifest written to %s\n", path)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		srv.Stop()
		return 1
	}
	fmt.Fprintf(os.Stderr, "serve: listening on %s (tier %s)\n", ln.Addr(), sm.Tier)
	obs.SetReady(true)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		fmt.Fprintln(os.Stderr, "serve: shutting down")
		obs.SetReady(false) // fail /readyz first so probes drain traffic
		ln.Close()
	}()

	serveErr := srv.Serve(ln)
	obs.SetReady(false)
	srv.Stop()
	writeObs(serveErr)
	if serveErr != nil {
		fmt.Fprintln(os.Stderr, serveErr)
		return 1
	}
	return 0
}

// trainScale maps the scale name to training dataset sizes (Folds is
// unused — serving trains on the full dataset — but must validate).
func trainScale(name string, seed uint64) (core.Scale, error) {
	switch name {
	case "small":
		return core.Scale{Sites: 10, TracesPerSite: 8, Folds: 2, Seed: seed}, nil
	case "medium":
		return core.Scale{Sites: 30, TracesPerSite: 15, Folds: 2, Seed: seed}, nil
	case "full":
		return core.Scale{Sites: 100, TracesPerSite: 100, Folds: 2, Seed: seed}, nil
	}
	return core.Scale{}, fmt.Errorf("unknown scale %q (want small, medium, or full)", name)
}
