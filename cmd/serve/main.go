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
//	      [-maxbatch 32] [-queue N]
//	      [-deadline 0] [-selftest] [-conc 256] [-duration 5s]
//	      [-obs] [-progress 2s] [-manifest run.json] [-httpaddr :0]
//	      [-outdir dir] [-cpuprofile f] [-memprofile f]
//
// With -selftest the daemon skips the listener and instead drives its own
// closed-loop load harness (internal/serve's RunLoad) against the
// in-process client — first through the micro-batching server, then
// through the naive one-request-one-PredictBatch path — and prints both
// throughput/latency lines plus the coalescing speedup. This is the
// quickest way to validate a deployment's sustained classifications/sec.
//
// Run manifests (-manifest) record the serve.* histograms with
// interpolated p50/p95/p99, so tail latency lands in the run artifact,
// not just in a live /debug/vars scrape.
//
// Live telemetry: -progress lines report the last-10 s window (req/s and
// e2e p50/p95/p99), -httpaddr additionally serves /debug/telemetry (the
// binary snapshot cmd/obstop scrapes), /debug/events (the flight recorder
// as JSON-lines), and /healthz + /readyz probes. With -outdir the flight
// recorder is also dumped to events.jsonl on shutdown.
package main

import (
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
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
	selftest := flag.Bool("selftest", false, "run the closed-loop load harness instead of listening")
	conc := flag.Int("conc", 256, "selftest: closed-loop client goroutines")
	duration := flag.Duration("duration", 5*time.Second, "selftest: measured window per leg")
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
	dbgAddr := ""
	if *httpAddr != "" {
		var closeDebug func() error
		dbgAddr, closeDebug, err = obs.ServeDebug(*httpAddr)
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

	if *selftest {
		// The health probes are part of the deployment surface the selftest
		// validates: spin a loopback debug server when -httpaddr didn't.
		if dbgAddr == "" {
			var closeDebug func() error
			dbgAddr, closeDebug, err = obs.ServeDebug("127.0.0.1:0")
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				srv.Stop()
				return 1
			}
			defer closeDebug()
		}
		obs.SetReady(true)
		err := checkHealth(dbgAddr)
		if err == nil {
			err = runSelftest(srv, sm, *conc, *duration)
		}
		obs.SetReady(false)
		srv.Stop()
		writeObs(err)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		return 0
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

// checkHealth asserts the liveness and readiness probes answer 200 on the
// debug server — the selftest's check that a deployment's health surface
// is actually wired, not just compiled.
func checkHealth(dbgAddr string) error {
	for _, ep := range []string{"/healthz", "/readyz"} {
		resp, err := http.Get("http://" + dbgAddr + ep)
		if err != nil {
			return fmt.Errorf("selftest: GET %s: %w", ep, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("selftest: GET %s: status %d, want 200", ep, resp.StatusCode)
		}
	}
	fmt.Println("selftest: health endpoints ok (/healthz, /readyz)")
	return nil
}

// runSelftest measures the coalesced server (in-process and over a
// localhost TCP round-trip) and the naive direct path back-to-back on the
// same model and trace corpus, printing every leg and the coalescing
// speedup.
func runSelftest(srv *serve.Server, sm *core.ServingModel, conc int, dur time.Duration) error {
	fmt.Printf("selftest: %d closed-loop clients, %v per leg, %d traces\n",
		conc, dur, len(sm.Traces))

	// Warm both paths before measuring (arena growth, pool population).
	warm := serve.LoadOpts{Classify: srv.Classify, Traces: sm.Traces, Conc: conc, Requests: 4 * conc}
	if _, err := serve.RunLoad(warm); err != nil {
		return err
	}
	coalesced, err := serve.RunLoad(serve.LoadOpts{
		Classify: srv.Classify, Traces: sm.Traces, Conc: conc, Duration: dur,
	})
	if err != nil {
		return err
	}
	fmt.Printf("  coalesced: %s\n", coalesced)

	tcp, err := runTCPLeg(srv, sm, conc, dur)
	if err != nil {
		return err
	}
	fmt.Printf("  tcp:       %s\n", tcp)

	naive := serve.NaiveClassifier(sm.Model, sm.Prep, sm.InputLen)
	if _, err := serve.RunLoad(serve.LoadOpts{Classify: naive, Traces: sm.Traces, Conc: conc, Requests: 4 * conc}); err != nil {
		return err
	}
	direct, err := serve.RunLoad(serve.LoadOpts{
		Classify: naive, Traces: sm.Traces, Conc: conc, Duration: dur,
	})
	if err != nil {
		return err
	}
	fmt.Printf("  naive:     %s\n", direct)
	if direct.Throughput > 0 {
		fmt.Printf("  coalescing speedup: %.2fx\n", coalesced.Throughput/direct.Throughput)
	}
	return nil
}

// runTCPLeg drives the same closed-loop load through a localhost TCP
// round-trip: loopback listener, one pipelining Client shared by every
// load goroutine, the full frame encode/decode on both sides.
func runTCPLeg(srv *serve.Server, sm *core.ServingModel, conc int, dur time.Duration) (serve.LoadResult, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return serve.LoadResult{}, err
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	cli, err := serve.Dial(ln.Addr().String())
	if err != nil {
		ln.Close()
		<-done
		return serve.LoadResult{}, err
	}
	warm := serve.LoadOpts{Classify: cli.Classify, Traces: sm.Traces, Conc: conc, Requests: 4 * conc}
	var res serve.LoadResult
	if _, err = serve.RunLoad(warm); err == nil {
		res, err = serve.RunLoad(serve.LoadOpts{
			Classify: cli.Classify, Traces: sm.Traces, Conc: conc, Duration: dur,
		})
	}
	cli.Close()
	ln.Close()
	if serr := <-done; err == nil && serr != nil {
		err = serr
	}
	return res, err
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
