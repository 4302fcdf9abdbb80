// Command obstop is a live terminal view over running daemons' telemetry:
// it scrapes each endpoint's /debug/telemetry (the versioned binary
// telemetry payload internal/obs exports), merges the frames in an
// obs.Aggregator, and renders the combined windowed rates, latency
// quantiles, and counters — top(1) for the serving fleet.
//
// Usage:
//
//	obstop [-interval 2s] [-once] [-manifest merged.json] host:port...
//	obstop -selftest
//
// Endpoints are the daemons' -httpaddr addresses (e.g. a cmd/serve
// instance started with -httpaddr :7078). With several endpoints the
// display is the aggregate: counters sum, histogram buckets add, and each
// source's manifest rows are stamped with the process that produced them.
// -once prints one snapshot and exits (scriptable); -manifest writes the
// merged run manifest on exit. -selftest scrapes the process's own debug
// server and validates the round trip, printing "obstop selftest ok".
package main

import (
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"sort"
	"strings"
	"syscall"
	"time"

	"repro/internal/obs"
)

func main() {
	os.Exit(run())
}

func run() int {
	interval := flag.Duration("interval", 2*time.Second, "scrape and redraw interval")
	once := flag.Bool("once", false, "print one snapshot and exit")
	manifestPath := flag.String("manifest", "", "write the merged run manifest to this file on exit")
	selftest := flag.Bool("selftest", false, "scrape this process's own debug server and validate the round trip")
	flag.Parse()

	if *selftest {
		if err := runSelftest(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		return 0
	}

	endpoints := flag.Args()
	if len(endpoints) == 0 {
		fmt.Fprintln(os.Stderr, "obstop: no endpoints; usage: obstop [-interval 2s] [-once] host:port...")
		return 2
	}

	agg := obs.NewAggregator()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	tick := time.NewTicker(*interval)
	defer tick.Stop()

	for {
		errs := scrapeAll(agg, endpoints)
		if !*once {
			fmt.Print("\x1b[H\x1b[2J") // home + clear: redraw in place
		}
		render(os.Stdout, agg, errs)
		if *once {
			break
		}
		select {
		case <-sig:
			fmt.Println()
		case <-tick.C:
			continue
		}
		break
	}

	if *manifestPath != "" {
		m := agg.MergedManifest("obstop")
		if err := m.WriteFile(*manifestPath); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		fmt.Printf("obstop: merged manifest written to %s\n", *manifestPath)
	}
	return 0
}

var httpClient = &http.Client{Timeout: 5 * time.Second}

// scrape fetches and decodes one endpoint's current telemetry frame.
func scrape(ep string) (*obs.TelemetryFrame, error) {
	url := ep
	if !strings.Contains(url, "://") {
		url = "http://" + url
	}
	resp, err := httpClient.Get(url + "/debug/telemetry")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s: status %d", ep, resp.StatusCode)
	}
	body, err := readBody(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", ep, err)
	}
	f, err := obs.DecodeTelemetryFrame(body)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", ep, err)
	}
	return f, nil
}

// readBody reads a telemetry body, stopping one byte past the payload cap
// so an endpoint that streams without end costs at most that much memory.
func readBody(r io.Reader) ([]byte, error) {
	body, err := io.ReadAll(io.LimitReader(r, obs.MaxTelemetrySize+1))
	if err != nil {
		return nil, err
	}
	if len(body) > obs.MaxTelemetrySize {
		return nil, obs.ErrTelemetryTooLarge
	}
	return body, nil
}

// scrapeAll ingests every reachable endpoint, returning per-endpoint
// errors for the render footer (an unreachable source keeps its last
// ingested frame — staleness, not data loss).
func scrapeAll(agg *obs.Aggregator, endpoints []string) []string {
	var errs []string
	for _, ep := range endpoints {
		f, err := scrape(ep)
		if err != nil {
			errs = append(errs, err.Error())
			continue
		}
		if err := agg.Ingest(f); err != nil {
			errs = append(errs, err.Error())
		}
	}
	return errs
}

// render draws one merged snapshot: windowed instruments first (the live
// view), then cumulative histogram quantiles, then non-zero counters.
func render(w io.Writer, agg *obs.Aggregator, errs []string) {
	snap := agg.Merged()
	fmt.Fprintf(w, "obstop %s  sources: %s\n", time.Now().Format("15:04:05"),
		strings.Join(agg.Sources(), ", "))

	if len(snap.Windows) > 0 {
		fmt.Fprintln(w, "\n  windowed")
		for _, name := range sortedNames(len(snap.Windows), func(f func(string)) {
			for k := range snap.Windows {
				f(k)
			}
		}) {
			win := snap.Windows[name]
			fmt.Fprintf(w, "    %-28s %8.1f/s  count=%-8d window=%s",
				name, win.Rate, win.Count, time.Duration(win.WindowMS)*time.Millisecond)
			if win.Hist != nil {
				fmt.Fprintf(w, "  p50=%.0f p95=%.0f p99=%.0f", win.Hist.P50, win.Hist.P95, win.Hist.P99)
			}
			fmt.Fprintln(w)
		}
	}

	populated := 0
	for _, h := range snap.Histograms {
		if h.Count > 0 {
			populated++
		}
	}
	if populated > 0 {
		fmt.Fprintln(w, "\n  histograms (cumulative)")
		for _, name := range sortedNames(len(snap.Histograms), func(f func(string)) {
			for k := range snap.Histograms {
				f(k)
			}
		}) {
			h := snap.Histograms[name]
			if h.Count == 0 {
				continue
			}
			fmt.Fprintf(w, "    %-28s count=%-8d p50=%.0f p95=%.0f p99=%.0f\n",
				name, h.Count, h.P50, h.P95, h.P99)
		}
	}

	if len(snap.Counters) > 0 {
		fmt.Fprintln(w, "\n  counters")
		for _, name := range sortedNames(len(snap.Counters), func(f func(string)) {
			for k := range snap.Counters {
				f(k)
			}
		}) {
			if v := snap.Counters[name]; v != 0 {
				fmt.Fprintf(w, "    %-28s %d\n", name, v)
			}
		}
	}

	for _, e := range errs {
		fmt.Fprintf(w, "  ! %s\n", e)
	}
}

// sortedNames collects map keys through a visitor and sorts them — one
// helper for the three differently-typed snapshot maps.
func sortedNames(n int, visit func(func(string))) []string {
	names := make([]string, 0, n)
	visit(func(k string) { names = append(names, k) })
	sort.Strings(names)
	return names
}

// runSelftest validates the full scrape path against this process's own
// debug server: populate the default registry, serve it, scrape it over
// HTTP, decode, aggregate, and check the numbers came back.
func runSelftest() error {
	obs.Enable()
	obs.SetTelemetrySource("obstop-selftest")
	obs.Default.Counter("obstop.selftest.ticks").Add(3)
	obs.Default.RollingCounter("obstop.selftest.win", 10*time.Second, 10).Add(5)
	obs.Default.RollingHistogram("obstop.selftest.lat", 10*time.Second, 10, 1, 10, 100).Observe(7)
	obs.Eventf("selftest", "obstop self-scrape")

	addr, shutdown, err := obs.ServeDebug("127.0.0.1:0")
	if err != nil {
		return err
	}
	defer shutdown()

	agg := obs.NewAggregator()
	f, err := scrape(addr)
	if err != nil {
		return fmt.Errorf("obstop selftest: scrape: %w", err)
	}
	if f.Source != "obstop-selftest" || f.Version != obs.TelemetryVersion {
		return fmt.Errorf("obstop selftest: frame header %q v%d", f.Source, f.Version)
	}
	if err := agg.Ingest(f); err != nil {
		return err
	}
	m := agg.Merged()
	if m.Counters["obstop.selftest.ticks"] != 3 {
		return fmt.Errorf("obstop selftest: counter came back as %d, want 3",
			m.Counters["obstop.selftest.ticks"])
	}
	w, ok := m.Windows["obstop.selftest.win"]
	if !ok || w.Count != 5 {
		return fmt.Errorf("obstop selftest: window came back as %+v (ok=%v)", w, ok)
	}
	l, ok := m.Windows["obstop.selftest.lat"]
	if !ok || l.Hist == nil || l.Hist.Count != 1 {
		return fmt.Errorf("obstop selftest: windowed histogram came back as %+v (ok=%v)", l, ok)
	}
	render(os.Stdout, agg, nil)
	fmt.Println("obstop selftest ok")
	return nil
}
