package obs

import (
	"expvar"
	"net"
	"net/http"
	"net/http/pprof"
	"sync/atomic"
	"time"
)

// ready is the process readiness flag /readyz reports: daemons set it once
// their model is frozen and their listener is up, and clear it when
// shutdown begins so load balancers drain before the listener dies.
var ready atomic.Bool

// SetReady flips the /readyz state.
func SetReady(v bool) { ready.Store(v) }

// Ready reports the current /readyz state.
func Ready() bool { return ready.Load() }

// telemetrySeq numbers the frames /debug/telemetry serves, one per scrape.
var telemetrySeq atomic.Uint64

// telemetrySource is the source name stamped on served telemetry frames.
// Set it before serving begins; empty means host:pid.
var telemetrySource atomic.Pointer[string]

// SetTelemetrySource names this process in exported telemetry frames.
func SetTelemetrySource(name string) { telemetrySource.Store(&name) }

// TelemetrySource returns the configured source name (default host:pid).
func TelemetrySource() string {
	if p := telemetrySource.Load(); p != nil && *p != "" {
		return *p
	}
	return DefaultTelemetrySource()
}

// ServeDebug serves the observability endpoints on addr:
//
//	/debug/vars       expvar, including the "obs" registry snapshot
//	/debug/pprof/     net/http/pprof
//	/debug/telemetry  one binary telemetry payload of the default registry
//	/debug/events     the flight recorder as JSON-lines, oldest first
//	/healthz          always 200 while the process serves
//	/readyz           200 after SetReady(true), 503 otherwise
//
// It returns the bound address (useful with ":0") and a shutdown func. The
// server uses its own mux so nothing leaks into http.DefaultServeMux.
func ServeDebug(addr string) (string, func() error, error) {
	PublishExpvar()
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", nil, err
	}
	srv := &http.Server{Handler: DebugMux(), ReadHeaderTimeout: 5 * time.Second}
	go srv.Serve(ln)
	return ln.Addr().String(), srv.Close, nil
}

// DebugMux builds the debug mux ServeDebug serves — exposed separately so
// tests (and embedders with an existing HTTP server) can mount it.
func DebugMux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/debug/telemetry", handleTelemetry)
	mux.HandleFunc("/debug/events", handleEvents)
	mux.HandleFunc("/healthz", handleHealthz)
	mux.HandleFunc("/readyz", handleReadyz)
	return mux
}

func handleTelemetry(w http.ResponseWriter, _ *http.Request) {
	f := ExportFrame(TelemetrySource(), telemetrySeq.Add(1), Default, nil)
	buf, err := AppendTelemetryFrame(nil, f)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Write(buf)
}

func handleEvents(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	DefaultEvents.WriteJSONL(w)
}

func handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Write([]byte("ok\n"))
}

func handleReadyz(w http.ResponseWriter, _ *http.Request) {
	if !Ready() {
		http.Error(w, "not ready", http.StatusServiceUnavailable)
		return
	}
	w.Write([]byte("ready\n"))
}
