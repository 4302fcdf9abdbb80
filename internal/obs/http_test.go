package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
)

// debugServer boots ServeDebug on a loopback port and tears it down with
// the test. Global state it touches (readiness, events, source name) is
// restored afterwards.
func debugServer(t *testing.T) string {
	t.Helper()
	prevReady := Ready()
	prevSource := TelemetrySource()
	t.Cleanup(func() {
		SetReady(prevReady)
		SetTelemetrySource(prevSource)
	})
	addr, shutdown, err := ServeDebug("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { shutdown() })
	return addr
}

func get(t *testing.T, url string) (int, []byte, http.Header) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body, resp.Header
}

func TestServeDebugExpvar(t *testing.T) {
	Default.Counter("http.test.hits").Add(3)
	addr := debugServer(t)
	code, body, _ := get(t, "http://"+addr+"/debug/vars")
	if code != http.StatusOK {
		t.Fatalf("/debug/vars: %d", code)
	}
	var vars map[string]json.RawMessage
	if err := json.Unmarshal(body, &vars); err != nil {
		t.Fatalf("/debug/vars not JSON: %v", err)
	}
	if _, ok := vars["obs"]; !ok {
		t.Fatal("expvar missing the obs registry snapshot")
	}
	if !strings.Contains(string(vars["obs"]), "http.test.hits") {
		t.Fatal("obs snapshot missing published counter")
	}
}

func TestServeDebugTelemetryEndpoint(t *testing.T) {
	SetTelemetrySource("http-test")
	Default.Counter("http.test.frames").Add(5)
	addr := debugServer(t)

	code, body, hdr := get(t, "http://"+addr+"/debug/telemetry")
	if code != http.StatusOK {
		t.Fatalf("/debug/telemetry: %d", code)
	}
	if ct := hdr.Get("Content-Type"); ct != "application/octet-stream" {
		t.Fatalf("content type %q", ct)
	}
	f, err := DecodeTelemetryFrame(body)
	if err != nil {
		t.Fatalf("decode served payload: %v", err)
	}
	if f.Source != "http-test" || f.Version != TelemetryVersion {
		t.Fatalf("frame header: %+v", f)
	}
	if f.Metrics.Counters["http.test.frames"] < 5 {
		t.Fatalf("served frame missing counter: %v", f.Metrics.Counters)
	}

	// Each scrape is a new frame with a strictly increasing sequence.
	_, body2, _ := get(t, "http://"+addr+"/debug/telemetry")
	f2, err := DecodeTelemetryFrame(body2)
	if err != nil {
		t.Fatal(err)
	}
	if f2.Seq <= f.Seq {
		t.Fatalf("seq not increasing: %d then %d", f.Seq, f2.Seq)
	}
}

func TestServeDebugEventsEndpoint(t *testing.T) {
	DefaultEvents.Reset()
	t.Cleanup(DefaultEvents.Reset)
	DefaultEvents.Recordf("overload", "shed at depth %d", 64)
	DefaultEvents.Recordf("deadline", "expired")
	addr := debugServer(t)

	code, body, hdr := get(t, "http://"+addr+"/debug/events")
	if code != http.StatusOK {
		t.Fatalf("/debug/events: %d", code)
	}
	if ct := hdr.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content type %q", ct)
	}
	sc := bufio.NewScanner(strings.NewReader(string(body)))
	var kinds []string
	for sc.Scan() {
		var ev Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("event line not JSON: %v", err)
		}
		kinds = append(kinds, ev.Kind)
	}
	if fmt.Sprint(kinds) != "[overload deadline]" {
		t.Fatalf("kinds = %v, want oldest-first [overload deadline]", kinds)
	}
}

func TestServeDebugHealthAndReady(t *testing.T) {
	addr := debugServer(t)

	code, body, _ := get(t, "http://"+addr+"/healthz")
	if code != http.StatusOK || string(body) != "ok\n" {
		t.Fatalf("/healthz: %d %q", code, body)
	}

	SetReady(false)
	if code, _, _ := get(t, "http://"+addr+"/readyz"); code != http.StatusServiceUnavailable {
		t.Fatalf("/readyz while not ready: %d", code)
	}
	SetReady(true)
	code, body, _ = get(t, "http://"+addr+"/readyz")
	if code != http.StatusOK || string(body) != "ready\n" {
		t.Fatalf("/readyz while ready: %d %q", code, body)
	}
}
