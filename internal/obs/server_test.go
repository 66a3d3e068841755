package obs

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
)

func get(t *testing.T, url string) (int, string) {
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
	return resp.StatusCode, string(body)
}

func TestServer(t *testing.T) {
	s, err := NewServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	base := "http://" + s.Addr()

	// Before any publish: index works, metrics is 503, progress is empty.
	if code, body := get(t, base+"/"); code != http.StatusOK || !strings.Contains(body, "/metrics") {
		t.Fatalf("index: code %d body %q", code, body)
	}
	if code, _ := get(t, base+"/metrics"); code != http.StatusServiceUnavailable {
		t.Fatalf("metrics before publish: code %d, want 503", code)
	}
	if code, body := get(t, base+"/progress"); code != http.StatusOK || strings.TrimSpace(body) != "{}" {
		t.Fatalf("progress before publish: code %d body %q", code, body)
	}
	if code, _ := get(t, base+"/nope"); code != http.StatusNotFound {
		t.Fatalf("unknown path: code %d, want 404", code)
	}

	// Publish a snapshot and progress; both round-trip through HTTP.
	r := NewRegistry()
	r.Gauge("served.count", func() float64 { return 12 })
	s.PublishSnapshot(r.Snapshot(0))
	s.PublishProgress(Progress{Done: 2, Total: 5, SimSeconds: 30, HorizonSeconds: 600})

	code, body := get(t, base+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("metrics: code %d", code)
	}
	var snap Snapshot
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
		t.Fatalf("metrics body not a snapshot: %v\n%s", err, body)
	}
	if v, ok := snap.Get("served.count"); !ok || v != 12 {
		t.Fatalf("served snapshot: served.count = %g, %v; want 12, true", v, ok)
	}

	code, body = get(t, base+"/progress")
	if code != http.StatusOK {
		t.Fatalf("progress: code %d", code)
	}
	var p Progress
	if err := json.Unmarshal([]byte(body), &p); err != nil {
		t.Fatal(err)
	}
	if p != (Progress{Done: 2, Total: 5, SimSeconds: 30, HorizonSeconds: 600}) {
		t.Fatalf("progress round-trip: %+v", p)
	}

	// pprof is mounted on the private mux.
	if code, body := get(t, base+"/debug/pprof/"); code != http.StatusOK || !strings.Contains(body, "goroutine") {
		t.Fatalf("pprof index: code %d", code)
	}

	// Nil-safe publishing (the disabled-observability path).
	var nilServer *Server
	nilServer.PublishSnapshot(nil)
	nilServer.PublishProgress(Progress{})
	s.PublishSnapshot(nil) // must not clobber the published snapshot
	if code, _ := get(t, base+"/metrics"); code != http.StatusOK {
		t.Fatal("publishing nil must not clear the last snapshot")
	}
}
