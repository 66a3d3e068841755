// The live introspection endpoint: a small HTTP server exposing the
// latest metrics snapshot, run progress, and net/http/pprof. The server
// never touches simulation state — the simulation goroutine publishes
// immutable Snapshot/Progress values through atomic pointers and HTTP
// handlers only ever read the latest published value, so serving is
// race-free and cannot perturb a run.
package obs

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"sync/atomic"
)

// Progress is a point-in-time description of how far a run (or a
// campaign of runs) has got. Zero fields are omitted from the JSON, so
// single-run and campaign progress share the type.
type Progress struct {
	// Done and Total count completed vs scheduled runs (campaigns).
	Done  int64 `json:"done,omitempty"`
	Total int64 `json:"total,omitempty"`
	// SimSeconds and HorizonSeconds report a single run's virtual clock
	// against its configured duration.
	SimSeconds     float64 `json:"sim_seconds,omitempty"`
	HorizonSeconds float64 `json:"horizon_seconds,omitempty"`
}

// Server serves live introspection over HTTP: GET /metrics (latest
// snapshot, JSON), GET /progress (latest Progress, JSON), and the
// standard /debug/pprof/* profiling endpoints on a private mux (the
// server never touches http.DefaultServeMux). Publish* may be called
// from any goroutine; handlers only load the atomically published
// values.
type Server struct {
	ln   net.Listener
	srv  *http.Server
	snap atomic.Pointer[Snapshot]
	prog atomic.Pointer[Progress]
}

// NewServer listens on addr (host:port; ":0" picks a free port) and
// starts serving in a background goroutine. Close shuts it down.
func NewServer(addr string) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s := &Server{ln: ln}
	mux := http.NewServeMux()
	mux.HandleFunc("/", s.handleIndex)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/progress", s.handleProgress)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	s.srv = &http.Server{Handler: mux}
	go s.srv.Serve(ln) //nolint:errcheck // Serve returns ErrServerClosed on Close
	return s, nil
}

// Addr reports the server's bound address (useful with ":0").
func (s *Server) Addr() string { return s.ln.Addr().String() }

// PublishSnapshot makes snap the value /metrics serves. The snapshot
// must not be mutated after publishing.
func (s *Server) PublishSnapshot(snap *Snapshot) {
	if s == nil || snap == nil {
		return
	}
	s.snap.Store(snap)
}

// PublishProgress makes p the value /progress serves.
func (s *Server) PublishProgress(p Progress) {
	if s == nil {
		return
	}
	s.prog.Store(&p)
}

// Close stops the server.
func (s *Server) Close() error { return s.srv.Close() }

func (s *Server) handleIndex(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	fmt.Fprint(w, "ezflow observability endpoint\n\n"+
		"  /metrics       latest metrics snapshot (JSON)\n"+
		"  /progress      run/campaign progress (JSON)\n"+
		"  /debug/pprof/  Go profiling endpoints\n")
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	snap := s.snap.Load()
	if snap == nil {
		http.Error(w, "no snapshot published yet", http.StatusServiceUnavailable)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	snap.WriteJSON(w) //nolint:errcheck // client disconnects are not actionable
}

func (s *Server) handleProgress(w http.ResponseWriter, _ *http.Request) {
	p := s.prog.Load()
	if p == nil {
		p = &Progress{}
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(p) //nolint:errcheck // client disconnects are not actionable
}
