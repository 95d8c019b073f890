package obs

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"time"

	"hlfi/internal/obs/trace"
)

// Server is the live observability endpoint of a running campaign:
//
//	/metrics       Prometheus text exposition of the metrics registry
//	/statusz       JSON study status (per-cell progress, outcome rates
//	               with Wilson intervals)
//	/debug/pprof/  net/http/pprof handlers for CPU and heap profiling
//
// The server owns one goroutine and exists only when explicitly started
// (the -status flag); a study without it runs exactly the code it ran
// before this package existed.
type Server struct {
	ln  net.Listener
	srv *http.Server
}

// StartServerTrace listens on addr (":8080", "127.0.0.1:0", ...) and
// serves the registry, the status snapshot returned by status (which
// may be nil: /statusz then serves an empty object) and the trace
// recorder at /tracez (nil recorder: /tracez reports tracing off). The
// pprof handlers are wired onto the server's own mux, never the default
// one.
func StartServerTrace(addr string, reg *Registry, status func() any, rec *trace.Recorder) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("obs: listen %s: %w", addr, err)
	}
	s := &Server{ln: ln, srv: &http.Server{Handler: MuxTrace(reg, status, rec), ReadHeaderTimeout: 5 * time.Second}}
	go func() { _ = s.srv.Serve(ln) }()
	return s, nil
}

// MuxTrace builds the observability handler StartServerTrace serves,
// for callers that run their own HTTP server and want /metrics,
// /statusz, /tracez and /debug/pprof/ alongside their own routes (the
// fleet coordinator mounts it under "/" next to its lease endpoints).
// status may be nil; /statusz then serves an empty object. /tracez
// serves HTML by default, ?format=json, and ?format=chrome for the
// Perfetto-compatible export; a nil recorder serves a "tracing off"
// hint rather than omitting the route, so scripts can probe a fleet for
// tracing support.
func MuxTrace(reg *Registry, status func() any, rec *trace.Recorder) *http.ServeMux {
	mux := http.NewServeMux()
	mux.Handle("/tracez", trace.Handler(rec))
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = reg.WritePrometheus(w)
	})
	mux.HandleFunc("/statusz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		var v any = struct{}{}
		if status != nil {
			v = status()
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(v)
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		fmt.Fprint(w, "hlfi campaign observability\n\n/metrics\n/statusz\n/tracez\n/debug/pprof/\n")
	})
	return mux
}

// Addr is the bound listen address (useful with port 0).
func (s *Server) Addr() string { return s.ln.Addr().String() }

// drainTimeout bounds how long Close waits for in-flight scrapes. The
// linger window is the moment scrapers read a short study's final
// state, so a request caught mid-response must be allowed to finish —
// but study shutdown must never hang on a stuck client.
const drainTimeout = 2 * time.Second

// Close stops the server, draining in-flight requests first: a
// /metrics or /statusz scrape racing study shutdown reads a complete
// body instead of a severed connection. Requests still open after
// drainTimeout are forcibly closed. Nil-safe, so a disabled endpoint
// needs no guard at shutdown.
func (s *Server) Close() error {
	if s == nil {
		return nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	if err := s.srv.Shutdown(ctx); err != nil {
		// Drain deadline hit (or shutdown failed): sever what remains.
		_ = s.srv.Close()
		return err
	}
	return nil
}
