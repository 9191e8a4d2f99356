// Package opsserver is the monitor's shared operations HTTP server: one
// listener serving the Prometheus scrape endpoint, a liveness probe with
// stall detection, the per-unit health dump the `mspctool status`
// subcommand renders, and the net/http/pprof profiling pages the old
// -pprof flag used to serve on its own listener.
//
// Endpoints:
//
//	GET /metrics        Prometheus text exposition of the obs.Registry
//	GET /healthz        liveness JSON; 503 once ingest stalls past the
//	                    configured horizon
//	GET /status         JSON obs.StatusDoc: uptime, aggregate totals,
//	                    per-unit health registry dump
//	GET /debug/pprof/*  standard net/http/pprof handlers
package opsserver

import (
	"context"
	"crypto/subtle"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"sync/atomic"
	"time"

	"pcsmon/internal/obs"
)

// Options configures Start. Metrics is required; everything else is
// optional.
type Options struct {
	// Metrics is the registry /metrics renders.
	Metrics *obs.Registry
	// Health, when non-nil, supplies the per-unit section of /status.
	Health *obs.HealthRegistry
	// Totals, when non-nil, is collected per /status request into the
	// document's flat aggregate map (fleet counters, pairing accounting,
	// transport totals — whatever the embedding process wants surfaced).
	Totals func() map[string]float64
	// LastActivity, when non-nil, feeds /healthz stall detection: once
	// now-LastActivity() exceeds StallAfter the probe reports 503 with the
	// idle duration, so an orchestrator can restart a wedged monitor.
	LastActivity func() time.Time
	// StallAfter is the idle horizon of the stall probe (0 with a
	// LastActivity hook = 1 minute, negative disables the probe). It can
	// be changed on a live server with SetStallAfter.
	StallAfter time.Duration
	// Extra mounts additional routes on the ops mux — the control plane's
	// mutating API. Patterns follow http.ServeMux rules; the reserved ops
	// routes (/metrics, /healthz, /status, /debug/pprof/) cannot be
	// overridden.
	Extra map[string]http.Handler
	// AuthToken, when non-empty, requires "Authorization: Bearer <token>"
	// on every mutating (non-GET/HEAD) request across the whole mux. The
	// read-only ops endpoints stay scrapable without credentials.
	AuthToken string
}

// Server is a running ops endpoint. Create with Start; Close stops the
// listener and the serving goroutine.
type Server struct {
	ln         net.Listener
	srv        *http.Server
	started    time.Time
	opts       Options
	stallAfter atomic.Int64 // nanoseconds; <0 disables the stall probe
}

// Start listens on addr and serves the ops endpoints until Close.
func Start(addr string, opts Options) (*Server, error) {
	if opts.Metrics == nil {
		return nil, fmt.Errorf("opsserver: nil metrics registry: %w", obs.ErrBadMetric)
	}
	if opts.LastActivity != nil && opts.StallAfter == 0 {
		opts.StallAfter = time.Minute
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("opsserver: listen %s: %w", addr, err)
	}
	s := &Server{ln: ln, started: time.Now(), opts: opts}
	s.stallAfter.Store(int64(opts.StallAfter))
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/status", s.handleStatus)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	for pattern, h := range opts.Extra {
		mux.Handle(pattern, h)
	}
	s.srv = &http.Server{Handler: s.auth(mux), ReadHeaderTimeout: 5 * time.Second}
	go func() { _ = s.srv.Serve(ln) }()
	return s, nil
}

// auth gates mutating requests behind the bearer token (when configured).
func (s *Server) auth(next http.Handler) http.Handler {
	if s.opts.AuthToken == "" {
		return next
	}
	want := "Bearer " + s.opts.AuthToken
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet && r.Method != http.MethodHead {
			// subtle.ConstantTimeCompare needs equal lengths; it reports 0
			// for any length mismatch the len check already rejected.
			got := r.Header.Get("Authorization")
			if len(got) != len(want) || subtle.ConstantTimeCompare([]byte(got), []byte(want)) != 1 {
				writeJSON(w, http.StatusUnauthorized, map[string]string{"error": "missing or invalid bearer token"})
				return
			}
		}
		next.ServeHTTP(w, r)
	})
}

// SetStallAfter atomically replaces the /healthz stall horizon — the
// control plane's reload hook. Zero restores the 1-minute default when a
// LastActivity hook exists; negative disables the probe.
func (s *Server) SetStallAfter(d time.Duration) {
	if s.opts.LastActivity != nil && d == 0 {
		d = time.Minute
	}
	s.stallAfter.Store(int64(d))
}

// StallAfter returns the current stall horizon.
func (s *Server) StallAfter() time.Duration { return time.Duration(s.stallAfter.Load()) }

// Addr returns the bound listen address ("127.0.0.1:43210").
func (s *Server) Addr() string { return s.ln.Addr().String() }

// URL returns the server's base URL.
func (s *Server) URL() string { return "http://" + s.Addr() }

// shutdownGrace bounds how long Close lets in-flight handlers finish.
const shutdownGrace = 5 * time.Second

// Close stops the listener and lets in-flight handlers finish — a
// streaming handler flushing its tail included — for up to shutdownGrace
// before cutting the remaining connections.
func (s *Server) Close() error {
	ctx, cancel := context.WithTimeout(context.Background(), shutdownGrace)
	defer cancel()
	if err := s.srv.Shutdown(ctx); err != nil {
		return s.srv.Close()
	}
	return nil
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = s.opts.Metrics.WritePrometheus(w)
}

// healthzDoc is the /healthz body.
type healthzDoc struct {
	Status        string  `json:"status"` // "ok" or "stalled"
	UptimeSeconds float64 `json:"uptime_seconds"`
	IdleSeconds   float64 `json:"idle_seconds,omitempty"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	doc := healthzDoc{Status: "ok", UptimeSeconds: time.Since(s.started).Seconds()}
	code := http.StatusOK
	if horizon := s.StallAfter(); s.opts.LastActivity != nil && horizon >= 0 {
		idle := time.Since(s.opts.LastActivity())
		doc.IdleSeconds = idle.Seconds()
		if idle > horizon {
			doc.Status = "stalled"
			code = http.StatusServiceUnavailable
		}
	}
	writeJSON(w, code, doc)
}

func (s *Server) handleStatus(w http.ResponseWriter, _ *http.Request) {
	doc := obs.StatusDoc{
		UptimeSeconds: time.Since(s.started).Seconds(),
		Units:         []obs.UnitStatus{},
	}
	if s.opts.Totals != nil {
		doc.Totals = s.opts.Totals()
	}
	if s.opts.Health != nil {
		doc.Units = s.opts.Health.Snapshot(time.Now())
	}
	writeJSON(w, http.StatusOK, doc)
}

func writeJSON(w http.ResponseWriter, code int, doc any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(doc)
}
