package opsserver

import (
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"pcsmon/internal/obs"
)

func get(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read %s: %v", url, err)
	}
	return resp.StatusCode, string(body)
}

func TestEndpoints(t *testing.T) {
	reg := obs.NewRegistry()
	if err := reg.CounterFunc("pcsmon_ops_frames_total", "frames",
		func() float64 { return 9 }); err != nil {
		t.Fatal(err)
	}
	health := obs.NewHealthRegistry()
	health.Attach("unit-1").Observe(time.Now().UnixNano(), 1, 1, 2, 3, 4, false)

	s, err := Start("127.0.0.1:0", Options{
		Metrics: reg,
		Health:  health,
		Totals:  func() map[string]float64 { return map[string]float64{"frames": 9} },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	code, body := get(t, s.URL()+"/metrics")
	if code != http.StatusOK || !strings.Contains(body, "pcsmon_ops_frames_total 9") {
		t.Errorf("/metrics code=%d body=%q", code, body)
	}

	code, body = get(t, s.URL()+"/healthz")
	if code != http.StatusOK || !strings.Contains(body, `"status": "ok"`) {
		t.Errorf("/healthz code=%d body=%q", code, body)
	}

	code, body = get(t, s.URL()+"/status")
	if code != http.StatusOK {
		t.Fatalf("/status code=%d", code)
	}
	var doc obs.StatusDoc
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatalf("/status not JSON: %v\n%s", err, body)
	}
	if doc.Totals["frames"] != 9 || len(doc.Units) != 1 || doc.Units[0].Unit != "unit-1" {
		t.Errorf("/status doc wrong: %+v", doc)
	}

	// pprof index must be served from the same listener (the folded -pprof).
	code, body = get(t, s.URL()+"/debug/pprof/")
	if code != http.StatusOK || !strings.Contains(body, "goroutine") {
		t.Errorf("/debug/pprof/ code=%d", code)
	}
}

func TestHealthzStallDetection(t *testing.T) {
	reg := obs.NewRegistry()
	last := time.Now().Add(-time.Hour)
	s, err := Start("127.0.0.1:0", Options{
		Metrics:      reg,
		LastActivity: func() time.Time { return last },
		StallAfter:   time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	code, body := get(t, s.URL()+"/healthz")
	if code != http.StatusServiceUnavailable || !strings.Contains(body, `"status": "stalled"`) {
		t.Errorf("stalled probe: code=%d body=%q", code, body)
	}
	last = time.Now()
	code, _ = get(t, s.URL()+"/healthz")
	if code != http.StatusOK {
		t.Errorf("recovered probe: code=%d", code)
	}
}

// TestHealthzStallThresholdConfigurable drives the 503 transition through
// the configurable horizon: a generous threshold keeps an idle monitor
// "ok", tightening it live (the reload path) flips the same idle gap to
// stalled, and a negative horizon disables the probe entirely.
func TestHealthzStallThresholdConfigurable(t *testing.T) {
	reg := obs.NewRegistry()
	last := time.Now().Add(-10 * time.Second)
	s, err := Start("127.0.0.1:0", Options{
		Metrics:      reg,
		LastActivity: func() time.Time { return last },
		StallAfter:   time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if got := s.StallAfter(); got != time.Hour {
		t.Fatalf("StallAfter() = %v, want 1h", got)
	}
	code, _ := get(t, s.URL()+"/healthz")
	if code != http.StatusOK {
		t.Errorf("10s idle under a 1h horizon: code=%d, want 200", code)
	}
	s.SetStallAfter(time.Second)
	code, body := get(t, s.URL()+"/healthz")
	if code != http.StatusServiceUnavailable || !strings.Contains(body, `"status": "stalled"`) {
		t.Errorf("10s idle under a 1s horizon: code=%d body=%q, want 503 stalled", code, body)
	}
	s.SetStallAfter(-1)
	code, body = get(t, s.URL()+"/healthz")
	if code != http.StatusOK || !strings.Contains(body, `"status": "ok"`) {
		t.Errorf("disabled probe: code=%d body=%q, want 200 ok", code, body)
	}
	// Zero restores the documented 1-minute default when activity is wired.
	s.SetStallAfter(0)
	if got := s.StallAfter(); got != time.Minute {
		t.Errorf("SetStallAfter(0) = %v, want 1m default", got)
	}
}

// TestExtraRoutesAndAuth covers the control-plane mounting contract: Extra
// handlers are served from the same listener, and with an AuthToken set
// every mutating request needs the bearer token while reads stay open.
func TestExtraRoutesAndAuth(t *testing.T) {
	reg := obs.NewRegistry()
	s, err := Start("127.0.0.1:0", Options{
		Metrics:   reg,
		AuthToken: "sesame",
		Extra: map[string]http.Handler{
			"/units/": http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				w.WriteHeader(http.StatusOK)
				_, _ = w.Write([]byte(r.Method + " " + r.URL.Path))
			}),
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	code, body := get(t, s.URL()+"/units/7")
	if code != http.StatusOK || body != "GET /units/7" {
		t.Errorf("extra GET: code=%d body=%q", code, body)
	}
	// Reads on the built-in routes need no credentials either.
	if code, _ = get(t, s.URL()+"/healthz"); code != http.StatusOK {
		t.Errorf("unauthenticated /healthz: code=%d", code)
	}

	post := func(token string) int {
		req, err := http.NewRequest(http.MethodPost, s.URL()+"/units/7", nil)
		if err != nil {
			t.Fatal(err)
		}
		if token != "" {
			req.Header.Set("Authorization", "Bearer "+token)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := post(""); code != http.StatusUnauthorized {
		t.Errorf("POST without token: code=%d, want 401", code)
	}
	if code := post("wrong"); code != http.StatusUnauthorized {
		t.Errorf("POST with wrong token: code=%d, want 401", code)
	}
	if code := post("sesame"); code != http.StatusOK {
		t.Errorf("POST with token: code=%d, want 200", code)
	}
}

func TestStartValidation(t *testing.T) {
	if _, err := Start("127.0.0.1:0", Options{}); !errors.Is(err, obs.ErrBadMetric) {
		t.Errorf("nil registry: %v, want ErrBadMetric", err)
	}
	if _, err := Start("completely bogus:address:here", Options{Metrics: obs.NewRegistry()}); err == nil {
		t.Error("bogus address accepted")
	}
}
