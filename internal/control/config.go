// Package control is the monitor's control plane: the one assembly of the
// frame pipeline (listeners or a recorded capture → dedup → pairing →
// fleet scoring → verdicts, with the capture store and the ops server),
// run by `mspctool serve` as a long-lived service and by `mspctool fleet
// -listen` and `mspctool replay` as batch jobs. It owns the typed JSON
// config file (validated with field-path errors), the mutating HTTP/JSON
// API mounted on the ops listener (attach/detach/drain units, config
// introspection, live reload, an SSE event stream), and the graceful
// lifecycle: SIGTERM or POST /drain stops accepting frames,
// flushes the pairing and fleet pipelines and the capture store's
// unsealed tail, emits final per-unit reports and exits cleanly; SIGHUP
// or POST /reload applies the reloadable config subset in place.
//
// The companion package internal/control/router is the horizontal
// scale-out seed: a rendezvous-hash unit→node table plus a thin frame
// forwarder, so N serve processes split one fleet.
package control

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"pcsmon/internal/adapt"
	"pcsmon/internal/core"
	"pcsmon/internal/fleet"
)

// ErrBadConfig wraps every config-file validation failure; errors name
// the offending field path ("pairing.window"). It is core.ErrBadConfig,
// the facade's sentinel too, so callers can errors.Is against either
// package.
var ErrBadConfig = core.ErrBadConfig

// Config is the serve-mode configuration file: the typed replacement for
// the fleet subcommand's flag soup. Durations are given in seconds
// (JSON numbers, fractional allowed); zero values select the same
// defaults the flags did.
type Config struct {
	// Calibration is the NOC calibration CSV path (required; a plane built
	// with Options.System never opens it).
	Calibration string `json:"calibration"`
	// SampleSeconds is the observation interval of the monitored streams
	// (0 = 4.5, the paper's cadence).
	SampleSeconds float64 `json:"sample_seconds,omitempty"`
	// OnsetHour is the hour an anomaly is known to begin, applied to every
	// unit without a per-unit override (0 = unknown).
	OnsetHour float64 `json:"onset_hour,omitempty"`
	// Components is the PCA component count (0 = 90% variance rule).
	Components int `json:"components,omitempty"`

	Listeners Listeners `json:"listeners"`
	Ops       Ops       `json:"ops"`
	Pairing   Pairing   `json:"pairing"`
	Fleet     FleetCfg  `json:"fleet"`
	Adapt     Adapt     `json:"adapt"`
	Record    Record    `json:"record"`

	// Units holds per-unit overrides, keyed by decimal fieldbus unit id
	// ("0".."255"). Reloadable.
	Units map[string]UnitCfg `json:"units,omitempty"`

	// Cluster configures the scale-out router (empty = this process owns
	// every unit).
	Cluster Cluster `json:"cluster"`
}

// Listeners names the ingest sockets. At least one must be set.
type Listeners struct {
	// TCP accepts length-prefixed fieldbus frames ("127.0.0.1:7700").
	TCP string `json:"tcp,omitempty"`
	// UDP accepts one frame per datagram — the lossy transport.
	UDP string `json:"udp,omitempty"`
}

// Ops configures the ops/control HTTP listener.
type Ops struct {
	// Addr is the listen address of the ops + control API server
	// (required: the control plane is the point of serve mode).
	Addr string `json:"addr"`
	// AuthToken, when set, is required as "Authorization: Bearer <token>"
	// on every mutating API request; reads stay open for scrapes.
	AuthToken string `json:"auth_token,omitempty"`
	// HealthzStallSeconds is the idle horizon after which /healthz reports
	// 503 (0 = 60s, negative = probe disabled). Reloadable.
	HealthzStallSeconds float64 `json:"healthz_stall_seconds,omitempty"`
}

// Pairing tunes the sensor/actuator frame correlator.
type Pairing struct {
	// Window is the reorder depth in sequence numbers (0 = 64).
	Window int `json:"window,omitempty"`
	// TimeoutSeconds flushes observations whose mate frame is this late
	// (0 = 2s, negative = never).
	TimeoutSeconds float64 `json:"timeout_seconds,omitempty"`
	// StallAfter is the consecutive one-view orphan count that raises a
	// ViewStalled event (0 = 8, negative = disabled).
	StallAfter int `json:"stall_after,omitempty"`
	// Dedup suppresses content-identical frames within a sliding window of
	// this many frames (redundant collectors; 0 = off).
	Dedup int `json:"dedup,omitempty"`
}

// FleetCfg sizes the scoring pool.
type FleetCfg struct {
	// Workers is the scoring goroutine count (0 = GOMAXPROCS).
	Workers int `json:"workers,omitempty"`
	// Mailbox is the per-worker queue depth in messages (0 = 64).
	Mailbox int `json:"mailbox,omitempty"`
	// Batch is the observations aggregated per delivery (0 = 16).
	Batch int `json:"batch,omitempty"`
	// FlushEveryMS is the partial-batch delivery cadence in milliseconds
	// (0 = 2ms, negative = only on full batch or detach).
	FlushEveryMS float64 `json:"flush_every_ms,omitempty"`
	// EventBuffer is the event fan-in depth (0 = 256).
	EventBuffer int `json:"event_buffer,omitempty"`
	// EmitEvery streams one scored event per N observations per unit onto
	// /events subscribers (0 = none — serve mode defaults to alarms,
	// verdicts and swaps only, so the SSE stream is not a firehose).
	EmitEvery int `json:"emit_every,omitempty"`
}

// Adapt enables fleet-wide adaptive recalibration.
type Adapt struct {
	// Every refits the shared model every N in-control observations
	// (0 = frozen model).
	Every int `json:"every,omitempty"`
	// Forget is the EWMA forget factor in (0,1] (0 = default 0.999;
	// requires Every).
	Forget float64 `json:"forget,omitempty"`
}

// Record configures the durable capture store: a segment chain at
// `<path>.NNNNN.pcscap`, each sealed segment with its `.pcsidx` index. A
// bare Path records 64 MiB segments with unlimited retention; an
// existing chain at Path is refused (fieldbus.ErrStoreExists).
type Record struct {
	// Path is the segment-chain base ("" = no recording).
	Path string `json:"path,omitempty"`
	// SegmentBytes rotates segments at this size (0 = 64 MiB).
	SegmentBytes int64 `json:"segment_bytes,omitempty"`
	// SegmentSpanSeconds rotates segments at this much capture time.
	SegmentSpanSeconds float64 `json:"segment_span_seconds,omitempty"`
	// Keep bounds the chain to this many segments, oldest pruned.
	Keep int `json:"keep,omitempty"`
	// KeepBytes bounds the chain's total size.
	KeepBytes int64 `json:"keep_bytes,omitempty"`
	// KeepAgeSeconds prunes segments this far behind the newest record.
	KeepAgeSeconds float64 `json:"keep_age_seconds,omitempty"`
	// FlushSeconds is the crash-durability flush cadence (0 = 1s,
	// negative = flush only at the end).
	FlushSeconds float64 `json:"flush_seconds,omitempty"`
}

// UnitCfg is one unit's override block.
type UnitCfg struct {
	// OnsetHour overrides the global onset for this unit (nil = inherit).
	OnsetHour *float64 `json:"onset_hour,omitempty"`
}

// Cluster configures multi-node operation: this process's name and the
// full membership the rendezvous table assigns units over.
type Cluster struct {
	// Node is this process's name (required when Nodes is non-empty).
	Node string `json:"node,omitempty"`
	// Nodes is the full membership; every serve process must list the same
	// set so the unit→node assignment agrees without coordination.
	Nodes []string `json:"nodes,omitempty"`
}

// Load reads and validates a config file.
func Load(path string) (*Config, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("control: %s: %v: %w", path, err, ErrBadConfig)
	}
	defer func() { _ = f.Close() }()
	cfg, err := Parse(f)
	if err != nil {
		return nil, fmt.Errorf("control: %s: %w", path, err)
	}
	return cfg, nil
}

// Parse strictly decodes and validates a config document: unknown fields
// are rejected (a typoed knob must not silently no-op) and every
// validation error names its field path and wraps ErrBadConfig.
func Parse(r io.Reader) (*Config, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var cfg Config
	if err := dec.Decode(&cfg); err != nil {
		return nil, fmt.Errorf("%v: %w", err, ErrBadConfig)
	}
	// A second document in the same file is a concatenation mistake.
	if err := dec.Decode(new(json.RawMessage)); err != io.EOF {
		return nil, fmt.Errorf("trailing data after config document: %w", ErrBadConfig)
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &cfg, nil
}

// badField builds the canonical field-path validation error.
func badField(path string, format string, args ...any) error {
	return fmt.Errorf("%s: %s: %w", path, fmt.Sprintf(format, args...), ErrBadConfig)
}

// Validate checks a serve document: every field's range (see
// validateFields) plus the presence rules of serve mode — a calibration,
// at least one listener and an ops address. Errors name the offending
// path.
func (c *Config) Validate() error {
	switch {
	case c.Calibration == "":
		return badField("calibration", "required")
	case c.Listeners.TCP == "" && c.Listeners.UDP == "":
		return badField("listeners", "at least one of listeners.tcp / listeners.udp is required")
	case c.Ops.Addr == "":
		return badField("ops.addr", "required (the control API is served there)")
	}
	return c.validateFields()
}

// validateFields checks every field's range, naming the offending path.
// New runs only this: a plane fed from a capture needs no listener, one
// without an ops address runs without the HTTP stack, and one given a
// calibrated system needs no calibration file.
func (c *Config) validateFields() error {
	switch {
	case !(c.SampleSeconds >= 0):
		return badField("sample_seconds", "%g must be >= 0", c.SampleSeconds)
	case !(c.OnsetHour >= 0):
		return badField("onset_hour", "%g must be >= 0", c.OnsetHour)
	case c.Components < 0:
		return badField("components", "%d must be >= 0", c.Components)
	case c.Pairing.Window < 0:
		return badField("pairing.window", "%d must be >= 0", c.Pairing.Window)
	case c.Pairing.Dedup < 0:
		return badField("pairing.dedup", "%d must be >= 0", c.Pairing.Dedup)
	case c.Fleet.Workers < 0:
		return badField("fleet.workers", "%d must be >= 0", c.Fleet.Workers)
	case c.Fleet.Mailbox < 0:
		return badField("fleet.mailbox", "%d must be >= 0", c.Fleet.Mailbox)
	case c.Fleet.Batch < 0:
		return badField("fleet.batch", "%d must be >= 0", c.Fleet.Batch)
	case c.Fleet.EventBuffer < 0:
		return badField("fleet.event_buffer", "%d must be >= 0", c.Fleet.EventBuffer)
	case c.Fleet.EmitEvery < 0:
		return badField("fleet.emit_every", "%d must be >= 0", c.Fleet.EmitEvery)
	case c.Adapt.Every < 0:
		return badField("adapt.every", "%d must be >= 0", c.Adapt.Every)
	case c.Adapt.Forget != 0 && !(c.Adapt.Forget > 0 && c.Adapt.Forget <= 1):
		return badField("adapt.forget", "%g must be in (0,1]", c.Adapt.Forget)
	case c.Adapt.Forget != 0 && c.Adapt.Every == 0:
		return badField("adapt.forget", "requires adapt.every")
	case c.Record.SegmentBytes < 0:
		return badField("record.segment_bytes", "%d must be >= 0", c.Record.SegmentBytes)
	case c.Record.SegmentSpanSeconds < 0:
		return badField("record.segment_span_seconds", "%g must be >= 0", c.Record.SegmentSpanSeconds)
	case c.Record.Keep < 0:
		return badField("record.keep", "%d must be >= 0", c.Record.Keep)
	case c.Record.KeepBytes < 0:
		return badField("record.keep_bytes", "%d must be >= 0", c.Record.KeepBytes)
	case c.Record.KeepAgeSeconds < 0:
		return badField("record.keep_age_seconds", "%g must be >= 0", c.Record.KeepAgeSeconds)
	case c.Record.Path == "" && c.Record.storeMode():
		return badField("record.path", "required when any rotation/retention field is set")
	}
	for key, u := range c.Units {
		path := "units." + key
		if _, err := parseUnitKey(key); err != nil {
			return badField(path, "%v", err)
		}
		if u.OnsetHour != nil && *u.OnsetHour < 0 {
			return badField(path+".onset_hour", "%g must be >= 0", *u.OnsetHour)
		}
	}
	if err := c.Cluster.validate(); err != nil {
		return err
	}
	return nil
}

func (cl *Cluster) validate() error {
	if len(cl.Nodes) == 0 {
		if cl.Node != "" {
			return badField("cluster.node", "%q set without cluster.nodes", cl.Node)
		}
		return nil
	}
	if cl.Node == "" {
		return badField("cluster.node", "required with cluster.nodes (which node is this process?)")
	}
	seen := map[string]bool{}
	self := false
	for i, n := range cl.Nodes {
		switch {
		case n == "":
			return badField(fmt.Sprintf("cluster.nodes[%d]", i), "empty node name")
		case seen[n]:
			return badField(fmt.Sprintf("cluster.nodes[%d]", i), "duplicate node %q", n)
		}
		seen[n] = true
		if n == cl.Node {
			self = true
		}
	}
	if !self {
		return badField("cluster.node", "%q not in cluster.nodes", cl.Node)
	}
	return nil
}

// parseUnitKey resolves a unit reference: a decimal id ("7") or the
// plant-id form ("unit-007").
func parseUnitKey(key string) (uint8, error) {
	s := strings.TrimPrefix(key, "unit-")
	n, err := strconv.ParseUint(s, 10, 64)
	if err != nil || n > 255 {
		return 0, fmt.Errorf("unit id %q must be 0..255 or unit-NNN: %w", key, ErrBadConfig)
	}
	return uint8(n), nil
}

// storeMode reports whether any rotation/retention field is set.
func (r Record) storeMode() bool {
	return r.SegmentBytes != 0 || r.SegmentSpanSeconds != 0 ||
		r.Keep != 0 || r.KeepBytes != 0 || r.KeepAgeSeconds != 0
}

// Derived accessors: the zero-defaulting the flag layer used to do.

func (c *Config) sampleSeconds() float64 {
	if c.SampleSeconds == 0 {
		return 4.5
	}
	return c.SampleSeconds
}

// Sample returns the observation interval.
func (c *Config) Sample() time.Duration {
	return time.Duration(c.sampleSeconds() * float64(time.Second))
}

// OnsetIndex converts the global onset hour to an observation index.
func (c *Config) OnsetIndex() int {
	return int(c.OnsetHour * 3600 / c.sampleSeconds())
}

// UnitOnsets resolves the per-unit onset override table into observation
// indexes (-1 = inherit the global onset).
func (c *Config) UnitOnsets() [256]int {
	var onsets [256]int
	for i := range onsets {
		onsets[i] = -1
	}
	for key, u := range c.Units {
		unit, err := parseUnitKey(key)
		if err != nil || u.OnsetHour == nil {
			continue // Validate already rejected bad keys
		}
		onsets[unit] = int(*u.OnsetHour * 3600 / c.sampleSeconds())
	}
	return onsets
}

// PoolConfig maps the config onto the scoring pool's settings: emit_every
// 0 = no scored events (a service's event stream gets per-observation
// scores only when asked for), adapt.every 0 = frozen model,
// flush_every_ms in milliseconds, sample_seconds 0 = 4.5 s. The caller
// sets Metrics and Health.
func (c *Config) PoolConfig() fleet.Config {
	fc := fleet.Config{
		Workers:     c.Fleet.Workers,
		Mailbox:     c.Fleet.Mailbox,
		Batch:       c.Fleet.Batch,
		FlushEvery:  time.Duration(c.Fleet.FlushEveryMS * float64(time.Millisecond)),
		EventBuffer: c.Fleet.EventBuffer,
		EmitEvery:   c.Fleet.EmitEvery,
		Sample:      c.Sample(),
	}
	if fc.EmitEvery == 0 {
		fc.EmitEvery = -1
	}
	if c.Adapt.Every != 0 {
		fc.Adapt = adapt.Options{Enabled: true, Every: c.Adapt.Every, Forget: c.Adapt.Forget}
	}
	return fc
}

// PairTimeout returns the pairing age horizon (0 = never).
func (c *Config) PairTimeout() time.Duration {
	if c.Pairing.TimeoutSeconds < 0 {
		return 0
	}
	if c.Pairing.TimeoutSeconds == 0 {
		return 2 * time.Second
	}
	return time.Duration(c.Pairing.TimeoutSeconds * float64(time.Second))
}

// StallHorizon returns the /healthz stall horizon (negative = disabled).
func (c *Config) StallHorizon() time.Duration {
	if c.Ops.HealthzStallSeconds < 0 {
		return -1
	}
	if c.Ops.HealthzStallSeconds == 0 {
		return time.Minute
	}
	return time.Duration(c.Ops.HealthzStallSeconds * float64(time.Second))
}

// ErrNotReloadable reports a POST /reload or SIGHUP whose new config
// changes fields only a restart can apply.
var ErrNotReloadable = errors.New("control: field changed but is not reloadable without a restart")

// CheckReload verifies that next differs from c only in the reloadable
// subset — ops.healthz_stall_seconds and units.* — and returns the field
// that violates it otherwise. Everything else (listeners, model, pool
// geometry, record chain) is wired into running goroutines and sockets;
// pretending to reload those would silently keep stale values.
func (c *Config) CheckReload(next *Config) error {
	frozen := []struct {
		name     string
		old, new any
	}{
		{"calibration", c.Calibration, next.Calibration},
		{"sample_seconds", c.SampleSeconds, next.SampleSeconds},
		{"onset_hour", c.OnsetHour, next.OnsetHour},
		{"components", c.Components, next.Components},
		{"listeners", c.Listeners, next.Listeners},
		{"ops.addr", c.Ops.Addr, next.Ops.Addr},
		{"ops.auth_token", c.Ops.AuthToken, next.Ops.AuthToken},
		{"pairing", c.Pairing, next.Pairing},
		{"fleet", c.Fleet, next.Fleet},
		{"adapt", c.Adapt, next.Adapt},
		{"record", c.Record, next.Record},
		{"cluster", fmt.Sprint(c.Cluster), fmt.Sprint(next.Cluster)},
	}
	for _, f := range frozen {
		if f.old != f.new {
			return fmt.Errorf("%s: %w", f.name, ErrNotReloadable)
		}
	}
	return nil
}

// Redacted returns a copy safe to serve from GET /config: secrets masked.
func (c *Config) Redacted() Config {
	out := *c
	if out.Ops.AuthToken != "" {
		out.Ops.AuthToken = "[redacted]"
	}
	return out
}
