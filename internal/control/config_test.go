package control

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"pcsmon"
	"pcsmon/internal/adapt"
	"pcsmon/internal/core"
	"pcsmon/internal/fleet"
)

// validConfig is the smallest document Validate accepts.
func validConfig() *Config {
	return &Config{
		Calibration: "cal.csv",
		Listeners:   Listeners{TCP: "127.0.0.1:0"},
		Ops:         Ops{Addr: "127.0.0.1:0"},
	}
}

func TestParseDefaults(t *testing.T) {
	cfg, err := Parse(strings.NewReader(`{
		"calibration": "cal.csv",
		"listeners": {"tcp": "127.0.0.1:7700"},
		"ops": {"addr": "127.0.0.1:9101"}
	}`))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if got := cfg.Sample(); got != 4500*time.Millisecond {
		t.Errorf("default Sample = %v, want 4.5s", got)
	}
	if got := cfg.PairTimeout(); got != 2*time.Second {
		t.Errorf("default PairTimeout = %v, want 2s", got)
	}
	if got := cfg.StallHorizon(); got != time.Minute {
		t.Errorf("default StallHorizon = %v, want 1m", got)
	}
	if got := cfg.OnsetIndex(); got != 0 {
		t.Errorf("default OnsetIndex = %d, want 0", got)
	}
}

func TestParseNegativeConventions(t *testing.T) {
	cfg := validConfig()
	cfg.Pairing.TimeoutSeconds = -1
	cfg.Ops.HealthzStallSeconds = -1
	if got := cfg.PairTimeout(); got != 0 {
		t.Errorf("PairTimeout(-1s) = %v, want 0 (never)", got)
	}
	if got := cfg.StallHorizon(); got >= 0 {
		t.Errorf("StallHorizon(-1s) = %v, want negative (disabled)", got)
	}
}

// TestPoolConfig pins the config → pool mapping the plane and CSV
// `mspctool fleet` share: zero values select the config's conventions,
// not the pool's (emit_every 0 is no Scored events, not every one).
func TestPoolConfig(t *testing.T) {
	for _, tc := range []struct {
		name string
		set  func(*Config)
		want fleet.Config
	}{
		{"defaults", func(*Config) {},
			fleet.Config{EmitEvery: -1, Sample: 4500 * time.Millisecond}},
		{"emit_every N", func(c *Config) { c.Fleet.EmitEvery = 50 },
			fleet.Config{EmitEvery: 50, Sample: 4500 * time.Millisecond}},
		{"adapt.every 0 with forget", func(c *Config) { c.Adapt.Forget = 0.99 },
			fleet.Config{EmitEvery: -1, Sample: 4500 * time.Millisecond}},
		{"adapt.every N", func(c *Config) { c.Adapt = Adapt{Every: 64, Forget: 0.99} },
			fleet.Config{EmitEvery: -1, Sample: 4500 * time.Millisecond,
				Adapt: adapt.Options{Enabled: true, Every: 64, Forget: 0.99}}},
		{"flush_every_ms", func(c *Config) { c.Fleet.FlushEveryMS = 2.5 },
			fleet.Config{EmitEvery: -1, Sample: 4500 * time.Millisecond, FlushEvery: 2500 * time.Microsecond}},
		{"flush_every_ms negative", func(c *Config) { c.Fleet.FlushEveryMS = -1 },
			fleet.Config{EmitEvery: -1, Sample: 4500 * time.Millisecond, FlushEvery: -time.Millisecond}},
		{"sample_seconds", func(c *Config) { c.SampleSeconds = 9 },
			fleet.Config{EmitEvery: -1, Sample: 9 * time.Second}},
		{"pool geometry", func(c *Config) {
			c.Fleet = FleetCfg{Workers: 3, Mailbox: 8, Batch: 4, EventBuffer: 32}
		}, fleet.Config{Workers: 3, Mailbox: 8, Batch: 4, EventBuffer: 32,
			EmitEvery: -1, Sample: 4500 * time.Millisecond}},
	} {
		cfg := validConfig()
		tc.set(cfg)
		if got := cfg.PoolConfig(); got != tc.want {
			t.Errorf("%s: PoolConfig() = %+v, want %+v", tc.name, got, tc.want)
		}
	}
}

// TestErrBadConfigIsOneSentinel: the control plane, the facade and core
// share one sentinel value, so errors.Is holds across packages.
func TestErrBadConfigIsOneSentinel(t *testing.T) {
	if ErrBadConfig != pcsmon.ErrBadConfig || ErrBadConfig != core.ErrBadConfig {
		t.Fatal("control, pcsmon and core ErrBadConfig are different values")
	}
	if got := ErrBadConfig.Error(); got != "pcsmon: invalid configuration" {
		t.Errorf("ErrBadConfig message = %q", got)
	}
}

// TestValidateFieldPaths: every validation failure must name its field
// path and wrap ErrBadConfig (which is the facade sentinel).
func TestValidateFieldPaths(t *testing.T) {
	neg := -1.0
	cases := []struct {
		path string
		mut  func(*Config)
	}{
		{"calibration", func(c *Config) { c.Calibration = "" }},
		{"sample_seconds", func(c *Config) { c.SampleSeconds = -1 }},
		{"onset_hour", func(c *Config) { c.OnsetHour = -1 }},
		{"components", func(c *Config) { c.Components = -1 }},
		{"listeners", func(c *Config) { c.Listeners = Listeners{} }},
		{"ops.addr", func(c *Config) { c.Ops.Addr = "" }},
		{"pairing.window", func(c *Config) { c.Pairing.Window = -1 }},
		{"pairing.dedup", func(c *Config) { c.Pairing.Dedup = -1 }},
		{"fleet.workers", func(c *Config) { c.Fleet.Workers = -1 }},
		{"fleet.emit_every", func(c *Config) { c.Fleet.EmitEvery = -1 }},
		{"adapt.forget", func(c *Config) { c.Adapt.Forget = 0.5 }}, // without adapt.every
		{"record.path", func(c *Config) { c.Record.Keep = 3 }},     // retention without a path
		{"units.boiler", func(c *Config) { c.Units = map[string]UnitCfg{"boiler": {}} }},
		{"units.7.onset_hour", func(c *Config) { c.Units = map[string]UnitCfg{"7": {OnsetHour: &neg}} }},
		{"cluster.node", func(c *Config) { c.Cluster = Cluster{Nodes: []string{"a", "b"}} }},
		{"cluster.node", func(c *Config) { c.Cluster = Cluster{Node: "c", Nodes: []string{"a", "b"}} }},
		{"cluster.nodes[1]", func(c *Config) { c.Cluster = Cluster{Node: "a", Nodes: []string{"a", "a"}} }},
	}
	for _, tc := range cases {
		cfg := validConfig()
		tc.mut(cfg)
		err := cfg.Validate()
		if err == nil {
			t.Errorf("%s: Validate accepted a bad value", tc.path)
			continue
		}
		if !errors.Is(err, ErrBadConfig) || !errors.Is(err, pcsmon.ErrBadConfig) {
			t.Errorf("%s: error %v does not wrap ErrBadConfig", tc.path, err)
		}
		if !strings.Contains(err.Error(), tc.path) {
			t.Errorf("%s: error %q does not name the field path", tc.path, err)
		}
	}
}

func TestParseRejectsUnknownFieldsAndTrailingData(t *testing.T) {
	_, err := Parse(strings.NewReader(`{"calibration": "c.csv", "listners": {"tcp": "x"}}`))
	if err == nil || !errors.Is(err, ErrBadConfig) {
		t.Errorf("typoed field: err = %v, want ErrBadConfig", err)
	}
	_, err = Parse(strings.NewReader(`{
		"calibration": "c.csv",
		"listeners": {"tcp": "127.0.0.1:0"},
		"ops": {"addr": "127.0.0.1:0"}
	} {"calibration": "second.csv"}`))
	if err == nil || !strings.Contains(err.Error(), "trailing") {
		t.Errorf("concatenated documents: err = %v, want trailing-data rejection", err)
	}
}

func TestParseUnitKeyForms(t *testing.T) {
	for _, tc := range []struct {
		key  string
		want uint8
		ok   bool
	}{
		{"7", 7, true},
		{"007", 7, true},
		{"unit-007", 7, true},
		{"unit-255", 255, true},
		{"256", 0, false},
		{"unit-999", 0, false},
		{"boiler", 0, false},
		{"-1", 0, false},
	} {
		got, err := parseUnitKey(tc.key)
		if (err == nil) != tc.ok || got != tc.want {
			t.Errorf("parseUnitKey(%q) = %d, %v; want %d, ok=%v", tc.key, got, err, tc.want, tc.ok)
		}
	}
}

func TestUnitOnsets(t *testing.T) {
	h := 2.0
	cfg := validConfig()
	cfg.SampleSeconds = 9
	cfg.OnsetHour = 1
	cfg.Units = map[string]UnitCfg{"unit-003": {OnsetHour: &h}, "5": {}}
	onsets := cfg.UnitOnsets()
	if onsets[3] != int(2*3600/9) {
		t.Errorf("unit 3 onset = %d, want %d", onsets[3], int(2*3600/9))
	}
	for _, u := range []int{0, 5, 255} {
		if onsets[u] != -1 {
			t.Errorf("unit %d onset = %d, want -1 (inherit)", u, onsets[u])
		}
	}
	if got := cfg.OnsetIndex(); got != 400 {
		t.Errorf("global OnsetIndex = %d, want 400", got)
	}
}

func TestCheckReload(t *testing.T) {
	cur := validConfig()

	next := *cur
	next.Ops.HealthzStallSeconds = 300
	h := 3.5
	next.Units = map[string]UnitCfg{"9": {OnsetHour: &h}}
	if err := cur.CheckReload(&next); err != nil {
		t.Errorf("reloadable subset rejected: %v", err)
	}

	for _, tc := range []struct {
		name string
		mut  func(*Config)
	}{
		{"calibration", func(c *Config) { c.Calibration = "other.csv" }},
		{"listeners", func(c *Config) { c.Listeners.TCP = "127.0.0.1:7701" }},
		{"ops.addr", func(c *Config) { c.Ops.Addr = "127.0.0.1:9999" }},
		{"ops.auth_token", func(c *Config) { c.Ops.AuthToken = "hunter2" }},
		{"pairing", func(c *Config) { c.Pairing.Window = 128 }},
		{"fleet", func(c *Config) { c.Fleet.Workers = 2 }},
		{"record", func(c *Config) { c.Record.Path = "x.pcscap" }},
		{"cluster", func(c *Config) { c.Cluster = Cluster{Node: "a", Nodes: []string{"a"}} }},
	} {
		frozen := *cur
		tc.mut(&frozen)
		err := cur.CheckReload(&frozen)
		if err == nil || !errors.Is(err, ErrNotReloadable) {
			t.Errorf("%s: CheckReload = %v, want ErrNotReloadable", tc.name, err)
			continue
		}
		if !strings.Contains(err.Error(), tc.name) {
			t.Errorf("%s: error %q does not name the frozen field", tc.name, err)
		}
	}
}

func TestRedactedMasksAuthToken(t *testing.T) {
	cfg := validConfig()
	cfg.Ops.AuthToken = "sesame"
	red := cfg.Redacted()
	if red.Ops.AuthToken != "[redacted]" {
		t.Errorf("Redacted token = %q", red.Ops.AuthToken)
	}
	if cfg.Ops.AuthToken != "sesame" {
		t.Errorf("Redacted mutated the original")
	}
}

func TestLoadFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "plant.json")
	if err := os.WriteFile(path, []byte(`{
		"calibration": "cal.csv",
		"listeners": {"udp": "127.0.0.1:0"},
		"ops": {"addr": "127.0.0.1:0", "auth_token": "t"},
		"cluster": {"node": "a", "nodes": ["a", "b"]}
	}`), 0o644); err != nil {
		t.Fatal(err)
	}
	cfg, err := Load(path)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if cfg.Cluster.Node != "a" || len(cfg.Cluster.Nodes) != 2 {
		t.Errorf("cluster block not loaded: %+v", cfg.Cluster)
	}
	if _, err := Load(filepath.Join(dir, "missing.json")); !errors.Is(err, ErrBadConfig) {
		t.Errorf("Load(missing) = %v, want ErrBadConfig", err)
	}
}
