package obs

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// UnitHealth is one attached unit's live state. All write methods are
// single-atomic-store cheap and safe to call from the scoring hot path;
// readers (Status) see a point-in-time, possibly mid-update snapshot —
// exactly what a live status endpoint wants.
type UnitHealth struct {
	id string

	lastSeen     atomic.Int64 // UnixNano of the last scored observation
	observations atomic.Uint64
	alarms       atomic.Uint64
	held         atomic.Uint64 // observations scored with a hold-last view
	dropped      atomic.Uint64 // frames lost to gaps/dups/stale/outliers

	// Latest chart statistics and the limits they are judged against,
	// stored as float64 bits.
	ctrlD, ctrlQ, procD, procQ atomic.Uint64
	d99, q99                   atomic.Uint64

	over       atomic.Bool   // latest observation exceeded a 99 % limit
	alarmViews atomic.Uint32 // bitmask: 1 = controller, 2 = process
	generation atomic.Uint64

	verdict  atomic.Pointer[string] // nil until the stream finalized
	detached atomic.Bool
}

// Alarm view bits.
const (
	AlarmCtrl uint32 = 1 << iota
	AlarmProc
)

// ID returns the unit's stream id.
func (u *UnitHealth) ID() string { return u.id }

// Observe records n scored observations, the latest at now: last-seen
// time, the two views' latest chart statistics and whether the latest
// point exceeded a 99 % limit. NaN marks a view as absent from these
// observations (its last value is retained).
func (u *UnitHealth) Observe(now int64, n uint64, ctrlD, ctrlQ, procD, procQ float64, over bool) {
	u.lastSeen.Store(now)
	u.observations.Add(n)
	if !math.IsNaN(ctrlD) {
		u.ctrlD.Store(math.Float64bits(ctrlD))
		u.ctrlQ.Store(math.Float64bits(ctrlQ))
	}
	if !math.IsNaN(procD) {
		u.procD.Store(math.Float64bits(procD))
		u.procQ.Store(math.Float64bits(procQ))
	}
	u.over.Store(over)
}

// SetLimits records the 99 % control limits the unit is currently judged
// against (updated on adaptive model swaps).
func (u *UnitHealth) SetLimits(d99, q99 float64) {
	u.d99.Store(math.Float64bits(d99))
	u.q99.Store(math.Float64bits(q99))
}

// Alarm latches a run-rule detection on the given view bit.
func (u *UnitHealth) Alarm(view uint32) {
	u.alarms.Add(1)
	for {
		old := u.alarmViews.Load()
		if old&view == view || u.alarmViews.CompareAndSwap(old, old|view) {
			return
		}
	}
}

// SetGeneration records the model generation the unit is scored against.
func (u *UnitHealth) SetGeneration(gen uint64) { u.generation.Store(gen) }

// AddHeld counts an observation scored with a hold-last-value view.
func (u *UnitHealth) AddHeld(n uint64) { u.held.Add(n) }

// AddDropped counts frames lost to gaps, duplicates, stale arrivals or
// quarantined outliers.
func (u *UnitHealth) AddDropped(n uint64) { u.dropped.Add(n) }

// SetVerdict records the stream's final classification and marks it
// detached.
func (u *UnitHealth) SetVerdict(v string) {
	u.verdict.Store(&v)
	u.detached.Store(true)
}

// UnitStatus is the JSON-ready snapshot of one unit — the element of the
// ops server's GET /status dump and of `mspctool status` tables.
type UnitStatus struct {
	Unit         string  `json:"unit"`
	AgeSeconds   float64 `json:"age_seconds"`
	Observations uint64  `json:"observations"`
	Alarms       uint64  `json:"alarms"`
	CtrlD        float64 `json:"ctrl_d"`
	CtrlQ        float64 `json:"ctrl_q"`
	ProcD        float64 `json:"proc_d"`
	ProcQ        float64 `json:"proc_q"`
	D99          float64 `json:"d99"`
	Q99          float64 `json:"q99"`
	OverLimit    bool    `json:"over_limit"`
	AlarmViews   string  `json:"alarm_views,omitempty"` // "ctrl", "proc", "ctrl+proc"
	Generation   uint64  `json:"model_generation"`
	HeldObs      uint64  `json:"held_observations,omitempty"`
	DroppedFr    uint64  `json:"dropped_frames,omitempty"`
	Verdict      string  `json:"verdict,omitempty"`
	Detached     bool    `json:"detached,omitempty"`
}

// Status snapshots the unit at now.
func (u *UnitHealth) Status(now time.Time) UnitStatus {
	st := UnitStatus{
		Unit:         u.id,
		Observations: u.observations.Load(),
		Alarms:       u.alarms.Load(),
		CtrlD:        math.Float64frombits(u.ctrlD.Load()),
		CtrlQ:        math.Float64frombits(u.ctrlQ.Load()),
		ProcD:        math.Float64frombits(u.procD.Load()),
		ProcQ:        math.Float64frombits(u.procQ.Load()),
		D99:          math.Float64frombits(u.d99.Load()),
		Q99:          math.Float64frombits(u.q99.Load()),
		OverLimit:    u.over.Load(),
		Generation:   u.generation.Load(),
		HeldObs:      u.held.Load(),
		DroppedFr:    u.dropped.Load(),
		Detached:     u.detached.Load(),
	}
	if seen := u.lastSeen.Load(); seen > 0 {
		st.AgeSeconds = now.Sub(time.Unix(0, seen)).Seconds()
		if st.AgeSeconds < 0 {
			st.AgeSeconds = 0
		}
	}
	switch u.alarmViews.Load() {
	case AlarmCtrl:
		st.AlarmViews = "ctrl"
	case AlarmProc:
		st.AlarmViews = "proc"
	case AlarmCtrl | AlarmProc:
		st.AlarmViews = "ctrl+proc"
	}
	if v := u.verdict.Load(); v != nil {
		st.Verdict = *v
	}
	return st
}

// HealthRegistry tracks every attached unit's UnitHealth. Attach is
// setup-path (one map insert per stream lifetime); the per-observation
// updates go through the returned handle without touching the registry.
type HealthRegistry struct {
	mu    sync.RWMutex
	units map[string]*UnitHealth
}

// NewHealthRegistry returns an empty registry.
func NewHealthRegistry() *HealthRegistry {
	return &HealthRegistry{units: make(map[string]*UnitHealth)}
}

// Attach returns the unit's health handle, creating it on first sight.
// Re-attaching an id (a detached stream's plant reattaching) revives the
// existing entry: its counters continue, the detached mark clears.
func (h *HealthRegistry) Attach(id string) *UnitHealth {
	h.mu.Lock()
	defer h.mu.Unlock()
	u := h.units[id]
	if u == nil {
		u = &UnitHealth{id: id}
		h.units[id] = u
	}
	u.detached.Store(false)
	return u
}

// Get returns the unit's handle, or nil when unknown.
func (h *HealthRegistry) Get(id string) *UnitHealth {
	h.mu.RLock()
	defer h.mu.RUnlock()
	return h.units[id]
}

// Len returns the number of tracked units.
func (h *HealthRegistry) Len() int {
	h.mu.RLock()
	defer h.mu.RUnlock()
	return len(h.units)
}

// Snapshot returns every unit's status at now, sorted by unit id.
func (h *HealthRegistry) Snapshot(now time.Time) []UnitStatus {
	h.mu.RLock()
	units := make([]*UnitHealth, 0, len(h.units))
	for _, u := range h.units {
		units = append(units, u)
	}
	h.mu.RUnlock()
	sort.Slice(units, func(i, j int) bool { return units[i].id < units[j].id })
	out := make([]UnitStatus, len(units))
	for i, u := range units {
		out[i] = u.Status(now)
	}
	return out
}

// StatusDoc is the GET /status response document: process uptime, the
// flat aggregate totals (fleet, pairing, transport counters) and every
// unit's live state.
type StatusDoc struct {
	UptimeSeconds float64            `json:"uptime_seconds"`
	Totals        map[string]float64 `json:"totals,omitempty"`
	Units         []UnitStatus       `json:"units"`
}
