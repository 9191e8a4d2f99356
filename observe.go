package pcsmon

import "pcsmon/internal/obs"

// Observability bundles the two registries the monitor exports live state
// through: a Prometheus-style metrics registry (scraped as text exposition
// by the ops server's GET /metrics) and a per-unit health registry (dumped
// as JSON by GET /status). Create one with NewObservability, hand it to
// FleetOptions.Obs, and every layer the fleet touches — scoring pool,
// adaptive tracker — registers its series on it (the control plane adds
// its pairing, transport and capture series to the same registry).
//
// The instrumentation contract matches the fleet's: aggregate counters are
// exported as scrape-time closures over atomics the layers already keep,
// and the only hot-path recordings (scoring latency, batch occupancy,
// per-unit health) are alloc-free, so the 0 allocs/observation invariant
// holds with observability enabled.
type Observability struct {
	// Metrics is the process-wide metric registry. Series names follow the
	// enforced convention: pcsmon_ prefix, snake_case, counters end in
	// _total, histograms in a unit suffix.
	Metrics *MetricsRegistry
	// Health tracks every attached unit's live state (last-seen, current
	// T²/SPE vs. limits, alarm views, model generation, verdict).
	Health *HealthRegistry
}

// Re-exported observability types: the facade's aliases over internal/obs.
type (
	// MetricsRegistry is a dependency-free Prometheus-style registry.
	MetricsRegistry = obs.Registry
	// HealthRegistry is the per-unit health registry.
	HealthRegistry = obs.HealthRegistry
	// UnitHealth is one unit's live health handle.
	UnitHealth = obs.UnitHealth
	// UnitStatus is one unit's JSON-ready health snapshot.
	UnitStatus = obs.UnitStatus
	// StatusDoc is the GET /status response document.
	StatusDoc = obs.StatusDoc
)

// ErrBadMetric is returned for metric registrations that violate the
// naming convention or re-register an existing series.
var ErrBadMetric = obs.ErrBadMetric

// NewObservability returns a fresh metrics + health registry pair.
func NewObservability() *Observability {
	return &Observability{
		Metrics: obs.NewRegistry(),
		Health:  obs.NewHealthRegistry(),
	}
}
