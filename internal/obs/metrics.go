// Package obs is the monitor's observability core: a dependency-free
// metrics registry (atomic counters, gauges and fixed-bucket histograms
// with Prometheus text exposition — no client library import) plus a
// per-unit health registry tracking every attached stream's live state.
//
// The package exists so every layer of the pipeline — fleet scoring,
// two-view pairing, the wire transports, the capture store, adaptive
// recalibration — can publish its counters through one seam, scraped by
// the ops HTTP server (see the opsserver subpackage) instead of surfacing
// only as process-exit summary lines. Design constraints, in order:
//
//   - Recording must be allocation-free and lock-free: the fleet's scoring
//     path holds a 0 allocs/observation invariant, and instrumentation
//     rides inside it. Counter.Add, Gauge.Set and Histogram.Observe are a
//     handful of atomic operations each; a HistogramBuffer batches a
//     histogram's atomics for one goroutine.
//   - Reading must not perturb recording: exposition walks the registry
//     under a read lock that registration (setup-time only) takes for
//     writing; the values themselves are atomic loads.
//   - Scrape-time collection is first class: most of the pipeline already
//     keeps atomic counters behind Stats() snapshots, so CounterFunc and
//     GaugeFunc adapt those for free instead of double-counting on the hot
//     path.
//
// Metric naming is enforced at registration, not linted after the fact:
// every name must be snake_case with the pcsmon_ prefix, counters must end
// in _total, and histograms must carry a unit suffix — so a misnamed
// metric is a startup error, never a dashboard surprise.
package obs

import (
	"errors"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// ErrBadMetric is returned (wrapped) for invalid metric registrations:
// malformed names, duplicate series, bad bucket layouts.
var ErrBadMetric = errors.New("obs: invalid metric")

// NamePrefix is the mandatory prefix of every registered metric name.
const NamePrefix = "pcsmon_"

// histogramUnits are the unit suffixes a histogram name must end with —
// the naming lint's answer to "what is this distribution measured in".
var histogramUnits = []string{"_seconds", "_bytes", "_frames", "_observations"}

// Label is one constant key="value" pair attached to a series at
// registration. Series of the same family differ only by their labels.
type Label struct {
	Key, Value string
}

// Counter is a monotonically increasing metric. The zero value is unusable;
// obtain counters from Registry.Counter.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a metric that can go up and down, stored as float64 bits.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram is a fixed-bucket distribution. Observe is allocation-free and
// safe for concurrent use; exposition renders the Prometheus cumulative
// _bucket/_sum/_count family.
type Histogram struct {
	bounds []float64       // ascending upper bounds; +Inf is implicit
	counts []atomic.Uint64 // len(bounds)+1, last = overflow (+Inf)
	sum    atomic.Uint64   // float64 bits, CAS-accumulated
	count  atomic.Uint64
}

// Observe records one value. The bucket scan is linear — bucket layouts
// are small by design (a dozen bounds), and a branchy binary search would
// cost more than it saves.
func (h *Histogram) Observe(v float64) {
	h.counts[h.bucket(v)].Add(1)
	h.count.Add(1)
	h.addSum(v)
}

// bucket returns the index of v's bucket in counts.
func (h *Histogram) bucket(v float64) int {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	return i
}

func (h *Histogram) addSum(v float64) {
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// HistogramBuffer collects one goroutine's observations of a Histogram
// and adds them in one Flush: a few atomic adds per flush instead of three
// per observation, for recorders that work in batches. Observe and Flush
// must not run concurrently; scrapes see the observations once flushed.
type HistogramBuffer struct {
	h      *Histogram
	counts []uint64
	sum    float64
	n      uint64
}

// Buffer returns an empty buffer over h.
func (h *Histogram) Buffer() *HistogramBuffer {
	return &HistogramBuffer{h: h, counts: make([]uint64, len(h.counts))}
}

// Observe records one value in the buffer.
func (b *HistogramBuffer) Observe(v float64) {
	b.counts[b.h.bucket(v)]++
	b.sum += v
	b.n++
}

// Flush adds the buffered observations to the histogram and empties the
// buffer.
func (b *HistogramBuffer) Flush() {
	if b.n == 0 {
		return
	}
	for i, c := range b.counts {
		if c != 0 {
			b.h.counts[i].Add(c)
			b.counts[i] = 0
		}
	}
	b.h.count.Add(b.n)
	b.h.addSum(b.sum)
	b.sum, b.n = 0, 0
}

// Count returns the number of observations recorded.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// ExpBuckets returns n ascending bucket bounds starting at start and
// multiplying by factor — the standard latency/size layout.
func ExpBuckets(start, factor float64, n int) []float64 {
	b := make([]float64, n)
	v := start
	for i := range b {
		b[i] = v
		v *= factor
	}
	return b
}

// series is one labelled instance of a family: exactly one of the value
// sources is set.
type series struct {
	labels  string // rendered {k="v",...} block, "" for the bare series
	counter *Counter
	gauge   *Gauge
	fn      func() float64
	hist    *Histogram
}

// family is one named metric with its help text, type and series.
type family struct {
	name, help, typ string
	series          []*series
	seen            map[string]bool // label-block dedup
}

// FamilyInfo describes one registered family — the introspection surface
// the naming-lint tests and the catalog generator read.
type FamilyInfo struct {
	Name, Help, Type string
	Series           int
}

// Registry holds metric families and renders them in Prometheus text
// exposition format. Registration is setup-time and validated; recording
// through the returned handles is hot-path safe.
type Registry struct {
	mu       sync.RWMutex
	families map[string]*family
	order    []string
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// LintName checks a metric name against the project naming convention (see
// package doc) for the given metric type ("counter", "gauge", "histogram").
// It is the single source of truth shared by the registry's runtime
// registration checks and the pcslint metric-names analyzer, so the static
// and dynamic rules cannot drift.
func LintName(name, typ string) error {
	if !strings.HasPrefix(name, NamePrefix) {
		return fmt.Errorf("obs: %q must start with %q: %w", name, NamePrefix, ErrBadMetric)
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		if c >= 'a' && c <= 'z' || c >= '0' && c <= '9' || c == '_' {
			continue
		}
		return fmt.Errorf("obs: %q is not snake_case: %w", name, ErrBadMetric)
	}
	if strings.Contains(name, "__") || strings.HasSuffix(name, "_") {
		return fmt.Errorf("obs: %q is not snake_case: %w", name, ErrBadMetric)
	}
	switch typ {
	case "counter":
		if !strings.HasSuffix(name, "_total") {
			return fmt.Errorf("obs: counter %q must end in _total: %w", name, ErrBadMetric)
		}
	case "gauge":
		if strings.HasSuffix(name, "_total") {
			return fmt.Errorf("obs: gauge %q must not end in _total: %w", name, ErrBadMetric)
		}
	case "histogram":
		ok := false
		for _, u := range histogramUnits {
			if strings.HasSuffix(name, u) {
				ok = true
				break
			}
		}
		if !ok {
			return fmt.Errorf("obs: histogram %q must end in a unit suffix %v: %w", name, histogramUnits, ErrBadMetric)
		}
	}
	return nil
}

// renderLabels builds the canonical {k="v",...} block. Label keys are kept
// in argument order (they are registration constants, not data).
func renderLabels(labels []Label) (string, error) {
	if len(labels) == 0 {
		return "", nil
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range labels {
		if l.Key == "" {
			return "", fmt.Errorf("obs: empty label key: %w", ErrBadMetric)
		}
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(l.Value))
		b.WriteString(`"`)
	}
	b.WriteByte('}')
	return b.String(), nil
}

func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	return strings.ReplaceAll(v, `"`, `\"`)
}

// register validates and stores one series, creating its family on first
// sight.
func (r *Registry) register(name, help, typ string, labels []Label, s *series) error {
	if err := LintName(name, typ); err != nil {
		return err
	}
	lb, err := renderLabels(labels)
	if err != nil {
		return err
	}
	s.labels = lb
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.families[name]
	if f == nil {
		f = &family{name: name, help: help, typ: typ, seen: make(map[string]bool)}
		r.families[name] = f
		r.order = append(r.order, name)
	}
	if f.typ != typ {
		return fmt.Errorf("obs: %q registered as %s and %s: %w", name, f.typ, typ, ErrBadMetric)
	}
	if f.seen[lb] {
		return fmt.Errorf("obs: duplicate series %s%s: %w", name, lb, ErrBadMetric)
	}
	f.seen[lb] = true
	f.series = append(f.series, s)
	return nil
}

// Counter registers and returns a counter series.
func (r *Registry) Counter(name, help string, labels ...Label) (*Counter, error) {
	c := &Counter{}
	if err := r.register(name, help, "counter", labels, &series{counter: c}); err != nil {
		return nil, err
	}
	return c, nil
}

// Gauge registers and returns a gauge series.
func (r *Registry) Gauge(name, help string, labels ...Label) (*Gauge, error) {
	g := &Gauge{}
	if err := r.register(name, help, "gauge", labels, &series{gauge: g}); err != nil {
		return nil, err
	}
	return g, nil
}

// CounterFunc registers a counter whose value is collected at scrape time
// — the adapter over the pipeline's existing Stats() snapshots. fn must be
// monotone non-decreasing and safe for concurrent use.
func (r *Registry) CounterFunc(name, help string, fn func() float64, labels ...Label) error {
	if fn == nil {
		return fmt.Errorf("obs: %q: nil func: %w", name, ErrBadMetric)
	}
	return r.register(name, help, "counter", labels, &series{fn: fn})
}

// GaugeFunc registers a gauge collected at scrape time.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...Label) error {
	if fn == nil {
		return fmt.Errorf("obs: %q: nil func: %w", name, ErrBadMetric)
	}
	return r.register(name, help, "gauge", labels, &series{fn: fn})
}

// Histogram registers and returns a fixed-bucket histogram series. bounds
// must be ascending and non-empty; the +Inf bucket is implicit.
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...Label) (*Histogram, error) {
	if len(bounds) == 0 {
		return nil, fmt.Errorf("obs: histogram %q: no buckets: %w", name, ErrBadMetric)
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			return nil, fmt.Errorf("obs: histogram %q: buckets not ascending at %d: %w", name, i, ErrBadMetric)
		}
	}
	h := &Histogram{
		bounds: append([]float64(nil), bounds...),
		counts: make([]atomic.Uint64, len(bounds)+1),
	}
	if err := r.register(name, help, "histogram", labels, &series{hist: h}); err != nil {
		return nil, err
	}
	return h, nil
}

// Families lists the registered families sorted by name.
func (r *Registry) Families() []FamilyInfo {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]FamilyInfo, 0, len(r.order))
	for _, name := range r.order {
		f := r.families[name]
		out = append(out, FamilyInfo{Name: f.name, Help: f.help, Type: f.typ, Series: len(f.series)})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// WritePrometheus renders every family in Prometheus text exposition
// format (version 0.0.4), families in registration order.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.RLock()
	defer r.mu.RUnlock()
	var b strings.Builder
	for _, name := range r.order {
		f := r.families[name]
		b.Reset()
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s %s\n", f.name, escapeHelp(f.help), f.name, f.typ)
		for _, s := range f.series {
			switch {
			case s.counter != nil:
				writeSample(&b, f.name, "", s.labels, "", float64(s.counter.Value()))
			case s.gauge != nil:
				writeSample(&b, f.name, "", s.labels, "", s.gauge.Value())
			case s.fn != nil:
				//pcslint:ignore callback-under-lock -- scrape-time collectors are snapshot reads by contract (CounterFunc/GaugeFunc doc); registration is the only writer of r.mu and never runs inside a collector
				writeSample(&b, f.name, "", s.labels, "", s.fn())
			case s.hist != nil:
				writeHistogram(&b, f.name, s)
			}
		}
		if _, err := io.WriteString(w, b.String()); err != nil {
			return err
		}
	}
	return nil
}

func escapeHelp(h string) string {
	h = strings.ReplaceAll(h, `\`, `\\`)
	return strings.ReplaceAll(h, "\n", `\n`)
}

// writeSample emits one line: name[suffix][{labels+extra}] value.
func writeSample(b *strings.Builder, name, suffix, labels, extra string, v float64) {
	b.WriteString(name)
	b.WriteString(suffix)
	switch {
	case labels == "" && extra == "":
	case labels == "":
		b.WriteByte('{')
		b.WriteString(extra)
		b.WriteByte('}')
	case extra == "":
		b.WriteString(labels)
	default:
		b.WriteString(labels[:len(labels)-1]) // strip the closing brace
		b.WriteByte(',')
		b.WriteString(extra)
		b.WriteByte('}')
	}
	b.WriteByte(' ')
	b.WriteString(formatValue(v))
	b.WriteByte('\n')
}

func formatValue(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// writeHistogram emits the cumulative _bucket/_sum/_count family of one
// histogram series. Bucket counts are loaded once per bucket; the rendered
// snapshot may be mid-update (counts and sum need not be mutually
// consistent) which Prometheus histograms tolerate by design.
func writeHistogram(b *strings.Builder, name string, s *series) {
	h := s.hist
	cum := uint64(0)
	for i, bound := range h.bounds {
		cum += h.counts[i].Load()
		writeSample(b, name, "_bucket", s.labels,
			`le="`+formatValue(bound)+`"`, float64(cum))
	}
	cum += h.counts[len(h.bounds)].Load()
	writeSample(b, name, "_bucket", s.labels, `le="+Inf"`, float64(cum))
	writeSample(b, name, "_sum", s.labels, "", h.Sum())
	writeSample(b, name, "_count", s.labels, "", float64(h.Count()))
}
