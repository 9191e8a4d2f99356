package mspc

import (
	"fmt"
	"time"
)

// Chart identifies which control chart an observation or detection refers
// to.
type Chart int

// The two MSPC control charts.
const (
	ChartD Chart = iota + 1
	ChartQ
)

// String implements fmt.Stringer.
func (c Chart) String() string {
	switch c {
	case ChartD:
		return "D"
	case ChartQ:
		return "Q"
	default:
		return fmt.Sprintf("Chart(%d)", int(c))
	}
}

// Point is one monitored observation: its statistics and out-of-control
// status against the 99 % action limits.
type Point struct {
	Index int
	Stats Statistics
	// OverD and OverQ report whether the respective statistic exceeded its
	// 99 % limit.
	OverD, OverQ bool
}

// Over reports whether the point exceeds the action limit in either chart.
func (p Point) Over() bool { return p.OverD || p.OverQ }

// Detection describes a flagged anomaly.
type Detection struct {
	// Index is the observation index at which the run rule fired (the K-th
	// consecutive out-of-control observation).
	Index int
	// RunStart is the index of the first observation of the consecutive
	// out-of-control run — the paper computes oMEDA over "the set of the
	// first observations that surpass control limits".
	RunStart int
	// Charts lists which chart(s) were out of control at the detection
	// point.
	Charts []Chart
}

// Detector applies the paper's run rule to a stream of observations: an
// event is anomalous when K consecutive observations exceed the 99 % limit
// in either the D or the Q chart. The zero value is not usable; call
// NewDetector.
//
// Detector is a single-stream state machine and is not safe for concurrent
// use; use one Detector per monitored stream.
type Detector struct {
	monitor *Monitor
	k       int

	index    int
	runLen   int
	runStart int
	detected *Detection

	// Per-stream compute scratch (preprocessed row + PCA scores), so the
	// hot scoring path allocates nothing per observation.
	scaled, scores []float64
}

// DefaultRunLength is the paper's run rule: three consecutive observations
// beyond the 99 % limit.
const DefaultRunLength = 3

// NewDetector returns a Detector over the given monitor with run length k
// (use DefaultRunLength for the paper's rule).
func NewDetector(m *Monitor, k int) (*Detector, error) {
	if m == nil {
		return nil, fmt.Errorf("mspc: nil monitor: %w", ErrBadInput)
	}
	if k < 1 {
		return nil, fmt.Errorf("mspc: run length %d: %w", k, ErrBadConfig)
	}
	return &Detector{
		monitor: m,
		k:       k,
		scaled:  make([]float64, m.scaler.Dim()),
		scores:  make([]float64, m.model.NComponents()),
	}, nil
}

// SwapMonitor rebinds the detector to a freshly calibrated monitor, carrying
// the run-rule state (stream position, open run, latched detection) across —
// the detector half of the adaptive model-swap protocol. The new monitor
// must score observations of the same dimension.
func (d *Detector) SwapMonitor(m *Monitor) error {
	if m == nil {
		return fmt.Errorf("mspc: nil monitor: %w", ErrBadInput)
	}
	if m.scaler.Dim() != d.monitor.scaler.Dim() {
		return fmt.Errorf("mspc: swap monitor dim %d != %d: %w",
			m.scaler.Dim(), d.monitor.scaler.Dim(), ErrBadInput)
	}
	d.monitor = m
	if a := m.model.NComponents(); a != len(d.scores) {
		d.scores = make([]float64, a)
	}
	return nil
}

// InRun reports whether the detector is inside an open out-of-control run —
// the quiescence check a model swap must respect so one run is never judged
// against two different limit sets.
func (d *Detector) InRun() bool { return d.runLen > 0 }

// Step feeds one observation (engineering units) to the detector and
// returns the evaluated point plus the detection, non-nil from the moment
// the run rule first fires (the first detection is latched).
func (d *Detector) Step(row []float64) (Point, *Detection, error) {
	stats, err := d.monitor.ComputeInto(row, d.scaled, d.scores)
	if err != nil {
		return Point{}, nil, err
	}
	lim := d.monitor.Limits()
	p := Point{
		Index: d.index,
		Stats: stats,
		OverD: stats.D > lim.D99,
		OverQ: stats.Q > lim.Q99,
	}
	if p.Over() {
		if d.runLen == 0 {
			d.runStart = d.index
		}
		d.runLen++
		if d.runLen >= d.k && d.detected == nil {
			//pcslint:ignore hotpath -- detection construction: runs once when the run rule fires, never on the per-sample path
			d.detected = d.newDetection(p)
		}
	} else {
		d.runLen = 0
	}
	d.index++
	return p, d.detected, nil
}

// newDetection builds the detection for the run the rule just fired on at
// point p, listing the chart(s) out of control there.
func (d *Detector) newDetection(p Point) *Detection {
	charts := make([]Chart, 0, 2)
	if p.OverD {
		charts = append(charts, ChartD)
	}
	if p.OverQ {
		charts = append(charts, ChartQ)
	}
	return &Detection{Index: d.index, RunStart: d.runStart, Charts: charts}
}

// Detection returns the latched first detection, or nil if none yet.
func (d *Detector) Detection() *Detection { return d.detected }

// Discard drops the latched detection and the current out-of-control run
// without rewinding the stream position — the treatment of a pre-onset
// false alarm in run-length accounting: note nothing and keep scanning for
// the real event.
func (d *Detector) Discard() {
	d.detected = nil
	d.runLen = 0
}

// N returns the number of observations consumed.
func (d *Detector) N() int { return d.index }

// Reset clears the detector state for reuse on a new stream.
func (d *Detector) Reset() {
	d.index = 0
	d.runLen = 0
	d.runStart = 0
	d.detected = nil
}

// RunLengthResult is the outcome of an ARL measurement on one stream.
type RunLengthResult struct {
	// Detected reports whether the anomaly was flagged before the stream
	// ended.
	Detected bool
	// OnsetIndex is the observation index at which the anomaly began.
	OnsetIndex int
	// DetectionIndex is the index where the run rule fired (valid when
	// Detected).
	DetectionIndex int
	// RunLength is DetectionIndex − OnsetIndex + 1 in samples (valid when
	// Detected).
	RunLength int
	// Time is RunLength expressed in wall-clock terms of the sampling
	// interval.
	Time time.Duration
	// FalseAlarm reports that the detector fired before the onset.
	FalseAlarm bool
}

// MeasureRunLength feeds a full stream (rows in engineering units) through
// a fresh run-rule pass and measures the run length from onset (the index
// of the first anomalous observation) to detection. Detections that fire
// before onset are reported as false alarms.
func MeasureRunLength(m *Monitor, rows [][]float64, onset int, k int, sample time.Duration) (RunLengthResult, error) {
	if onset < 0 || onset >= len(rows) {
		return RunLengthResult{}, fmt.Errorf("mspc: onset %d out of range [0,%d): %w", onset, len(rows), ErrBadInput)
	}
	det, err := NewDetector(m, k)
	if err != nil {
		return RunLengthResult{}, err
	}
	res := RunLengthResult{OnsetIndex: onset}
	for i, row := range rows {
		_, d, err := det.Step(row)
		if err != nil {
			return RunLengthResult{}, err
		}
		if d == nil {
			continue
		}
		if i < onset {
			// Pre-onset false alarm: note it and keep scanning so the
			// real event is still measured.
			res.FalseAlarm = true
			det.Discard()
			continue
		}
		res.Detected = true
		res.DetectionIndex = i
		res.RunLength = i - onset + 1
		res.Time = time.Duration(res.RunLength) * sample
		return res, nil
	}
	return res, nil
}
