// Package historian records the two views of plant data the paper's
// diagnosis compares:
//
//   - the controller view — the XMEAS values the controllers received and
//     the XMV values they sent (forgeable by a MitM), and
//   - the process view — the XMEAS values the sensors actually produced
//     and the XMV values the actuators actually received.
//
// In an attack-free run the two views are identical; under an integrity or
// DoS attack they diverge, and that divergence is what localizes the
// attacked channel.
//
// Observations are the 53-variable vector [XMEAS(1..41), XMV(1..12)],
// sampled every recording interval.
package historian

import (
	"errors"
	"fmt"

	"pcsmon/internal/dataset"
	"pcsmon/internal/te"
)

// Package-level sentinel errors.
var (
	// ErrBadInput is returned for malformed samples.
	ErrBadInput = errors.New("historian: invalid input")
)

// NumVars is the width of a recorded observation: 41 XMEAS + 12 XMV.
const NumVars = te.NumXMEAS + te.NumXMV

// VarNames returns the 53 canonical variable names, XMEAS(1..41) then
// XMV(1..12).
func VarNames() []string {
	names := make([]string, 0, NumVars)
	names = append(names, te.XMEASNames[:]...)
	names = append(names, te.XMVNames[:]...)
	return names
}

// VarName returns the canonical name of observation column j.
func VarName(j int) string {
	names := VarNames()
	if j < 0 || j >= len(names) {
		return fmt.Sprintf("var(%d)", j)
	}
	return names[j]
}

// IsXMV reports whether observation column j is a manipulated variable.
func IsXMV(j int) bool { return j >= te.NumXMEAS && j < NumVars }

// Observation assembles the 53-variable observation vector from an XMEAS
// block and an XMV block.
func Observation(xmeas, xmv []float64) ([]float64, error) {
	row := make([]float64, NumVars)
	if err := assembleInto(row, xmeas, xmv); err != nil {
		return nil, err
	}
	return row, nil
}

// assembleInto validates the blocks and writes the observation layout
// [XMEAS(1..41), XMV(1..12)] into dst (len NumVars) — the single source of
// truth for the row format, shared by Observation and the recorders.
func assembleInto(dst, xmeas, xmv []float64) error {
	if len(xmeas) != te.NumXMEAS {
		return fmt.Errorf("historian: xmeas len %d != %d: %w", len(xmeas), te.NumXMEAS, ErrBadInput)
	}
	if len(xmv) != te.NumXMV {
		return fmt.Errorf("historian: xmv len %d != %d: %w", len(xmv), te.NumXMV, ErrBadInput)
	}
	copy(dst, xmeas)
	copy(dst[te.NumXMEAS:], xmv)
	return nil
}

// Recorder accumulates observations of one view, optionally downsampling
// (keep one of every Decimate samples).
type Recorder struct {
	data     *dataset.Dataset
	decimate int
	seen     int
	retain   bool
	scratch  []float64
}

// NewRecorder returns a recorder keeping one of every decimate samples
// (decimate ≤ 1 keeps everything).
func NewRecorder(decimate int) (*Recorder, error) {
	if decimate < 1 {
		decimate = 1
	}
	d, err := dataset.New(VarNames())
	if err != nil {
		return nil, fmt.Errorf("historian: %w", err)
	}
	return &Recorder{
		data:     d,
		decimate: decimate,
		retain:   true,
		scratch:  make([]float64, NumVars),
	}, nil
}

// SetRetain toggles storage of observations in the dataset. With retention
// off the recorder becomes a pure streaming feed — rows are assembled into
// a reused scratch buffer for the tap and memory stays O(1) regardless of
// run length.
func (r *Recorder) SetRetain(keep bool) { r.retain = keep }

// Record stores one observation assembled from the given blocks, honouring
// the decimation setting.
func (r *Recorder) Record(xmeas, xmv []float64) error {
	_, err := r.record(xmeas, xmv)
	return err
}

// record assembles the observation into the scratch buffer and returns it,
// or nil when the sample is decimated out. The returned slice is reused on
// the next call.
func (r *Recorder) record(xmeas, xmv []float64) ([]float64, error) {
	r.seen++
	if (r.seen-1)%r.decimate != 0 {
		return nil, nil
	}
	if err := assembleInto(r.scratch, xmeas, xmv); err != nil {
		return nil, err
	}
	if r.retain {
		if err := r.data.Append(r.scratch); err != nil {
			return nil, err
		}
	}
	return r.scratch, nil
}

// Rows returns the number of retained observations.
func (r *Recorder) Rows() int { return r.data.Rows() }

// Data returns the underlying dataset (shared, not a copy — the recorder
// should not be used after handing its data to analysis).
func (r *Recorder) Data() *dataset.Dataset { return r.data }

// Tap observes one retained (post-decimation) paired observation as it is
// recorded: the streaming feed of the online monitoring path. The rows are
// reused buffers, valid only for the duration of the call — copy what must
// outlive it. An error returned by the tap aborts the recording step and
// propagates (wrapped) to the caller, which is how a streaming consumer
// halts a simulation early.
type Tap func(index int, ctrl, proc []float64) error

// TwoView couples the controller-view and process-view recorders of one
// run.
type TwoView struct {
	Controller *Recorder
	Process    *Recorder

	tap    Tap
	tapped int // retained pairs delivered to the tap
}

// NewTwoView builds both recorders with a shared decimation factor.
func NewTwoView(decimate int) (*TwoView, error) {
	c, err := NewRecorder(decimate)
	if err != nil {
		return nil, err
	}
	p, err := NewRecorder(decimate)
	if err != nil {
		return nil, err
	}
	return &TwoView{Controller: c, Process: p}, nil
}

// SetTap installs (or clears, with nil) the per-observation streaming tap.
func (tv *TwoView) SetTap(fn Tap) { tv.tap = fn }

// SetRetain toggles dataset storage on both recorders. Streaming consumers
// that only need the tap can switch retention off to keep memory O(1).
func (tv *TwoView) SetRetain(keep bool) {
	tv.Controller.SetRetain(keep)
	tv.Process.SetRetain(keep)
}

// Record stores one sample into both views.
//
//   - ctrlXMEAS: what the controller received (possibly forged)
//   - ctrlXMV:   what the controller sent
//   - procXMEAS: what the sensors actually measured
//   - procXMV:   what the actuators actually received (possibly forged)
//
// When a tap is installed it sees every retained pair in order.
func (tv *TwoView) Record(ctrlXMEAS, ctrlXMV, procXMEAS, procXMV []float64) error {
	crow, err := tv.Controller.record(ctrlXMEAS, ctrlXMV)
	if err != nil {
		return err
	}
	prow, err := tv.Process.record(procXMEAS, procXMV)
	if err != nil {
		return err
	}
	// Both recorders share the decimation cadence, so the rows are either
	// both retained or both decimated out.
	if crow != nil && prow != nil && tv.tap != nil {
		idx := tv.tapped
		tv.tapped++
		if err := tv.tap(idx, crow, prow); err != nil {
			return fmt.Errorf("historian: tap at observation %d: %w", idx, err)
		}
	}
	return nil
}
