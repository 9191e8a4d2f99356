package adapt

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"

	"pcsmon/internal/core"
	"pcsmon/internal/dataset"
	"pcsmon/internal/historian"
)

// testSystem calibrates a small monitoring system on synthetic correlated
// NOC data — milliseconds instead of the full plant lab, so the adaptation
// tests can afford many refit cycles.
func testSystem(tb testing.TB) *core.System {
	tb.Helper()
	d, err := dataset.New(historian.VarNames())
	if err != nil {
		tb.Fatal(err)
	}
	rng := rand.New(rand.NewSource(99))
	w := loadings()
	m := historian.NumVars
	for i := 0; i < 600; i++ {
		z := rng.NormFloat64()
		row := make([]float64, m)
		for j := 0; j < m; j++ {
			row[j] = 50 + z*w[j] + 0.3*rng.NormFloat64()
		}
		if err := d.Append(row); err != nil {
			tb.Fatal(err)
		}
	}
	sys, err := core.Calibrate(d, core.Config{})
	if err != nil {
		tb.Fatal(err)
	}
	return sys
}

// loadings returns the shared latent-factor loadings of the synthetic
// plant (same draw as the calibration data).
func loadings() []float64 {
	wr := rand.New(rand.NewSource(99))
	w := make([]float64, historian.NumVars)
	for j := range w {
		w[j] = wr.NormFloat64()
	}
	return w
}

// nocRows generates n in-distribution paired rows; from row shiftFrom on,
// channel shiftCh diverges by ±delta across the views (delta 0 = NOC).
func nocRows(seed int64, n, shiftCh, shiftFrom int, delta float64) (ctrl, proc [][]float64) {
	rng := rand.New(rand.NewSource(seed))
	w := loadings()
	m := historian.NumVars
	ctrl = make([][]float64, n)
	proc = make([][]float64, n)
	for i := 0; i < n; i++ {
		z := rng.NormFloat64()
		c := make([]float64, m)
		for j := 0; j < m; j++ {
			c[j] = 50 + z*w[j] + 0.3*rng.NormFloat64()
		}
		p := append([]float64(nil), c...)
		if delta != 0 && i >= shiftFrom {
			c[shiftCh] -= delta
			p[shiftCh] += delta
		}
		ctrl[i] = c
		proc[i] = p
	}
	return ctrl, proc
}

// testStream drives one core.OnlineAnalyzer through Tracker.Step, as a
// fleet worker drives each of its streams: score, then learn, refit and
// swap at window boundaries. onSwap, if non-nil, sees each landed swap.
type testStream struct {
	tracker *Tracker
	oa      *core.OnlineAnalyzer
	gen     uint64
	onSwap  func(core.ModelSwapped)
}

// newTestStream starts a stream on the tracker's current model; onset and
// sample have core.System.NewOnlineAnalyzer semantics.
func newTestStream(tb testing.TB, t *Tracker, onset int, sample time.Duration, onSwap func(core.ModelSwapped)) *testStream {
	tb.Helper()
	sys, gen := t.System()
	oa, err := sys.NewOnlineAnalyzer(onset, sample)
	if err != nil {
		tb.Fatal(err)
	}
	return &testStream{tracker: t, oa: oa, gen: gen, onSwap: onSwap}
}

func (s *testStream) Push(ctrl, proc []float64) (core.StepResult, error) {
	res, err := s.oa.Push(ctrl, proc)
	if err != nil {
		return res, err
	}
	var swap *core.ModelSwapped
	if s.gen, swap = s.tracker.Step(s.oa, res, ctrl, proc, s.gen); swap != nil && s.onSwap != nil {
		s.onSwap(*swap)
	}
	return res, nil
}

func (s *testStream) Finish() (*core.Report, error) { return s.oa.Finish() }

func TestOptionsValidate(t *testing.T) {
	for _, o := range []Options{
		{Every: -1},
		{Forget: -0.1},
		{Forget: 1.5},
		{MinWeight: -1},
		{MinExplainedVar: -0.5},
	} {
		if err := o.Validate(); !errors.Is(err, ErrBadConfig) {
			t.Errorf("%+v: want ErrBadConfig, got %v", o, err)
		}
	}
	if err := (Options{}).Validate(); err != nil {
		t.Errorf("zero options: %v", err)
	}
	if err := (Options{Enabled: true, Every: 64, Forget: 1, MinExplainedVar: 2}).Validate(); err != nil {
		t.Errorf("always-veto options: %v", err)
	}
}

// TestTrackerLearnsAndSwaps drives an adaptive stream over a long NOC
// stream with an aggressive cadence: the tracker must accept candidate
// models (generation advances), the stream must migrate at diagnosis-window
// boundaries (swap events), and the verdict must stay Normal.
func TestTrackerLearnsAndSwaps(t *testing.T) {
	sys := testSystem(t)
	tracker, err := NewTracker(sys, Options{
		Enabled: true, Every: 64, Forget: 0.99, MinWeight: 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	var swaps []core.ModelSwapped
	a := newTestStream(t, tracker, 0, time.Second, func(s core.ModelSwapped) { swaps = append(swaps, s) })
	ctrl, proc := nocRows(1, 600, 0, 0, 0)
	for i := range ctrl {
		if _, err := a.Push(ctrl[i], proc[i]); err != nil {
			t.Fatalf("push %d: %v", i, err)
		}
	}
	st := tracker.Stats()
	if st.Learned == 0 || st.Refits == 0 {
		t.Fatalf("tracker never learned/refit: %+v", st)
	}
	if st.Generation == 0 || st.Accepted == 0 {
		t.Fatalf("no candidate accepted: %+v (last veto: %s)", st, st.LastVeto)
	}
	if len(swaps) == 0 {
		t.Fatal("no swap events")
	}
	window := core.DiagnoseWindow
	for _, s := range swaps {
		if s.Index%window != 0 {
			t.Errorf("swap at %d is not a diagnosis-window boundary (window %d)", s.Index, window)
		}
		if s.D99 <= 0 || s.Q99 <= 0 {
			t.Errorf("swap carries degenerate limits: %+v", s)
		}
	}
	if a.gen != st.Generation {
		t.Errorf("stream on generation %d, tracker at %d", a.gen, st.Generation)
	}
	rep, err := a.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Verdict != core.VerdictNormal {
		t.Errorf("NOC stream verdict %v (%s)", rep.Verdict, rep.Explanation)
	}
}

// TestDriftGuardRefusesAttack is the never-learn-an-attack proof: once the
// stream turns anomalous (a cross-view divergence driving the charts over
// their limits), the learn guard must reject every observation, the
// accumulator must stop absorbing samples and the model generation must
// stay put — the in-progress attack cannot become the baseline.
func TestDriftGuardRefusesAttack(t *testing.T) {
	sys := testSystem(t)
	tracker, err := NewTracker(sys, Options{
		Enabled: true, Every: 64, Forget: 0.99, MinWeight: 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	const onset = 200
	a := newTestStream(t, tracker, onset, time.Second, nil)
	ctrl, proc := nocRows(2, 320, 1, onset, 25)
	for i := 0; i < onset; i++ {
		if _, err := a.Push(ctrl[i], proc[i]); err != nil {
			t.Fatal(err)
		}
	}
	before := tracker.Stats()
	if before.Learned == 0 {
		t.Fatalf("tracker learned nothing pre-onset: %+v", before)
	}
	for i := onset; i < len(ctrl); i++ {
		if _, err := a.Push(ctrl[i], proc[i]); err != nil {
			t.Fatal(err)
		}
	}
	after := tracker.Stats()
	// The run rule needs a couple of observations to latch; after that
	// every sample is rejected. Allow the latch transient, nothing more.
	runLen := uint64(sys.Config().RunLength)
	if after.Learned > before.Learned+runLen {
		t.Errorf("guard absorbed %d attack observations into the baseline",
			after.Learned-before.Learned)
	}
	if after.Rejected == before.Rejected {
		t.Error("guard rejected nothing during the attack")
	}
	if after.Generation != before.Generation {
		t.Errorf("model generation moved %d -> %d during an attack",
			before.Generation, after.Generation)
	}
	rep, err := a.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Verdict != core.VerdictIntegrityAttack {
		t.Errorf("attack verdict %v (%s)", rep.Verdict, rep.Explanation)
	}
}

// TestLearnGuardRefusesNaN: a NaN channel value makes the scored point
// out of control, so the learn guard rejects every such row instead of
// folding NaN into the refit moments. The onset lies past the NaN rows, so
// their alarm is discarded as pre-onset and no latch is set: each row must
// be refused on its own score.
func TestLearnGuardRefusesNaN(t *testing.T) {
	sys := testSystem(t)
	tracker, err := NewTracker(sys, Options{Enabled: true, Every: 64, Forget: 0.99, MinWeight: 64})
	if err != nil {
		t.Fatal(err)
	}
	const clean, bad = 150, 10
	a := newTestStream(t, tracker, clean+bad, time.Second, nil)
	ctrl, proc := nocRows(3, clean+bad, 0, 0, 0)
	for i := 0; i < clean; i++ {
		if _, err := a.Push(ctrl[i], proc[i]); err != nil {
			t.Fatal(err)
		}
	}
	before := tracker.Stats()
	for i := clean; i < clean+bad; i++ {
		ctrl[i][8], proc[i][8] = math.NaN(), math.NaN()
		res, err := a.Push(ctrl[i], proc[i])
		if err != nil {
			t.Fatal(err)
		}
		if !res.Ctrl.Over() || !res.Proc.Over() {
			t.Fatalf("row %d: NaN row scored in control (ctrl %+v, proc %+v)", i, *res.Ctrl, *res.Proc)
		}
	}
	after := tracker.Stats()
	if after.Learned != before.Learned || after.Rejected != before.Rejected+bad {
		t.Errorf("learn guard over %d NaN rows: learned %d -> %d, rejected %d -> %d",
			bad, before.Learned, after.Learned, before.Rejected, after.Rejected)
	}
}

// TestSwapParityDisabledGuards is the golden parity satellite: with the
// forget factor at 1.0 and the guards configured to veto every candidate,
// the adaptive path must produce a report bit-identical to the frozen-model
// analyzer — adaptation that never swaps is exactly the paper's engine.
func TestSwapParityDisabledGuards(t *testing.T) {
	sys := testSystem(t)
	const (
		onset  = 150
		rows   = 260
		sample = 9 * time.Second
	)
	for _, tc := range []struct {
		name  string
		delta float64
	}{{"noc", 0}, {"attack", 25}} {
		t.Run(tc.name, func(t *testing.T) {
			ctrl, proc := nocRows(5, rows, 2, onset, tc.delta)

			oa, err := sys.NewOnlineAnalyzer(onset, sample)
			if err != nil {
				t.Fatal(err)
			}
			for i := range ctrl {
				if _, err := oa.Push(ctrl[i], proc[i]); err != nil {
					t.Fatal(err)
				}
			}
			frozen, err := oa.Finish()
			if err != nil {
				t.Fatal(err)
			}

			tracker, err := NewTracker(sys, Options{
				Enabled: true, Every: 16, Forget: 1.0,
				MinWeight: 1, MinExplainedVar: 2, // guards veto every candidate
			})
			if err != nil {
				t.Fatal(err)
			}
			a := newTestStream(t, tracker, onset, sample, func(s core.ModelSwapped) {
				t.Errorf("always-veto tracker swapped: %+v", s)
			})
			for i := range ctrl {
				if _, err := a.Push(ctrl[i], proc[i]); err != nil {
					t.Fatal(err)
				}
			}
			adaptive, err := a.Finish()
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(frozen, adaptive) {
				t.Errorf("adaptive (vetoed) report differs from frozen:\nfrozen:   %+v\nadaptive: %+v",
					frozen, adaptive)
			}
			st := tracker.Stats()
			if st.Refits == 0 || st.Vetoes != st.Refits || st.Accepted != 0 {
				t.Errorf("guards did not veto every refit: %+v", st)
			}
			if !strings.Contains(st.LastVeto, "explained variance") {
				t.Errorf("unexpected veto reason %q", st.LastVeto)
			}
		})
	}
}

// TestRefitVetoInsufficientWeight: before enough in-control traffic has
// accumulated, every candidate is vetoed with a weight reason. Forget 1
// (no forgetting) leaves the weight unbounded, so the minimum is reachable
// in principle and NewTracker accepts it.
func TestRefitVetoInsufficientWeight(t *testing.T) {
	sys := testSystem(t)
	tracker, err := NewTracker(sys, Options{Enabled: true, Every: 8, Forget: 1, MinWeight: 1e6})
	if err != nil {
		t.Fatal(err)
	}
	ctrl, _ := nocRows(11, 40, 0, 0, 0)
	for _, row := range ctrl {
		if tracker.Observe(row, true) {
			tracker.Refit()
		}
	}
	st := tracker.Stats()
	if st.Refits == 0 || st.Accepted != 0 {
		t.Fatalf("expected vetoed refits: %+v", st)
	}
	if !strings.Contains(st.LastVeto, "weight") {
		t.Errorf("veto reason %q does not mention weight", st.LastVeto)
	}
	if st.Generation != 0 {
		t.Errorf("generation %d after vetoes", st.Generation)
	}
}

// TestRefitVetoNaNWeight: a minimum weight no weight compares with (NaN,
// which Validate refuses) vetoes the refit instead of fitting nothing.
func TestRefitVetoNaNWeight(t *testing.T) {
	tracker, err := NewTracker(testSystem(t), Options{Enabled: true, Every: 8, Forget: 1})
	if err != nil {
		t.Fatal(err)
	}
	tracker.cfg.MinWeight = math.NaN()
	ctrl, _ := nocRows(11, 16, 0, 0, 0)
	for _, row := range ctrl {
		if tracker.Observe(row, true) {
			tracker.Refit()
		}
	}
	if st := tracker.Stats(); st.Refits == 0 || st.Accepted != 0 || !strings.Contains(st.LastVeto, "weight") {
		t.Fatalf("want weight vetoes, got %+v", st)
	}
}

func TestNewTrackerValidation(t *testing.T) {
	if _, err := NewTracker(nil, Options{}); !errors.Is(err, ErrBadConfig) {
		t.Errorf("nil system: %v", err)
	}
	sys := testSystem(t)
	if _, err := NewTracker(sys, Options{Forget: 2}); !errors.Is(err, ErrBadConfig) {
		t.Errorf("bad forget: %v", err)
	}
	// NaN fails every ordered comparison, so each check is written to
	// refuse it rather than to accept it.
	nan := math.NaN()
	for _, o := range []Options{
		{Enabled: true, Forget: nan},
		{Enabled: true, Forget: 1, MinWeight: nan},
		{Enabled: true, MinExplainedVar: nan},
	} {
		if _, err := NewTracker(sys, o); !errors.Is(err, ErrBadConfig) {
			t.Errorf("%+v: want ErrBadConfig, got %v", o, err)
		}
	}
	// The EWMA weight saturates at 1/(1−λ); the default minimum weight on
	// the 53-variable plant is 4·53 = 212. λ = 0.995 caps the weight at
	// 200, so no refit could ever pass: refused up front, naming why.
	for _, forget := range []float64{0.99, 0.995} {
		_, err := NewTracker(sys, Options{Enabled: true, Forget: forget})
		if !errors.Is(err, ErrBadConfig) {
			t.Errorf("forget %g: want ErrBadConfig, got %v", forget, err)
			continue
		}
		for _, want := range []string{fmt.Sprint(forget), "1/(1−λ)", "212.0"} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("forget %g: error %q does not name %q", forget, err, want)
			}
		}
	}
	for _, forget := range []float64{0.996, 0.999, 1} {
		if _, err := NewTracker(sys, Options{Enabled: true, Forget: forget}); err != nil {
			t.Errorf("forget %g: %v", forget, err)
		}
	}
	// An explicit minimum weight moves the bound with it.
	if _, err := NewTracker(sys, Options{Enabled: true, Forget: 0.99, MinWeight: 64}); err != nil {
		t.Errorf("forget 0.99, min weight 64: %v", err)
	}
}
