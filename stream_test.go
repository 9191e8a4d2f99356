package pcsmon_test

import (
	"errors"
	"io"
	"reflect"
	"testing"
	"time"

	"pcsmon"
)

// TestStreamScenarioMatchesBatch: the facade's streaming path over the
// same seeded run must reproduce the batch result, while emitting a
// well-formed event stream (samples in order, alarms once, verdict last).
func TestStreamScenarioMatchesBatch(t *testing.T) {
	l := testLab(t)
	sc := pcsmon.PaperScenarios(3)[1] // integrity on XMV(3)
	batch, err := l.RunScenarioFor(sc, 1, 10)
	if err != nil {
		t.Fatal(err)
	}
	var (
		samples, alarms int
		verdicts        int
		lastIdx         = -1
		sawVerdict      *pcsmon.Report
	)
	rep, err := l.StreamScenario(sc, pcsmon.StreamOptions{Hours: 10}, func(ev pcsmon.StreamEvent) {
		switch e := ev.(type) {
		case pcsmon.SampleScored:
			if sawVerdict != nil {
				t.Fatal("SampleScored after VerdictReady")
			}
			if e.Index != lastIdx+1 {
				t.Fatalf("sample index %d after %d", e.Index, lastIdx)
			}
			lastIdx = e.Index
			samples++
		case pcsmon.AlarmRaised:
			if e.View != "controller" && e.View != "process" {
				t.Fatalf("alarm view %q", e.View)
			}
			if len(e.Charts) == 0 {
				t.Error("alarm without charts")
			}
			alarms++
		case pcsmon.VerdictReady:
			verdicts++
			sawVerdict = e.Report
			if e.Samples != samples {
				t.Errorf("verdict reports %d samples, saw %d", e.Samples, samples)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if verdicts != 1 || sawVerdict != rep {
		t.Fatalf("VerdictReady emitted %d times (report match %v)", verdicts, sawVerdict == rep)
	}
	if alarms == 0 {
		t.Error("no alarms on an attacked run")
	}
	if !reflect.DeepEqual(rep, batch.Runs[0].Report) {
		t.Errorf("streaming report differs from batch:\nbatch:  %+v\nstream: %+v",
			batch.Runs[0].Report, rep)
	}
}

// TestStreamScenarioEarlyStop: the early-stop option halts the simulation
// and still classifies the attack correctly.
func TestStreamScenarioEarlyStop(t *testing.T) {
	l := testLab(t)
	sc := pcsmon.PaperScenarios(3)[1]
	var stopped bool
	var samples int
	rep, err := l.StreamScenario(sc, pcsmon.StreamOptions{
		Hours:     10,
		EarlyStop: true,
		EmitEvery: -1, // alarms and verdict only
	}, func(ev pcsmon.StreamEvent) {
		if e, ok := ev.(pcsmon.VerdictReady); ok {
			stopped = e.Stopped
			samples = e.Samples
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if !stopped {
		t.Error("early-stop run did not stop early")
	}
	full, err := l.RunScenarioFor(sc, 1, 10)
	if err != nil {
		t.Fatal(err)
	}
	if samples >= full.Runs[0].Samples {
		t.Errorf("early stop scored %d samples, full run %d", samples, full.Runs[0].Samples)
	}
	if rep.Verdict != pcsmon.VerdictIntegrityAttack {
		t.Errorf("verdict %v (%s), want integrity-attack", rep.Verdict, rep.Explanation)
	}
}

// TestStreamFeed drives the package-level Stream facade with an in-memory
// feed built from a simulated run's recorded views.
func TestStreamFeed(t *testing.T) {
	l := testLab(t)
	sc := pcsmon.PaperScenarios(3)[0] // IDV(6)
	batch, err := l.RunScenarioFor(sc, 1, 10)
	if err != nil {
		t.Fatal(err)
	}
	// Rebuild the exact run the batch path analyzed and replay it.
	out, err := l.StreamScenario(sc, pcsmon.StreamOptions{Hours: 10}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(out, batch.Runs[0].Report) {
		t.Fatal("fixture mismatch; cannot test feed")
	}
	// A trivial single-view feed: three identical NOC rows then EOF.
	// The calibration mean is the steady operating point.
	_, means, _ := l.System.CalibrationMoments()
	row := append([]float64(nil), means...)
	n := 0
	rep, err := pcsmon.Stream(l.System, 0, 9*time.Second, func() (ctrl, proc []float64, err error) {
		if n >= 50 {
			return nil, nil, io.EOF
		}
		n++
		return row, row, nil
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Verdict != pcsmon.VerdictNormal {
		t.Errorf("steady-state feed classified %v (%s)", rep.Verdict, rep.Explanation)
	}
}

// TestStreamBackPressureSlowConsumer: with a buffered emitter, a handler
// that sleeps must not cause any SampleScored/AlarmRaised/VerdictReady
// event to be dropped or reordered — the buffer only decouples the plant
// loop from the consumer; once it fills, back-pressure stalls the producer
// instead of losing events. The slow run's event sequence must be
// element-for-element identical to a synchronous run of the same seed.
func TestStreamBackPressureSlowConsumer(t *testing.T) {
	l := testLab(t)
	sc := pcsmon.PaperScenarios(3)[1] // integrity on XMV(3)

	var baseline []pcsmon.StreamEvent
	baseRep, err := l.StreamScenario(sc, pcsmon.StreamOptions{Hours: 8}, func(ev pcsmon.StreamEvent) {
		baseline = append(baseline, ev)
	})
	if err != nil {
		t.Fatal(err)
	}

	var slow []pcsmon.StreamEvent
	slowRep, err := l.StreamScenario(sc, pcsmon.StreamOptions{
		Hours:       8,
		EventBuffer: 16, // much smaller than the event count: the buffer must fill
	}, func(ev pcsmon.StreamEvent) {
		time.Sleep(20 * time.Microsecond) // slower than the plant produces
		slow = append(slow, ev)
	})
	if err != nil {
		t.Fatal(err)
	}

	if len(slow) != len(baseline) {
		t.Fatalf("slow consumer saw %d events, synchronous run %d — events were dropped",
			len(slow), len(baseline))
	}
	lastIdx := -1
	for i, ev := range slow {
		if !reflect.DeepEqual(ev, baseline[i]) {
			t.Fatalf("event %d reordered or altered:\nslow: %+v\nbase: %+v", i, ev, baseline[i])
		}
		if s, ok := ev.(pcsmon.SampleScored); ok {
			if s.Index != lastIdx+1 {
				t.Fatalf("sample index %d after %d", s.Index, lastIdx)
			}
			lastIdx = s.Index
		}
	}
	if _, ok := slow[len(slow)-1].(pcsmon.VerdictReady); !ok {
		t.Errorf("last event %T, want VerdictReady", slow[len(slow)-1])
	}
	if !reflect.DeepEqual(slowRep, baseRep) {
		t.Error("buffered-emitter run produced a different report")
	}
	alarms := 0
	for _, ev := range slow {
		if _, ok := ev.(pcsmon.AlarmRaised); ok {
			alarms++
		}
	}
	if alarms == 0 {
		t.Error("no alarms in the slow-consumer event stream")
	}
}

// TestLabConfigValidation covers the facade's config validation satellite.
func TestLabConfigValidation(t *testing.T) {
	cases := []pcsmon.LabConfig{
		{StepSeconds: -3},
		{WarmupHours: -1},
		{CalibrationRuns: -2},
		{CalibrationHours: -5},
		{Decimate: -1},
	}
	for _, cfg := range cases {
		if _, err := pcsmon.NewLab(cfg); !errors.Is(err, pcsmon.ErrBadConfig) {
			t.Errorf("%+v: want ErrBadConfig, got %v", cfg, err)
		}
	}
}
