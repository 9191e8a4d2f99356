package attack

import (
	"errors"
	"testing"
)

func TestSpecValidate(t *testing.T) {
	valid := Spec{Kind: Integrity, Direction: ActuatorLink, Channel: 2, StartHour: 10}
	if err := valid.Validate(); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	tests := []struct {
		name string
		spec Spec
	}{
		{"unknown kind", Spec{Kind: 0, Direction: SensorLink}},
		{"unknown direction", Spec{Kind: DoS, Direction: 0}},
		{"negative channel", Spec{Kind: DoS, Direction: SensorLink, Channel: -1}},
		{"negative start", Spec{Kind: DoS, Direction: SensorLink, StartHour: -1}},
		{"end before start", Spec{Kind: DoS, Direction: SensorLink, StartHour: 5, EndHour: 4}},
		{"replay without window", Spec{Kind: Replay, Direction: SensorLink}},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.spec.Validate(); !errors.Is(err, ErrBadConfig) {
				t.Errorf("want ErrBadConfig, got %v", err)
			}
		})
	}
}

func TestIntegrityAttackWindow(t *testing.T) {
	inj, err := NewInjector(ActuatorLink, []Spec{
		{Kind: Integrity, Direction: ActuatorLink, Channel: 1, StartHour: 1, EndHour: 2, Value: 0},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Before the window: untouched.
	v := inj.Apply([]float64{10, 20, 30}, 0.5)
	if v[1] != 20 {
		t.Errorf("pre-attack value = %g, want 20", v[1])
	}
	if inj.active[1] {
		t.Error("Active before window")
	}
	// Inside: forged to 0.
	v = inj.Apply([]float64{10, 21, 30}, 1.5)
	if v[1] != 0 {
		t.Errorf("attacked value = %g, want 0", v[1])
	}
	if v[0] != 10 || v[2] != 30 {
		t.Error("other channels must be untouched")
	}
	if !inj.active[1] {
		t.Error("Active inside window")
	}
	// After: untouched again.
	v = inj.Apply([]float64{10, 22, 30}, 2.5)
	if v[1] != 22 {
		t.Errorf("post-attack value = %g, want 22", v[1])
	}
}

func TestDoSFreezesLastCleanValue(t *testing.T) {
	inj, err := NewInjector(ActuatorLink, []Spec{
		{Kind: DoS, Direction: ActuatorLink, Channel: 0, StartHour: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	inj.Apply([]float64{5}, 0.8)
	inj.Apply([]float64{7}, 0.9) // last clean value
	v := inj.Apply([]float64{9}, 1.1)
	if v[0] != 7 {
		t.Errorf("DoS value = %g, want frozen 7", v[0])
	}
	v = inj.Apply([]float64{11}, 1.5)
	if v[0] != 7 {
		t.Errorf("DoS value = %g, want still 7", v[0])
	}
}

func TestDoSOpenEndedWindow(t *testing.T) {
	inj, err := NewInjector(SensorLink, []Spec{
		{Kind: DoS, Direction: SensorLink, Channel: 0, StartHour: 1, EndHour: 0},
	})
	if err != nil {
		t.Fatal(err)
	}
	inj.Apply([]float64{3}, 0.99)
	for _, h := range []float64{1, 10, 100} {
		if v := inj.Apply([]float64{99}, h); v[0] != 3 {
			t.Errorf("hour %g: %g, want 3 (open-ended DoS)", h, v[0])
		}
	}
}

func TestBiasAndScale(t *testing.T) {
	inj, err := NewInjector(SensorLink, []Spec{
		{Kind: Bias, Direction: SensorLink, Channel: 0, StartHour: 0, Value: 5},
		{Kind: Scale, Direction: SensorLink, Channel: 1, StartHour: 0, Value: 0.5},
	})
	if err != nil {
		t.Fatal(err)
	}
	v := inj.Apply([]float64{10, 10}, 0.5)
	if v[0] != 15 {
		t.Errorf("bias = %g, want 15", v[0])
	}
	if v[1] != 5 {
		t.Errorf("scale = %g, want 5", v[1])
	}
}

func TestReplayLoopsWindow(t *testing.T) {
	inj, err := NewInjector(SensorLink, []Spec{
		{Kind: Replay, Direction: SensorLink, Channel: 0, StartHour: 1, Window: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Record 1,2,3,4 pre-attack; window keeps the last 3: [2,3,4].
	for i, x := range []float64{1, 2, 3, 4} {
		inj.Apply([]float64{x}, 0.2*float64(i+1))
	}
	want := []float64{2, 3, 4, 2, 3}
	for i, w := range want {
		v := inj.Apply([]float64{100}, 1.0+0.1*float64(i))
		if v[0] != w {
			t.Errorf("replay sample %d = %g, want %g", i, v[0], w)
		}
	}
}

func TestInjectorFiltersDirection(t *testing.T) {
	specs := []Spec{
		{Kind: Integrity, Direction: SensorLink, Channel: 0, StartHour: 0, Value: -1},
		{Kind: Integrity, Direction: ActuatorLink, Channel: 0, StartHour: 0, Value: -2},
	}
	sens, err := NewInjector(SensorLink, specs)
	if err != nil {
		t.Fatal(err)
	}
	act, err := NewInjector(ActuatorLink, specs)
	if err != nil {
		t.Fatal(err)
	}
	if v := sens.Apply([]float64{9}, 1); v[0] != -1 {
		t.Errorf("sensor injector = %g, want -1", v[0])
	}
	if v := act.Apply([]float64{9}, 1); v[0] != -2 {
		t.Errorf("actuator injector = %g, want -2", v[0])
	}
}

func TestInjectorRejectsInvalidSpec(t *testing.T) {
	if _, err := NewInjector(SensorLink, []Spec{{Kind: 99, Direction: SensorLink}}); !errors.Is(err, ErrBadConfig) {
		t.Errorf("want ErrBadConfig, got %v", err)
	}
}

func TestChannelBeyondVectorIgnored(t *testing.T) {
	inj, err := NewInjector(SensorLink, []Spec{
		{Kind: Integrity, Direction: SensorLink, Channel: 10, StartHour: 0, Value: -1},
	})
	if err != nil {
		t.Fatal(err)
	}
	v := inj.Apply([]float64{1, 2}, 1)
	if v[0] != 1 || v[1] != 2 {
		t.Error("short vector must pass through unharmed")
	}
}

func TestDoSRestartFreezesNewValue(t *testing.T) {
	// Attack window ends, channel recovers, a second window would freeze
	// the latest clean value (re-entry behaviour).
	inj, err := NewInjector(SensorLink, []Spec{
		{Kind: DoS, Direction: SensorLink, Channel: 0, StartHour: 1, EndHour: 2},
		{Kind: DoS, Direction: SensorLink, Channel: 0, StartHour: 3, EndHour: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	inj.Apply([]float64{5}, 0.9)
	if v := inj.Apply([]float64{9}, 1.5); v[0] != 5 {
		t.Errorf("first DoS = %g, want 5", v[0])
	}
	inj.Apply([]float64{8}, 2.5) // clean again
	if v := inj.Apply([]float64{9}, 3.5); v[0] != 8 {
		t.Errorf("second DoS = %g, want 8", v[0])
	}
}

func TestStringers(t *testing.T) {
	if SensorLink.String() != "sensor-link" || ActuatorLink.String() != "actuator-link" {
		t.Error("Direction.String mismatch")
	}
	for _, k := range []Kind{Integrity, DoS, Bias, Scale, Replay} {
		if k.String() == "" {
			t.Errorf("Kind(%d).String empty", k)
		}
	}
	s := Spec{Kind: DoS, Direction: ActuatorLink, Channel: 2, StartHour: 10}
	if s.String() == "" {
		t.Error("Spec.String empty")
	}
	if Direction(9).String() == "" || Kind(9).String() == "" {
		t.Error("unknown values should still render")
	}
}
