package stat

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestEmptySampleErrors(t *testing.T) {
	if _, err := Quantile(nil, 0.5); !errors.Is(err, ErrEmpty) {
		t.Errorf("Quantile(nil): want ErrEmpty, got %v", err)
	}
}

func TestQuantileKnown(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	tests := []struct {
		p, want float64
	}{
		{0, 1},
		{1, 4},
		{0.5, 2.5},
		{0.25, 1.75},
		{1.0 / 3.0, 2},
	}
	for _, tc := range tests {
		got, err := Quantile(xs, tc.p)
		if err != nil {
			t.Fatal(err)
		}
		if !closeTo(got, tc.want, 1e-12) {
			t.Errorf("Quantile(%g) = %g, want %g", tc.p, got, tc.want)
		}
	}
	if _, err := Quantile(xs, 1.5); !errors.Is(err, ErrDomain) {
		t.Errorf("want ErrDomain, got %v", err)
	}
}

func TestQuantileDoesNotMutateInput(t *testing.T) {
	xs := []float64{3, 1, 2}
	if _, err := Quantile(xs, 0.5); err != nil {
		t.Fatal(err)
	}
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Errorf("input mutated: %v", xs)
	}
}

func TestQuantileMonotoneProperty(t *testing.T) {
	cfg := &quick.Config{MaxCount: 50, Rand: rand.New(rand.NewSource(8))}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(40)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rng.NormFloat64() * 10
		}
		p1 := rng.Float64()
		p2 := rng.Float64()
		if p1 > p2 {
			p1, p2 = p2, p1
		}
		q1, err1 := Quantile(xs, p1)
		q2, err2 := Quantile(xs, p2)
		if err1 != nil || err2 != nil {
			return false
		}
		return q1 <= q2+1e-12
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}
