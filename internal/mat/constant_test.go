package mat

import (
	"math/rand"
	"testing"
)

// TestConstantChannelZeroVariance: a channel that holds one value c must
// get mean exactly c and an exactly-zero covariance row and column from
// the streaming moments, whatever the magnitude of c and the row count.
// The held values include 1e6+0.1 over 100 rows, where the one-pass
// formula (Σx² − n·m²)/(n−1) leaves a positive residue that would give
// the channel a spurious variance.
func TestConstantChannelZeroVariance(t *testing.T) {
	held := []float64{22.21, 40.064, 0.1, -0.3, 3.3e-7, 2748.25123, 1e6 + 0.1, -7.77e12}
	if r := onePassVariance(1e6+0.1, 100); !(r > 0) {
		t.Fatalf("one-pass variance of 100 copies of 1e6+0.1 = %g, want the positive residue", r)
	}
	for _, n := range []int{2, 7, 100, 1000} {
		rng := rand.New(rand.NewSource(int64(n)))
		rows := make([][]float64, n)
		for i := range rows {
			row := make([]float64, 2*len(held))
			for k, c := range held {
				row[2*k] = c
				row[2*k+1] = c + rng.NormFloat64()
			}
			rows[i] = row
		}
		means, cov, err := streamMoments(rows)
		if err != nil {
			t.Fatal(err)
		}
		for k, c := range held {
			j := 2 * k
			if means[j] != c {
				t.Errorf("n=%d: mean of a column of %v = %v (off by %g)", n, c, means[j], means[j]-c)
			}
			for q := 0; q < cov.Cols(); q++ {
				if cov.At(j, q) != 0 || cov.At(q, j) != 0 {
					t.Errorf("n=%d, column of %v: covariance (%d,%d) = %g, (%d,%d) = %g, want 0",
						n, c, j, q, cov.At(j, q), q, j, cov.At(q, j))
				}
			}
		}
	}
}

// onePassVariance is the textbook one-pass variance of n copies of c: the
// running sums Σx and Σx², then (Σx² − n·m²)/(n−1).
func onePassVariance(c float64, n int) float64 {
	var sum, sq float64
	for i := 0; i < n; i++ {
		sum += c
		sq += c * c
	}
	m := sum / float64(n)
	return (sq - float64(n)*m*m) / float64(n-1)
}
