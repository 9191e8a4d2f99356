package obs

import (
	"errors"
	"math"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestRegistryExposition(t *testing.T) {
	r := NewRegistry()
	if err := r.CounterFunc("pcsmon_test_frames_total", "frames seen",
		func() float64 { return 42 }); err != nil {
		t.Fatal(err)
	}
	if err := r.GaugeFunc("pcsmon_test_depth", "queue depth",
		func() float64 { return 3.5 }, Label{"worker", "0"}); err != nil {
		t.Fatal(err)
	}
	if err := r.CounterFunc("pcsmon_test_scraped_total", "scrape-time counter",
		func() float64 { return 7 }); err != nil {
		t.Fatal(err)
	}
	h, err := r.Histogram("pcsmon_test_latency_seconds", "scoring latency",
		[]float64{0.1, 1, 10})
	if err != nil {
		t.Fatal(err)
	}
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(100) // overflow bucket

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	text := b.String()
	for _, want := range []string{
		"# HELP pcsmon_test_frames_total frames seen",
		"# TYPE pcsmon_test_frames_total counter",
		"pcsmon_test_frames_total 42",
		`pcsmon_test_depth{worker="0"} 3.5`,
		"pcsmon_test_scraped_total 7",
		"# TYPE pcsmon_test_latency_seconds histogram",
		`pcsmon_test_latency_seconds_bucket{le="0.1"} 1`,
		`pcsmon_test_latency_seconds_bucket{le="1"} 2`,
		`pcsmon_test_latency_seconds_bucket{le="10"} 2`,
		`pcsmon_test_latency_seconds_bucket{le="+Inf"} 3`,
		"pcsmon_test_latency_seconds_sum 100.55",
		"pcsmon_test_latency_seconds_count 3",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q:\n%s", want, text)
		}
	}
}

func TestHistogramLabelsMerge(t *testing.T) {
	r := NewRegistry()
	h, err := r.Histogram("pcsmon_test_size_bytes", "sizes",
		[]float64{1}, Label{"transport", "udp"})
	if err != nil {
		t.Fatal(err)
	}
	h.Observe(0.5)
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	want := `pcsmon_test_size_bytes_bucket{transport="udp",le="1"} 1`
	if !strings.Contains(b.String(), want) {
		t.Errorf("labelled histogram missing %q:\n%s", want, b.String())
	}
}

// TestMetricNamingEnforced: the naming convention is a registration error,
// not an after-the-fact lint.
func TestMetricNamingEnforced(t *testing.T) {
	r := NewRegistry()
	zero := func() float64 { return 0 }
	cases := []struct {
		name string
		reg  func() error
	}{
		{"missing prefix", func() error { return r.CounterFunc("frames_total", "x", zero) }},
		{"not snake case", func() error { return r.CounterFunc("pcsmon_Frames_total", "x", zero) }},
		{"double underscore", func() error { return r.CounterFunc("pcsmon_a__b_total", "x", zero) }},
		{"trailing underscore", func() error { return r.CounterFunc("pcsmon_frames_total_", "x", zero) }},
		{"counter without _total", func() error { return r.CounterFunc("pcsmon_frames", "x", zero) }},
		{"gauge with _total", func() error { return r.GaugeFunc("pcsmon_depth_total", "x", zero) }},
		{"histogram without unit", func() error {
			_, err := r.Histogram("pcsmon_latency", "x", []float64{1})
			return err
		}},
		{"nil counter func", func() error { return r.CounterFunc("pcsmon_x_total", "x", nil) }},
		{"empty buckets", func() error {
			_, err := r.Histogram("pcsmon_lat_seconds", "x", nil)
			return err
		}},
		{"unsorted buckets", func() error {
			_, err := r.Histogram("pcsmon_lat2_seconds", "x", []float64{2, 1})
			return err
		}},
	}
	for _, tc := range cases {
		if err := tc.reg(); !errors.Is(err, ErrBadMetric) {
			t.Errorf("%s: got %v, want ErrBadMetric", tc.name, err)
		}
	}
}

func TestDuplicateSeriesRejected(t *testing.T) {
	r := NewRegistry()
	zero := func() float64 { return 0 }
	if err := r.CounterFunc("pcsmon_dup_total", "x", zero); err != nil {
		t.Fatal(err)
	}
	if err := r.CounterFunc("pcsmon_dup_total", "x", zero); !errors.Is(err, ErrBadMetric) {
		t.Errorf("duplicate bare series: %v, want ErrBadMetric", err)
	}
	// Same family, distinct labels: allowed.
	if err := r.CounterFunc("pcsmon_dup_total", "x", zero, Label{"k", "a"}); err != nil {
		t.Errorf("distinct labels rejected: %v", err)
	}
	// Same name, different type: rejected.
	if err := r.GaugeFunc("pcsmon_dup_total", "x", func() float64 { return 0 },
		Label{"k", "b"}); !errors.Is(err, ErrBadMetric) {
		t.Errorf("type change: %v, want ErrBadMetric", err)
	}
}

// TestRecordingAllocationFree pins the hot-path contract: recording into
// counters, gauges, histograms and unit-health handles allocates nothing.
func TestRecordingAllocationFree(t *testing.T) {
	r := NewRegistry()
	h, _ := r.Histogram("pcsmon_alloc_latency_seconds", "x", ExpBuckets(1e-6, 10, 8))
	hb := h.Buffer()
	u := NewHealthRegistry().Attach("unit-000")
	now := time.Now().UnixNano()
	if n := testing.AllocsPerRun(200, func() {
		h.Observe(2e-4)
		hb.Observe(3e-5)
		hb.Flush()
		u.Observe(now, 1, 1, 2, 3, 4, false)
		u.SetGeneration(1)
	}); n > 0 {
		t.Errorf("recording allocates %.1f times per op, want 0", n)
	}
}

// TestHistogramBufferMatchesObserve pins that a flushed buffer leaves the
// histogram exactly as observing each value directly would, and that
// nothing shows before the flush.
func TestHistogramBufferMatchesObserve(t *testing.T) {
	r := NewRegistry()
	bounds := []float64{1, 2, 4, 8}
	direct, _ := r.Histogram("pcsmon_direct_latency_seconds", "x", bounds)
	buffered, _ := r.Histogram("pcsmon_buffered_latency_seconds", "x", bounds)
	b := buffered.Buffer()
	for round := 0; round < 3; round++ {
		for _, v := range []float64{0.5, 1, 1.5, 3, 3, 7, 8, 9, 100} {
			direct.Observe(v)
			b.Observe(v)
		}
		if buffered.Count() != uint64(9*round) {
			t.Fatalf("round %d: count %d before Flush, want %d", round, buffered.Count(), 9*round)
		}
		b.Flush()
		b.Flush() // an empty flush adds nothing
		if buffered.Count() != direct.Count() || buffered.Sum() != direct.Sum() {
			t.Fatalf("round %d: count/sum %d/%v, direct %d/%v", round, buffered.Count(), buffered.Sum(), direct.Count(), direct.Sum())
		}
		for i := range direct.counts {
			if got, want := buffered.counts[i].Load(), direct.counts[i].Load(); got != want {
				t.Fatalf("round %d bucket %d: %d, direct %d", round, i, got, want)
			}
		}
	}
}

// TestConcurrentRecordAndScrape: recording from many goroutines while
// scraping must be race-free (run under -race) and the scraped counter
// monotone.
func TestConcurrentRecordAndScrape(t *testing.T) {
	r := NewRegistry()
	var c atomic.Uint64
	if err := r.CounterFunc("pcsmon_race_total", "x", func() float64 { return float64(c.Load()) }); err != nil {
		t.Fatal(err)
	}
	h, _ := r.Histogram("pcsmon_race_latency_seconds", "x", []float64{1, 2, 4})
	done := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := 0; n < 5000; n++ {
				c.Add(1)
				h.Observe(1.5)
			}
		}()
	}
	go func() { wg.Wait(); close(done) }()
	last := 0.0
	for running := true; running; {
		select {
		case <-done:
			running = false
		default:
		}
		var b strings.Builder
		if err := r.WritePrometheus(&b); err != nil {
			t.Fatal(err)
		}
		if v := scraped(t, b.String(), "pcsmon_race_total"); v < last {
			t.Fatalf("counter went backwards: %v -> %v", last, v)
		} else {
			last = v
		}
	}
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if v := scraped(t, b.String(), "pcsmon_race_total"); v != 8*5000 {
		t.Errorf("counter = %v, want %d", v, 8*5000)
	}
	if h.Count() == 0 || h.Sum() <= 0 {
		t.Errorf("histogram recorded nothing under concurrency")
	}
}

func TestExpBuckets(t *testing.T) {
	b := ExpBuckets(1e-6, 10, 4)
	want := []float64{1e-6, 1e-5, 1e-4, 1e-3}
	for i := range want {
		if math.Abs(b[i]-want[i]) > want[i]*1e-12 {
			t.Errorf("bucket %d = %g, want %g", i, b[i], want[i])
		}
	}
}

// scraped parses the value of a bare series from exposition text.
func scraped(t *testing.T, text, name string) float64 {
	t.Helper()
	for _, line := range strings.Split(text, "\n") {
		if v, ok := strings.CutPrefix(line, name+" "); ok {
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				t.Fatal(err)
			}
			return f
		}
	}
	t.Fatalf("series %s missing from exposition", name)
	return 0
}
