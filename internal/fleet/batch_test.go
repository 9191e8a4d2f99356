package fleet

import (
	"errors"
	"reflect"
	"testing"
	"time"

	"pcsmon/internal/obs"
)

// TestBatchedParityAcrossBatchSizes: every Batch setting — per-observation
// delivery, small batches that interleave with the flush ticker, batches
// larger than the stream — must produce bit-identical reports. Batching
// changes message granularity, never results.
//
// The "proc-ends" plant's process view ends mid-stream: a nil row from
// procEnd on, inside its diagnosis window and mid-batch at every batch
// size from 2 to 16. Its batches are boxes the two-view plants filled
// before, so a nil row that did not overwrite a recycled slot would score
// a stale process row; its report must equal a lone OnlineAnalyzer's at
// every setting.
func TestBatchedParityAcrossBatchSizes(t *testing.T) {
	sys := testSystem(t)
	const (
		onset   = 110
		rows    = 230
		procEnd = 121
		sample  = 9 * time.Second
	)
	type plantCase struct {
		id         string
		ctrl, proc [][]float64
	}
	cases := []*plantCase{
		{id: "noc"}, {id: "shift-2"}, {id: "shift-9"}, {id: "proc-ends"},
	}
	cases[0].ctrl, cases[0].proc = plantRows(31, rows, 0, onset, 0)
	cases[1].ctrl, cases[1].proc = plantRows(32, rows, 2, onset, 20)
	cases[2].ctrl, cases[2].proc = plantRows(33, rows, 9, onset, 25)
	ended := cases[3]
	ended.ctrl, ended.proc = plantRows(34, rows, 5, onset, 20)
	for i := procEnd; i < rows; i++ {
		ended.proc[i] = nil
	}

	oa, err := sys.NewOnlineAnalyzer(onset, sample)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < rows; i++ {
		if _, err := oa.Push(ended.ctrl[i], ended.proc[i]); err != nil {
			t.Fatal(err)
		}
	}
	lone, err := oa.Finish()
	if err != nil {
		t.Fatal(err)
	}

	run := func(batch int, flush time.Duration) map[string]interface{} {
		t.Helper()
		p, err := NewPool(sys, Config{
			Workers: 2, Mailbox: 4, Batch: batch, FlushEvery: flush,
			EmitEvery: -1, Sample: sample,
		})
		if err != nil {
			t.Fatal(err)
		}
		collect := drain(p)
		streams := make([]*Stream, len(cases))
		for c, pc := range cases {
			if streams[c], err = p.Attach(pc.id, onset); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < rows; i++ {
			for c, pc := range cases {
				if err := streams[c].Push(pc.ctrl[i], pc.proc[i]); err != nil {
					t.Fatal(err)
				}
			}
		}
		out := make(map[string]interface{}, len(cases))
		for c, pc := range cases {
			rep, err := streams[c].Detach()
			if err != nil {
				t.Fatal(err)
			}
			out[pc.id] = rep
		}
		if err := p.Close(); err != nil {
			t.Fatal(err)
		}
		collect()
		return out
	}

	golden := run(1, -1) // unbatched
	if !reflect.DeepEqual(golden[ended.id], lone) {
		t.Errorf("batch=1: %s report differs from a lone OnlineAnalyzer", ended.id)
	}
	golden[ended.id] = lone
	for _, cfg := range []struct {
		batch int
		flush time.Duration
	}{
		{2, -1},
		{3, -1},
		{16, -1},
		{7, 200 * time.Microsecond}, // aggressive ticker: partial flushes mid-stream
		{1024, -1},                  // larger than the stream: only Detach flushes
	} {
		got := run(cfg.batch, cfg.flush)
		for id := range golden {
			if !reflect.DeepEqual(got[id], golden[id]) {
				t.Errorf("batch=%d flush=%v: %s report differs from golden",
					cfg.batch, cfg.flush, id)
			}
		}
	}
}

// TestBatchFlushTickDelivers: with a batch far larger than the pushed
// observation count, the flush ticker alone must get the observations
// scored — consumers see Scored events without any Detach.
func TestBatchFlushTickDelivers(t *testing.T) {
	sys := testSystem(t)
	ctrl, proc := plantRows(41, 5, 0, 0, 0)
	p, err := NewPool(sys, Config{
		Workers: 1, Batch: 1024, FlushEvery: time.Millisecond, Sample: time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	scored := make(chan int, 16)
	go func() {
		for ev := range p.Events() {
			if s, ok := ev.(*Scored); ok {
				scored <- s.Step.Index
				p.Recycle(s)
			}
		}
	}()
	st, err := p.Attach("tick", 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := st.Push(ctrl[i], proc[i]); err != nil {
			t.Fatal(err)
		}
	}
	for want := 0; want < 5; want++ {
		select {
		case idx := <-scored:
			if idx != want {
				t.Fatalf("Scored index %d, want %d", idx, want)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("flush tick never delivered observation %d", want)
		}
	}
	if _, err := st.Detach(); err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestBatchConfigValidation: a negative batch is rejected up front.
func TestBatchConfigValidation(t *testing.T) {
	sys := testSystem(t)
	if _, err := NewPool(sys, Config{Batch: -1}); !errors.Is(err, ErrBadConfig) {
		t.Errorf("Batch=-1: %v, want ErrBadConfig", err)
	}
}

// TestSteadyStateZeroAllocPerObservation pins tentpole item (3): once the
// pools are warm, pushing, batching, scoring and emitting one observation —
// with the consumer recycling its Scored events — performs zero allocations
// end to end.
func TestSteadyStateZeroAllocPerObservation(t *testing.T) {
	// The metrics variant pins the observability tentpole's headline
	// invariant: full instrumentation (scoring-latency histogram, batch
	// occupancy, per-unit health handle) must not cost a single allocation
	// on the hot path either.
	t.Run("bare", func(t *testing.T) { testSteadyStateZeroAlloc(t, Config{}) })
	t.Run("metrics", func(t *testing.T) {
		testSteadyStateZeroAlloc(t, Config{
			Metrics: obs.NewRegistry(),
			Health:  obs.NewHealthRegistry(),
		})
	})
}

func testSteadyStateZeroAlloc(t *testing.T, cfg Config) {
	sys := testSystem(t)
	const batch = 8
	ctrl, proc := plantRows(51, 1, 0, 0, 0)
	cfg.Workers, cfg.Batch, cfg.FlushEvery, cfg.EmitEvery, cfg.Sample = 1, batch, -1, 1, time.Second
	p, err := NewPool(sys, cfg)
	if err != nil {
		t.Fatal(err)
	}
	tokens := make(chan struct{}, 4096)
	go func() {
		for ev := range p.Events() {
			p.Recycle(ev)
			tokens <- struct{}{}
		}
	}()
	st, err := p.Attach("hot", 0)
	if err != nil {
		t.Fatal(err)
	}
	pushBatch := func() {
		for i := 0; i < batch; i++ {
			if err := st.Push(ctrl[0], proc[0]); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < batch; i++ {
			<-tokens
		}
	}
	// Warm every pool and ring buffer well past the run-rule window.
	for i := 0; i < 40; i++ {
		pushBatch()
	}
	avg := testing.AllocsPerRun(100, pushBatch)
	perObs := avg / batch
	if perObs > 0.01 && !raceEnabled {
		t.Errorf("steady-state scoring path allocates %.3f times per observation, want 0", perObs)
	}
	if _, err := st.Detach(); err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
}
