package fleet

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"pcsmon/internal/adapt"
	"pcsmon/internal/core"
)

// TestAdaptiveParityAlwaysVeto is the fleet half of the swap-parity golden
// test: a pool with adaptation enabled but every candidate vetoed must
// produce reports bit-identical to the frozen-model pool (and hence to the
// lone analyzer, by the existing parity tests).
func TestAdaptiveParityAlwaysVeto(t *testing.T) {
	sys := testSystem(t)
	const (
		onset  = 120
		rows   = 260
		sample = 9 * time.Second
	)
	ids := []string{"noc", "attack"}
	ctrlN, procN := plantRows(31, rows, 0, 0, 0)
	ctrlA, procA := plantRows(32, rows, 3, onset, 25)
	rowsFor := func(id string) ([][]float64, [][]float64) {
		if id == "attack" {
			return ctrlA, procA
		}
		return ctrlN, procN
	}

	run := func(cfg Config) map[string]*core.Report {
		p, err := NewPool(sys, cfg)
		if err != nil {
			t.Fatal(err)
		}
		collect := drain(p)
		streams := make(map[string]*Stream, len(ids))
		for _, id := range ids {
			st, err := p.Attach(id, onset)
			if err != nil {
				t.Fatal(err)
			}
			streams[id] = st
		}
		for i := 0; i < rows; i++ {
			for _, id := range ids {
				c, pr := rowsFor(id)
				if err := streams[id].Push(c[i], pr[i]); err != nil {
					t.Fatal(err)
				}
			}
		}
		out := make(map[string]*core.Report, len(ids))
		for _, id := range ids {
			rep, err := streams[id].Detach()
			if err != nil {
				t.Fatal(err)
			}
			out[id] = rep
		}
		if err := p.Close(); err != nil {
			t.Fatal(err)
		}
		collect()
		return out
	}

	frozen := run(Config{Workers: 2, EmitEvery: -1, Sample: sample})
	vetoed := run(Config{Workers: 2, EmitEvery: -1, Sample: sample, Adapt: adapt.Options{
		Enabled: true, Every: 16, Forget: 1.0, MinWeight: 1, MinExplainedVar: 2,
	}})
	for _, id := range ids {
		if !reflect.DeepEqual(frozen[id], vetoed[id]) {
			t.Errorf("%s: vetoed-adaptive report differs from frozen:\nfrozen:   %+v\nadaptive: %+v",
				id, frozen[id], vetoed[id])
		}
	}
	if frozen["attack"].Verdict != core.VerdictIntegrityAttack {
		t.Errorf("attack golden verdict %v", frozen["attack"].Verdict)
	}
}

// TestStressAdaptiveConcurrentSwaps is the swap protocol's -race proof: 64+
// concurrent streams share one tracker with an aggressive refit cadence, so
// refits, guard checks and per-stream swaps overlap scoring on every
// worker. Every stream must still reach the right verdict and the pool must
// record real model activity.
func TestStressAdaptiveConcurrentSwaps(t *testing.T) {
	const (
		streams = 72
		rows    = 240
		onset   = 200
	)
	sys := testSystem(t)
	p, err := NewPool(sys, Config{
		Workers:     4,
		Mailbox:     16,
		EmitEvery:   -1,
		Sample:      9 * time.Second,
		Adapt:       adapt.Options{Enabled: true, Every: 64, Forget: 0.9995, MinWeight: 600},
		EventBuffer: 128,
	})
	if err != nil {
		t.Fatal(err)
	}

	window := core.DiagnoseWindow
	swapEvents := map[string]int{}
	var smu sync.Mutex
	consumerDone := make(chan struct{})
	go func() {
		defer close(consumerDone)
		for ev := range p.Events() {
			if s, ok := ev.Event.(core.ModelSwapped); ok {
				smu.Lock()
				swapEvents[ev.Plant]++
				smu.Unlock()
				if s.Index%window != 0 {
					t.Errorf("%s: swap at %d not on a window boundary", ev.Plant, s.Index)
				}
			}
		}
	}()

	reports := make([]*core.Report, streams)
	errs := make([]error, streams)
	var wg sync.WaitGroup
	for s := 0; s < streams; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			id := fmt.Sprintf("adapt-%03d", s)
			// Every plant gets its own seeded stream (a fleet is diverse;
			// the shared tracker must learn from genuinely distinct NOC
			// traffic), every fourth one with a cross-view divergence.
			delta, ch := 0.0, 0
			if s%4 == 0 {
				delta, ch = 25, 1
			}
			ctrl, proc := plantRows(600+int64(s), rows, ch, onset, delta)
			st, err := p.Attach(id, onset)
			if err != nil {
				errs[s] = err
				return
			}
			for i := 0; i < rows; i++ {
				if err := st.Push(ctrl[i], proc[i]); err != nil {
					errs[s] = err
					return
				}
			}
			reports[s], errs[s] = st.Detach()
		}(s)
	}
	wg.Wait()
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	<-consumerDone

	for s := 0; s < streams; s++ {
		if errs[s] != nil {
			t.Fatalf("stream %d: %v", s, errs[s])
		}
		want := core.VerdictNormal
		if s%4 == 0 {
			want = core.VerdictIntegrityAttack
		}
		if got := reports[s].Verdict; got != want {
			t.Errorf("stream %d verdict %v, want %v (%s)", s, got, want, reports[s].Explanation)
		}
	}
	st := p.Stats()
	if st.ModelGeneration == 0 {
		t.Errorf("no candidate model was ever accepted: %+v (adapt: %+v)", st, p.tracker.Stats())
	}
	if st.ModelSwaps == 0 {
		t.Error("no stream ever swapped models")
	}
	smu.Lock()
	events := 0
	for _, n := range swapEvents {
		events += n
	}
	smu.Unlock()
	if uint64(events) != st.ModelSwaps {
		t.Errorf("%d ModelSwapped events vs %d counted swaps", events, st.ModelSwaps)
	}
	ast := p.tracker.Stats()
	if ast.Learned == 0 || ast.Accepted == 0 {
		t.Errorf("tracker inactive: %+v", ast)
	}
}
