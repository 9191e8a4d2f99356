package fleet

import (
	"errors"
	"fmt"
	"io"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pcsmon/internal/core"
	"pcsmon/internal/obs"
)

// TestStressManyConcurrentStreams is the engine's concurrency proof: 256+
// plant streams, each driven by its own producer goroutine, spread over a
// handful of workers while a consumer drains the fan-in channel. Run under
// the race detector (`go test -race ./internal/fleet -run Stress`) this
// exercises every cross-goroutine edge: attach/push/detach on the
// registry, mailbox hand-off, scratch-buffer recycling, event fan-in and
// the counter updates.
func TestStressManyConcurrentStreams(t *testing.T) {
	const (
		streams = 256
		rows    = 60
		onset   = 30
	)
	sys := testSystem(t)
	p, err := NewPool(sys, Config{
		Workers:     4,
		Mailbox:     16,
		EventBuffer: 64,
		EmitEvery:   7, // exercise the Scored path without drowning the consumer
		Sample:      9 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}

	// Consumer: count events per plant and enforce the per-plant ordering
	// contract while everything is in flight.
	type plantTally struct {
		scored   int
		lastIdx  int
		verdicts int
		ordered  bool
	}
	tallies := make(map[string]*plantTally, streams)
	var tmu sync.Mutex
	consumerDone := make(chan struct{})
	go func() {
		defer close(consumerDone)
		for ev := range p.Events() {
			tmu.Lock()
			tl := tallies[ev.Plant]
			if tl == nil {
				tl = &plantTally{lastIdx: -1, ordered: true}
				tallies[ev.Plant] = tl
			}
			switch e := ev.Event.(type) {
			case *core.SampleScored:
				if e.Index <= tl.lastIdx {
					tl.ordered = false
				}
				tl.lastIdx = e.Index
				tl.scored++
			case core.VerdictReady:
				tl.verdicts++
			}
			tmu.Unlock()
		}
	}()

	// Producers: one goroutine per plant. A third of the plants stream a
	// cross-view divergence (alarms + integrity verdicts), the rest NOC.
	ctrlN, procN := plantRows(40, rows, 0, 0, 0)
	ctrlA, procA := plantRows(41, rows, 1, onset, 25)
	reports := make([]*core.Report, streams)
	errs := make([]error, streams)
	var wg sync.WaitGroup
	for s := 0; s < streams; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			id := fmt.Sprintf("plant-%03d", s)
			attacked := s%3 == 0
			ctrl, proc := ctrlN, procN
			if attacked {
				ctrl, proc = ctrlA, procA
			}
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

	// Every stream completed with the right verdict.
	wantScored := 0
	for i := 0; i < rows; i++ {
		if i%7 == 0 {
			wantScored++
		}
	}
	for s := 0; s < streams; s++ {
		if errs[s] != nil {
			t.Fatalf("stream %d: %v", s, errs[s])
		}
		rep := reports[s]
		if rep == nil {
			t.Fatalf("stream %d: nil report", s)
		}
		if s%3 == 0 {
			if rep.Verdict != core.VerdictIntegrityAttack {
				t.Errorf("attacked stream %d verdict %v (%s)", s, rep.Verdict, rep.Explanation)
			}
		} else if rep.Verdict != core.VerdictNormal {
			t.Errorf("NOC stream %d verdict %v (%s)", s, rep.Verdict, rep.Explanation)
		}
	}
	tmu.Lock()
	defer tmu.Unlock()
	if len(tallies) != streams {
		t.Fatalf("events seen for %d plants, want %d", len(tallies), streams)
	}
	for id, tl := range tallies {
		if !tl.ordered {
			t.Errorf("%s: Scored events out of order", id)
		}
		if tl.scored != wantScored {
			t.Errorf("%s: %d Scored events, want %d", id, tl.scored, wantScored)
		}
		if tl.verdicts != 1 {
			t.Errorf("%s: %d Verdict events", id, tl.verdicts)
		}
	}
	st := p.Stats()
	if st.Observations != uint64(streams*rows) {
		t.Errorf("observations %d, want %d", st.Observations, streams*rows)
	}
	if st.Verdicts != streams || st.Attached != streams || st.Active != 0 {
		t.Errorf("stats %+v", st)
	}

	// Determinism under concurrency: every attacked stream pushed identical
	// rows, so every attacked report must be identical (golden parity at
	// stress scale). Spot-check the localized channel.
	for s := 0; s < streams; s += 3 {
		if reports[s].AttackedVar != 1 {
			t.Errorf("attacked stream %d localized var %d, want 1", s, reports[s].AttackedVar)
		}
	}
}

// TestStressCloseRacesProducers: Close may overlap in-flight Attach, Push
// and Detach calls. Losers of the race must get ErrClosed (or
// ErrUnknownPlant when Close finalized their stream first) — never a
// send-on-closed-channel panic, a lost report, or a deadlock.
func TestStressCloseRacesProducers(t *testing.T) {
	sys := testSystem(t)
	ctrl, proc := plantRows(60, 10, 0, 0, 0)
	for round := 0; round < 8; round++ {
		p, err := NewPool(sys, Config{Workers: 2, Mailbox: 4, EmitEvery: -1, Sample: 9 * time.Second})
		if err != nil {
			t.Fatal(err)
		}
		collect := drain(p)
		const producers = 8
		var wg sync.WaitGroup
		errCh := make(chan error, producers)
		for g := 0; g < producers; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for r := 0; ; r++ {
					id := fmt.Sprintf("race-%d-%d-%d", round, g, r)
					st, err := p.Attach(id, 0)
					if err != nil {
						if !errors.Is(err, ErrClosed) {
							errCh <- err
						}
						return
					}
					for i := range ctrl {
						if err := st.Push(ctrl[i], proc[i]); err != nil {
							if !errors.Is(err, ErrClosed) {
								errCh <- err
								return
							}
							break
						}
					}
					if _, err := st.Detach(); err != nil &&
						!errors.Is(err, ErrClosed) &&
						!errors.Is(err, ErrUnknownPlant) &&
						!errors.Is(err, core.ErrBadInput) { // detached with nothing scored
						errCh <- err
						return
					}
				}
			}(g)
		}
		time.Sleep(time.Duration(round) * 200 * time.Microsecond)
		if err := p.Close(); err != nil {
			t.Fatal(err)
		}
		wg.Wait()
		collect()
		select {
		case err := <-errCh:
			t.Fatalf("round %d: %v", round, err)
		default:
		}
	}
}

// TestStressConcurrentAttachDetachChurn: plants attach, stream a short
// burst and detach continuously while other goroutines hammer Stats — the
// registry-churn half of the race proof.
func TestStressConcurrentAttachDetachChurn(t *testing.T) {
	sys := testSystem(t)
	p, err := NewPool(sys, Config{Workers: 3, Mailbox: 4, EmitEvery: -1, Sample: 9 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	collect := drain(p)
	ctrl, proc := plantRows(50, 25, 0, 0, 0)

	stop := make(chan struct{})
	var statsWG sync.WaitGroup
	for i := 0; i < 2; i++ {
		statsWG.Add(1)
		go func() {
			defer statsWG.Done()
			for {
				select {
				case <-stop:
					return
				default:
					_ = p.Stats()
				}
			}
		}()
	}

	const (
		producers = 32
		rounds    = 8
	)
	var wg sync.WaitGroup
	errCh := make(chan error, producers)
	for g := 0; g < producers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				id := fmt.Sprintf("churn-%02d-%02d", g, r)
				st, err := p.Attach(id, 0)
				if err != nil {
					errCh <- err
					return
				}
				for i := range ctrl {
					if err := st.Push(ctrl[i], proc[i]); err != nil {
						errCh <- err
						return
					}
				}
				if _, err := st.Detach(); err != nil {
					errCh <- err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(stop)
	statsWG.Wait()
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	collect()
	select {
	case err := <-errCh:
		t.Fatal(err)
	default:
	}
	if st := p.Stats(); st.Verdicts != producers*rounds {
		t.Errorf("verdicts %d, want %d", st.Verdicts, producers*rounds)
	}
}

// TestStressScrapeUnderLoad is the observability tentpole's race proof: 8
// producer goroutines push observations flat out while a scraper hammers
// the three read surfaces a live /metrics + /status endpoint hits — the
// pool's Stats() snapshot, the Prometheus exposition writer and the health
// registry's per-unit snapshot. Run under the race detector this exercises
// every reader/writer edge the ops server adds; the aggregate counters
// must be monotone across scrapes and exact at quiescence.
func TestStressScrapeUnderLoad(t *testing.T) {
	const (
		producers = 8
		rows      = 400
	)
	sys := testSystem(t)
	reg := obs.NewRegistry()
	health := obs.NewHealthRegistry()
	p, err := NewPool(sys, Config{
		Workers: 4, EmitEvery: -1, Sample: 9 * time.Second,
		Metrics: reg, Health: health,
	})
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		for ev := range p.Events() {
			p.Recycle(ev)
		}
	}()

	ctrl, proc := plantRows(77, rows, 0, 0, 0)
	errCh := make(chan error, producers)
	var wg sync.WaitGroup
	for g := 0; g < producers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			id := fmt.Sprintf("unit-%d", g)
			st, err := p.Attach(id, 0)
			if err != nil {
				errCh <- err
				return
			}
			for i := range ctrl {
				if err := st.Push(ctrl[i], proc[i]); err != nil {
					errCh <- err
					return
				}
			}
			if _, err := st.Detach(); err != nil {
				errCh <- err
				return
			}
		}(g)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()

	// The scraper: monotone counters, a well-formed exposition and a
	// coherent health snapshot on every pass, concurrent with the pushes.
	var lastObs uint64
	scrapes := 0
	for scraping := true; scraping; {
		select {
		case <-done:
			scraping = false
		default:
		}
		st := p.Stats()
		if st.Observations < lastObs {
			t.Fatalf("observations went backwards: %d after %d", st.Observations, lastObs)
		}
		lastObs = st.Observations
		if err := reg.WritePrometheus(io.Discard); err != nil {
			t.Fatal(err)
		}
		for _, u := range health.Snapshot(time.Now()) {
			if u.Observations < 0 {
				t.Fatalf("negative observation count for %s", u.Unit)
			}
		}
		scrapes++
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-errCh:
		t.Fatal(err)
	default:
	}
	if st := p.Stats(); st.Observations != uint64(producers*rows) {
		t.Errorf("observations %d, want %d", st.Observations, producers*rows)
	}
	var buf strings.Builder
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf("pcsmon_fleet_observations_total %d", producers*rows)
	if !strings.Contains(buf.String(), want) {
		t.Errorf("final exposition missing %q", want)
	}
	t.Logf("%d scrapes against %d observations", scrapes, producers*rows)
}

// TestPushRacingDetachLosesNothing pins the Push/Detach race of one plant:
// a producer pushes flat out on the current handle, re-attaching whenever
// Push reports the plant gone, while the main goroutine detaches it in a
// loop under the mutex the re-attach takes — the shape of a control plane
// whose API detaches a unit its ingest keeps feeding, sharing the handle
// through an atomic pointer as the plane does. Oracle: every Push that returned nil is scored
// into exactly one verdict, so the verdicts' sample counts sum to the
// accepted pushes.
func TestPushRacingDetachLosesNothing(t *testing.T) {
	const (
		id     = "racer"
		pushes = 200_000
	)
	sys := testSystem(t)
	p, err := NewPool(sys, Config{Workers: 2, EmitEvery: -1, Sample: 9 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	var scored int
	consumed := make(chan struct{})
	go func() {
		defer close(consumed)
		for ev := range p.Events() {
			if v, ok := ev.Event.(core.VerdictReady); ok {
				scored += v.Samples
			}
		}
	}()
	var mu sync.Mutex // serializes attach and detach, never held by Push
	var cur atomic.Pointer[Stream]
	st, err := p.Attach(id, 0)
	if err != nil {
		t.Fatal(err)
	}
	cur.Store(st)
	// push is the plane's protocol: push on the current handle; when there
	// is none or it is detached, attach under mu (unless the handle was
	// replaced meanwhile) and retry once.
	push := func(row []float64) error {
		if st := cur.Load(); st != nil {
			if err := st.Push(row, row); !errors.Is(err, ErrUnknownPlant) {
				return err
			}
		}
		mu.Lock()
		st := cur.Load()
		if st == nil {
			var err error
			if st, err = p.Attach(id, 0); err != nil {
				mu.Unlock()
				return err
			}
			cur.Store(st)
		}
		mu.Unlock()
		return st.Push(row, row)
	}
	ctrl, _ := plantRows(60, 64, 0, 0, 0)
	var accepted int
	pushErr := make(chan error, 1)
	go func() {
		defer close(pushErr)
		for i := 0; i < pushes; i++ {
			err := push(ctrl[i%len(ctrl)])
			if err != nil && !errors.Is(err, ErrUnknownPlant) {
				pushErr <- err
				return
			}
			if err == nil {
				accepted++
			}
		}
	}()
	detaches := 0
	for done := false; !done; {
		select {
		case err, open := <-pushErr:
			if open {
				t.Fatal(err)
			}
			done = true
		default:
			mu.Lock()
			if st := cur.Swap(nil); st != nil {
				if _, err := st.Detach(); err == nil || !errors.Is(err, ErrUnknownPlant) {
					detaches++
				}
			}
			mu.Unlock()
		}
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	<-consumed
	if scored != accepted {
		t.Errorf("%d pushes accepted, %d scored into verdicts: %d observations lost across %d detaches",
			accepted, scored, accepted-scored, detaches)
	}
	t.Logf("%d pushes accepted and scored across %d detaches", accepted, detaches)
}
