package main

import (
	"fmt"
	"sort"
	"sync"

	"pcsmon"
	"pcsmon/internal/control"
	"pcsmon/internal/core"
)

// reference runs the batch analysis — core.System.AnalyzeViews — on the
// first counts[u] generated rows of every unit, with the onset and sample
// of the workload's own config file. Units with a zero count are skipped.
func reference(in *inputs, sys *core.System, cfg *control.Config, counts []int) (map[string]unitReport, error) {
	out := make(map[string]unitReport, len(counts))
	var (
		mu       sync.Mutex
		firstErr error
		wg       sync.WaitGroup
	)
	next := make(chan int)
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for u := range next {
				rep, err := referenceUnit(in, sys, cfg, u, counts[u])
				mu.Lock()
				if err != nil && firstErr == nil {
					firstErr = err
				}
				if err == nil {
					out[rep.Unit] = rep
				}
				mu.Unlock()
			}
		}()
	}
	for u, n := range counts {
		if n > 0 {
			next <- u
		}
	}
	close(next)
	wg.Wait()
	return out, firstErr
}

func referenceUnit(in *inputs, sys *core.System, cfg *control.Config, u, n int) (unitReport, error) {
	ctrl, proc, err := in.views(u, n)
	if err != nil {
		return unitReport{}, err
	}
	rep, err := sys.AnalyzeViews(ctrl, proc, cfg.OnsetIndex(), cfg.Sample())
	if err != nil {
		return unitReport{}, fmt.Errorf("reference unit %d: %w", u, err)
	}
	return toUnitReport(pcsmon.PlantID(uint8(u)), rep), nil
}

func toUnitReport(id string, rep *core.Report) unitReport {
	return unitReport{Unit: id, Verdict: rep.Verdict.String(), AttackedVar: rep.AttackedVar, Explanation: rep.Explanation}
}

// compareReports lists every unit whose reported verdict, localized
// variable or explanation differs from the reference, or that has no
// report at all. Units in skip (failed operations) are left out.
func compareReports(want, got map[string]unitReport, skip map[string]bool) []string {
	var bad []string
	for id, w := range want {
		if skip[id] {
			continue
		}
		g, ok := got[id]
		switch {
		case !ok:
			bad = append(bad, fmt.Sprintf("%s: no verdict reported (want %s)", id, w.Verdict))
		case g.Verdict != w.Verdict:
			bad = append(bad, fmt.Sprintf("%s: verdict %q, want %q", id, g.Verdict, w.Verdict))
		case g.AttackedVar != w.AttackedVar:
			bad = append(bad, fmt.Sprintf("%s: attacked_var %d, want %d", id, g.AttackedVar, w.AttackedVar))
		case g.Explanation != w.Explanation:
			bad = append(bad, fmt.Sprintf("%s: explanation %q, want %q", id, g.Explanation, w.Explanation))
		}
	}
	for id := range got {
		if _, ok := want[id]; !ok && !skip[id] {
			bad = append(bad, fmt.Sprintf("%s: reported but never sent", id))
		}
	}
	sort.Strings(bad)
	return bad
}

// verdictHistogram counts reference verdicts, e.g. {"normal": 56, ...}.
func verdictHistogram(reps map[string]unitReport) map[string]int {
	h := map[string]int{}
	for _, r := range reps {
		h[r.Verdict]++
	}
	return h
}

// ledger is the cross-layer frame account of one socket run, read from
// outside: what the generator sent and what the service's /status, SSE
// stream and recorded chain say arrived.
type ledger struct {
	SentObs, SentFrames uint64
	// From /status after the load, before drain.
	Accepted, Deduped, Paired, Orphans, FleetObs uint64
	// Recorded is the frame count of the recorded chain read back after
	// drain (-1 when the workload records nothing).
	Recorded int64
	// Reliable is true for TCP: every frame sent must arrive.
	Reliable bool
}

// ledgerFromStatus fills the service side of the ledger from /status totals.
func ledgerFromStatus(l *ledger, totals map[string]float64) {
	l.Accepted = uint64(totals["control_frames_accepted"])
	l.Deduped = uint64(totals["pairing_deduped"])
	l.Paired = uint64(totals["pairing_paired"])
	l.Orphans = uint64(totals["pairing_orphans"])
	l.FleetObs = uint64(totals["fleet_observations"])
}

// received is the frames the service took in: ingested or suppressed as
// redundant copies.
func (l ledger) received() uint64 { return l.Accepted + l.Deduped }

// check returns the ledger identities that do not hold. Loss on an
// unreliable transport is not an identity violation: it shows up as
// failed operations instead (see lost).
func (l ledger) check() []string {
	var bad []string
	if l.Reliable && l.SentFrames != l.received() {
		bad = append(bad, fmt.Sprintf("ledger: %d frames sent over a reliable transport, %d received (accepted %d + deduped %d)",
			l.SentFrames, l.received(), l.Accepted, l.Deduped))
	}
	if l.received() > l.SentFrames {
		bad = append(bad, fmt.Sprintf("ledger: %d frames received but only %d sent", l.received(), l.SentFrames))
	}
	if l.FleetObs != l.Paired+l.Orphans {
		bad = append(bad, fmt.Sprintf("ledger: fleet scored %d observations, pairing emitted %d paired + %d orphaned",
			l.FleetObs, l.Paired, l.Orphans))
	}
	if l.Recorded >= 0 && uint64(l.Recorded) != l.received() {
		bad = append(bad, fmt.Sprintf("ledger: recorded chain holds %d frames, %d received", l.Recorded, l.received()))
	}
	return bad
}

// lost is the number of sent observations the pairing layer never emitted
// as a complete pair.
func (l ledger) lost() uint64 {
	if l.Paired >= l.SentObs {
		return 0
	}
	return l.SentObs - l.Paired
}

// failures counts failed operations — sent observations never scored, and
// every observation of a unit that saw a pair-dropped event other than a
// suppressed duplicate — and returns the units to leave out of the
// verdict comparison.
func failures(sent []int, scored map[string]int, drops map[string][]string) (failed int, skip map[string]bool) {
	skip = map[string]bool{}
	for u, n := range sent {
		if n == 0 {
			continue
		}
		id := pcsmon.PlantID(uint8(u))
		bad := false
		for _, k := range drops[id] {
			if k != "duplicate" {
				bad = true
			}
		}
		if bad {
			skip[id] = true
			failed += n
			continue
		}
		if s := scored[id]; s < n {
			failed += n - s
		}
	}
	return failed, skip
}
