package fleet

import (
	"reflect"
	"testing"
	"time"

	"pcsmon/internal/core"
)

// TestGoldenParityFleetVsSingleStream: a plant scored through the fleet
// pool must produce a report bit-identical to the same rows replayed
// through a lone OnlineAnalyzer. Several plants with different anomalies
// run concurrently so the parity holds under real interleaving, not just
// for a solo stream.
func TestGoldenParityFleetVsSingleStream(t *testing.T) {
	sys := testSystem(t)
	const (
		onset  = 120
		rows   = 260
		sample = 9 * time.Second
	)
	type plantCase struct {
		id         string
		seed       int64
		ch         int
		delta      float64
		ctrl, proc [][]float64
	}
	cases := []*plantCase{
		{id: "noc", seed: 11, ch: 0, delta: 0},
		{id: "diverge-0", seed: 12, ch: 0, delta: 25},
		{id: "diverge-7", seed: 13, ch: 7, delta: 18},
		{id: "diverge-40", seed: 14, ch: 40, delta: 30},
		{id: "late", seed: 15, ch: 3, delta: 22},
	}
	for _, pc := range cases {
		pc.ctrl, pc.proc = plantRows(pc.seed, rows, pc.ch, onset, pc.delta)
	}

	// Golden: each plant through its own lone analyzer.
	golden := make(map[string]*core.Report, len(cases))
	for _, pc := range cases {
		oa, err := sys.NewOnlineAnalyzer(onset, sample)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < rows; i++ {
			if _, err := oa.Push(pc.ctrl[i], pc.proc[i]); err != nil {
				t.Fatal(err)
			}
		}
		rep, err := oa.Finish()
		if err != nil {
			t.Fatal(err)
		}
		golden[pc.id] = rep
	}

	// Fleet: all plants interleaved round-robin over a small worker set so
	// several streams share each worker.
	p, err := NewPool(sys, Config{Workers: 2, Mailbox: 8, EmitEvery: -1, Sample: sample})
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
	for c, pc := range cases {
		rep, err := streams[c].Detach()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(rep, golden[pc.id]) {
			t.Errorf("%s: fleet report differs from single-stream golden:\nfleet:  %+v\ngolden: %+v",
				pc.id, rep, golden[pc.id])
		}
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	collect()

	// Sanity: the cases exercise different verdicts, so parity is not
	// trivially comparing empty reports.
	if golden["noc"].Verdict != core.VerdictNormal {
		t.Errorf("noc golden verdict %v", golden["noc"].Verdict)
	}
	if golden["diverge-0"].Verdict != core.VerdictIntegrityAttack {
		t.Errorf("diverge-0 golden verdict %v (%s)",
			golden["diverge-0"].Verdict, golden["diverge-0"].Explanation)
	}
}

// TestParityRowBufferReuse: Push must copy its rows — a caller that reuses
// one scratch slice for every observation must get the same report as one
// that hands over fresh slices.
func TestParityRowBufferReuse(t *testing.T) {
	sys := testSystem(t)
	const (
		onset  = 100
		rows   = 200
		sample = 9 * time.Second
	)
	ctrl, proc := plantRows(21, rows, 2, onset, 20)

	oa, err := sys.NewOnlineAnalyzer(onset, sample)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < rows; i++ {
		if _, err := oa.Push(ctrl[i], proc[i]); err != nil {
			t.Fatal(err)
		}
	}
	golden, err := oa.Finish()
	if err != nil {
		t.Fatal(err)
	}

	p, err := NewPool(sys, Config{Workers: 1, EmitEvery: -1, Sample: sample})
	if err != nil {
		t.Fatal(err)
	}
	collect := drain(p)
	st, err := p.Attach("reuse", onset)
	if err != nil {
		t.Fatal(err)
	}
	cbuf := make([]float64, len(ctrl[0]))
	pbuf := make([]float64, len(proc[0]))
	for i := 0; i < rows; i++ {
		copy(cbuf, ctrl[i])
		copy(pbuf, proc[i])
		if err := st.Push(cbuf, pbuf); err != nil {
			t.Fatal(err)
		}
		// Scribble over the caller's buffers immediately: if Push aliased
		// them the scored stream would be garbage.
		for j := range cbuf {
			cbuf[j] = -1e9
			pbuf[j] = 1e9
		}
	}
	rep, err := st.Detach()
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	collect()
	if !reflect.DeepEqual(rep, golden) {
		t.Errorf("buffer-reusing producer diverged from golden:\nfleet:  %+v\ngolden: %+v", rep, golden)
	}
}
