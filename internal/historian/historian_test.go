package historian

import (
	"errors"
	"testing"

	"pcsmon/internal/te"
)

func TestVarNames(t *testing.T) {
	names := VarNames()
	if len(names) != NumVars {
		t.Fatalf("got %d names, want %d", len(names), NumVars)
	}
	if names[0] != "XMEAS(1)" {
		t.Errorf("first name %q", names[0])
	}
	if names[te.NumXMEAS] != "XMV(1)" {
		t.Errorf("first XMV name %q", names[te.NumXMEAS])
	}
	if names[NumVars-1] != "XMV(12)" {
		t.Errorf("last name %q", names[NumVars-1])
	}
	if VarName(0) != "XMEAS(1)" || VarName(NumVars-1) != "XMV(12)" {
		t.Error("VarName mismatch")
	}
	if VarName(-1) == "" || VarName(999) == "" {
		t.Error("out-of-range VarName should render placeholder")
	}
}

func TestIndexHelpers(t *testing.T) {
	if IsXMV(0) || !IsXMV(te.NumXMEAS) || IsXMV(NumVars) {
		t.Error("IsXMV boundaries wrong")
	}
}

func TestObservationAssembly(t *testing.T) {
	xmeas := make([]float64, te.NumXMEAS)
	xmv := make([]float64, te.NumXMV)
	xmeas[0] = 0.25
	xmv[2] = 24.6
	row, err := Observation(xmeas, xmv)
	if err != nil {
		t.Fatal(err)
	}
	if len(row) != NumVars {
		t.Fatalf("row len %d", len(row))
	}
	if row[0] != 0.25 || row[te.NumXMEAS+2] != 24.6 {
		t.Error("values misplaced")
	}
	if _, err := Observation(xmeas[:5], xmv); !errors.Is(err, ErrBadInput) {
		t.Errorf("short xmeas: want ErrBadInput, got %v", err)
	}
	if _, err := Observation(xmeas, xmv[:5]); !errors.Is(err, ErrBadInput) {
		t.Errorf("short xmv: want ErrBadInput, got %v", err)
	}
}

func TestRecorderDecimation(t *testing.T) {
	r, err := NewRecorder(3)
	if err != nil {
		t.Fatal(err)
	}
	xmeas := make([]float64, te.NumXMEAS)
	xmv := make([]float64, te.NumXMV)
	for i := 0; i < 10; i++ {
		xmeas[0] = float64(i)
		if err := r.Record(xmeas, xmv); err != nil {
			t.Fatal(err)
		}
	}
	// Samples 0, 3, 6, 9 are kept.
	if r.Rows() != 4 {
		t.Fatalf("rows = %d, want 4", r.Rows())
	}
	if r.Data().RowView(1)[0] != 3 {
		t.Errorf("second kept sample = %g, want 3", r.Data().RowView(1)[0])
	}
}

func TestRecorderDefaultKeepsAll(t *testing.T) {
	r, err := NewRecorder(0)
	if err != nil {
		t.Fatal(err)
	}
	xmeas := make([]float64, te.NumXMEAS)
	xmv := make([]float64, te.NumXMV)
	for i := 0; i < 5; i++ {
		if err := r.Record(xmeas, xmv); err != nil {
			t.Fatal(err)
		}
	}
	if r.Rows() != 5 {
		t.Errorf("rows = %d, want 5", r.Rows())
	}
}

func TestTwoViewTapSeesDecimatedPairs(t *testing.T) {
	tv, err := NewTwoView(3)
	if err != nil {
		t.Fatal(err)
	}
	type pair struct {
		idx        int
		ctrl, proc float64
	}
	var seen []pair
	tv.SetTap(func(idx int, ctrl, proc []float64) error {
		if len(ctrl) != NumVars || len(proc) != NumVars {
			t.Fatalf("tap rows %d/%d vars", len(ctrl), len(proc))
		}
		seen = append(seen, pair{idx, ctrl[0], proc[0]})
		return nil
	})
	cm := make([]float64, te.NumXMEAS)
	pm := make([]float64, te.NumXMEAS)
	xmv := make([]float64, te.NumXMV)
	for i := 0; i < 10; i++ {
		cm[0] = float64(i)
		pm[0] = float64(i) + 100
		if err := tv.Record(cm, xmv, pm, xmv); err != nil {
			t.Fatal(err)
		}
	}
	// Samples 0, 3, 6, 9 are retained and tapped, with contiguous indices.
	if len(seen) != 4 {
		t.Fatalf("tap saw %d pairs, want 4", len(seen))
	}
	for i, p := range seen {
		if p.idx != i {
			t.Errorf("tap index %d, want %d", p.idx, i)
		}
		if p.ctrl != float64(3*i) || p.proc != float64(3*i)+100 {
			t.Errorf("tap pair %d = (%g, %g), want (%g, %g)", i, p.ctrl, p.proc, float64(3*i), float64(3*i)+100)
		}
	}
}

func TestTwoViewNoRetainStreamsWithoutStorage(t *testing.T) {
	tv, err := NewTwoView(1)
	if err != nil {
		t.Fatal(err)
	}
	tv.SetRetain(false)
	taps := 0
	tv.SetTap(func(idx int, ctrl, proc []float64) error {
		taps++
		return nil
	})
	cm := make([]float64, te.NumXMEAS)
	xmv := make([]float64, te.NumXMV)
	for i := 0; i < 7; i++ {
		if err := tv.Record(cm, xmv, cm, xmv); err != nil {
			t.Fatal(err)
		}
	}
	if taps != 7 {
		t.Errorf("tap saw %d samples, want 7", taps)
	}
	if tv.Controller.Rows() != 0 || tv.Process.Rows() != 0 {
		t.Errorf("no-retain mode stored %d/%d rows", tv.Controller.Rows(), tv.Process.Rows())
	}
}

func TestTwoViewTapErrorPropagates(t *testing.T) {
	tv, err := NewTwoView(1)
	if err != nil {
		t.Fatal(err)
	}
	sentinel := errors.New("stop here")
	tv.SetTap(func(idx int, ctrl, proc []float64) error {
		if idx == 2 {
			return sentinel
		}
		return nil
	})
	cm := make([]float64, te.NumXMEAS)
	xmv := make([]float64, te.NumXMV)
	var got error
	for i := 0; i < 5 && got == nil; i++ {
		got = tv.Record(cm, xmv, cm, xmv)
	}
	if !errors.Is(got, sentinel) {
		t.Errorf("tap error not propagated: %v", got)
	}
}

func TestTwoViewRecords(t *testing.T) {
	tv, err := NewTwoView(1)
	if err != nil {
		t.Fatal(err)
	}
	cm := make([]float64, te.NumXMEAS)
	cx := make([]float64, te.NumXMV)
	pm := make([]float64, te.NumXMEAS)
	px := make([]float64, te.NumXMV)
	cm[0], pm[0] = 1, 2 // forged vs real
	if err := tv.Record(cm, cx, pm, px); err != nil {
		t.Fatal(err)
	}
	if tv.Controller.Data().RowView(0)[0] != 1 {
		t.Error("controller view wrong")
	}
	if tv.Process.Data().RowView(0)[0] != 2 {
		t.Error("process view wrong")
	}
}
