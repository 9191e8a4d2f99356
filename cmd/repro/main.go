// Command repro regenerates every figure and reported result of the paper
// from scratch: it warms up the plant, calibrates the two-view MSPC system
// on NOC runs, executes the four evaluation scenarios and writes text, CSV
// and SVG artifacts per figure into the output directory.
//
//	repro                 # fast scale (minutes on a laptop)
//	repro -scale paper    # the paper's protocol (30×72 h calibration, 10 runs/scenario, 1.8 s sampling)
//	repro -only fig4      # a single artifact
//
// Artifacts (in -out, default ./results):
//
//	fig1-*        example D/Q control charts under NOC (paper Fig. 1)
//	fig3-*        XMEAS(1) under IDV(6) vs the XMV(3) integrity attack (Fig. 3)
//	fig4-*        controller-view oMEDA per scenario (Fig. 4 a–d)
//	fig5-*        process-view oMEDA per scenario (Fig. 5 a–d)
//	arl.txt       detection/ARL table (§V text)
//	verdicts.txt  classifier verdict matrix (§V-A discussion)
//	ablations.txt sensitivity sweeps (components, run rule, SPE method)
//	summary.txt   everything above concatenated
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"pcsmon/internal/core"
	"pcsmon/internal/dataset"
	"pcsmon/internal/historian"
	"pcsmon/internal/mspc"
	"pcsmon/internal/plant"
	"pcsmon/internal/plot"
	"pcsmon/internal/scenario"
	"pcsmon/internal/te"
)

type config struct {
	out      string
	only     string
	step     float64
	warmup   float64
	calRuns  int
	calHours float64
	runs     int
	hours    float64
	onset    float64
	decimate int
	seed     int64
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "repro:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("repro", flag.ContinueOnError)
	var (
		out      = fs.String("out", "results", "output directory")
		scale    = fs.String("scale", "fast", "fast | paper")
		only     = fs.String("only", "all", "all | fig1 | fig3 | fig4 | fig5 | arl | verdicts | ablations")
		seed     = fs.Int64("seed", 1, "base random seed")
		calRuns  = fs.Int("calruns", 0, "override: calibration runs")
		calHours = fs.Float64("calhours", 0, "override: calibration run duration [h]")
		runs     = fs.Int("runs", 0, "override: runs per scenario")
		hours    = fs.Float64("hours", 0, "override: scenario run duration [h]")
		onset    = fs.Float64("onset", 0, "override: anomaly onset hour")
		step     = fs.Float64("step", 0, "override: plant sampling interval [s]")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	cfg := config{out: *out, only: *only, seed: *seed}
	switch *scale {
	case "fast":
		cfg.step, cfg.warmup = 4.5, 60
		cfg.calRuns, cfg.calHours = 5, 24
		cfg.runs, cfg.hours, cfg.onset = 5, 26, 10
		cfg.decimate = 2
	case "paper":
		cfg.step, cfg.warmup = 1.8, 60
		cfg.calRuns, cfg.calHours = 30, 72
		cfg.runs, cfg.hours, cfg.onset = 10, 72, 10
		cfg.decimate = 5
	default:
		return fmt.Errorf("unknown scale %q", *scale)
	}
	if *calRuns > 0 {
		cfg.calRuns = *calRuns
	}
	if *calHours > 0 {
		cfg.calHours = *calHours
	}
	if *runs > 0 {
		cfg.runs = *runs
	}
	if *hours > 0 {
		cfg.hours = *hours
	}
	if *onset > 0 {
		cfg.onset = *onset
	}
	if *step > 0 {
		cfg.step = *step
	}
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		return err
	}

	summary := &strings.Builder{}
	logf := func(format string, a ...any) {
		fmt.Printf(format, a...)
		fmt.Fprintf(summary, format, a...)
	}

	start := time.Now()
	logf("pcsmon repro — scale=%s  step=%.2gs  calibration=%d×%.0fh  runs/scenario=%d×%.0fh  onset=%.0fh\n\n",
		*scale, cfg.step, cfg.calRuns, cfg.calHours, cfg.runs, cfg.hours, cfg.onset)

	logf("[1/3] warming up plant (%.0f h)…\n", cfg.warmup)
	tmpl, err := plant.NewTemplate(plant.Config{StepSeconds: cfg.step, WarmupHours: cfg.warmup})
	if err != nil {
		return err
	}
	logf("      settled base: XMEAS(1)=%.4f kscmh, P=%.0f kPa, production=%.2f m³/h\n",
		tmpl.BaseXMEAS()[te.XmeasAFeed], tmpl.BaseXMEAS()[te.XmeasReactorPress],
		tmpl.BaseXMEAS()[te.XmeasStripUnderflw])

	logf("[2/3] calibrating MSPC on %d NOC runs…\n", cfg.calRuns)
	cal, err := scenario.Calibrate(tmpl, cfg.calRuns, cfg.calHours, cfg.decimate, cfg.seed, core.Config{})
	if err != nil {
		return err
	}
	sys := cal.System
	mon := sys.Monitor()
	logf("      %d observations, A=%d components, D99=%.2f Q99=%.2f\n\n",
		cal.Observations, mon.Model().NComponents(), mon.Limits().D99, mon.Limits().Q99)

	exp := &scenario.Experiment{
		Template:  tmpl,
		System:    sys,
		Hours:     cfg.hours,
		OnsetHour: cfg.onset,
		Decimate:  cfg.decimate,
		SeedBase:  cfg.seed + 100,
	}

	want := func(name string) bool { return cfg.only == "all" || cfg.only == name }

	logf("[3/3] experiments…\n")
	var results map[string]*scenario.Result
	needScenarios := want("fig4") || want("fig5") || want("arl") || want("verdicts")
	if needScenarios {
		results = make(map[string]*scenario.Result, 4)
		for _, sc := range scenario.PaperScenarios(cfg.onset) {
			logf("  scenario %-18s", sc.Key)
			r, err := exp.Run(sc, cfg.runs)
			if err != nil {
				return err
			}
			results[sc.Key] = r
			logf("detected %.0f%%  mean run length %-12v verdicts %v\n",
				r.DetectionRate*100, r.MeanRunLength.Round(time.Second), verdictsLine(r))
		}
		logf("\n")
	}

	if want("fig1") {
		if err := fig1(cfg, tmpl, sys, summary); err != nil {
			return err
		}
	}
	if want("fig3") {
		if err := fig3(cfg, tmpl, summary); err != nil {
			return err
		}
	}
	if want("fig4") {
		if err := omedaFigure(cfg, results, true, summary); err != nil {
			return err
		}
	}
	if want("fig5") {
		if err := omedaFigure(cfg, results, false, summary); err != nil {
			return err
		}
	}
	if want("arl") {
		if err := arlTable(cfg, results, summary); err != nil {
			return err
		}
	}
	if want("verdicts") {
		if err := verdictTable(cfg, results, summary); err != nil {
			return err
		}
	}
	if want("ablations") {
		if err := ablations(cfg, tmpl, summary); err != nil {
			return err
		}
	}

	logf("\ndone in %v; artifacts in %s/\n", time.Since(start).Round(time.Second), cfg.out)
	return os.WriteFile(filepath.Join(cfg.out, "summary.txt"), []byte(summary.String()), 0o644)
}

func verdictsLine(r *scenario.Result) string {
	keys := make([]string, 0, len(r.Verdicts))
	for v := range r.Verdicts {
		keys = append(keys, v.String())
	}
	sort.Strings(keys)
	parts := make([]string, 0, len(keys))
	for _, k := range keys {
		for v, n := range r.Verdicts {
			if v.String() == k {
				parts = append(parts, fmt.Sprintf("%s×%d", k, n))
			}
		}
	}
	return strings.Join(parts, " ")
}

// fig1: example control charts under NOC with 95 %/99 % limits.
func fig1(cfg config, tmpl *plant.Template, sys *core.System, summary io.Writer) error {
	run, err := tmpl.NewRun(plant.RunConfig{Seed: cfg.seed + 999, Decimate: cfg.decimate})
	if err != nil {
		return err
	}
	if _, err := run.RunHours(minF(cfg.hours, 24)); err != nil {
		return err
	}
	d, q, lim, err := sys.ChartSeries(run.Views().Controller.Data())
	if err != nil {
		return err
	}
	var text strings.Builder
	chart, err := plot.ASCIIChart("Figure 1 — D statistic (Hotelling T²) under NOC", d,
		map[string]float64{"99%": lim.D99, "95%": lim.D95}, 100, 14)
	if err != nil {
		return err
	}
	text.WriteString(chart)
	chart, err = plot.ASCIIChart("Figure 1 — Q statistic (SPE) under NOC", q,
		map[string]float64{"99%": lim.Q99, "95%": lim.Q95}, 100, 14)
	if err != nil {
		return err
	}
	text.WriteString(chart)
	if err := writeFile(cfg.out, "fig1-charts.txt", text.String()); err != nil {
		return err
	}
	svg, err := plot.SVGChart("Fig 1: D statistic under NOC (95%/99% limits)", d,
		map[string]float64{"UCL99": lim.D99, "UCL95": lim.D95}, 900, 360)
	if err != nil {
		return err
	}
	if err := writeFile(cfg.out, "fig1-d.svg", svg); err != nil {
		return err
	}
	svg, err = plot.SVGChart("Fig 1: Q statistic under NOC (95%/99% limits)", q,
		map[string]float64{"UCL99": lim.Q99, "UCL95": lim.Q95}, 900, 360)
	if err != nil {
		return err
	}
	if err := writeFile(cfg.out, "fig1-q.svg", svg); err != nil {
		return err
	}
	over := 0
	for _, v := range d {
		if v > lim.D99 {
			over++
		}
	}
	fmt.Fprintf(summary, "fig1: %d observations, %.2f%% above the 99%% D limit (nominal 1%%)\n",
		len(d), 100*float64(over)/float64(len(d)))
	fmt.Printf("  fig1 written (%d observations)\n", len(d))
	return nil
}

// fig3: XMEAS(1) trajectories under IDV(6) vs the XMV(3) integrity attack.
func fig3(cfg config, tmpl *plant.Template, summary io.Writer) error {
	mk := func(sc scenario.Scenario) (*plant.Run, error) {
		r, err := tmpl.NewRun(plant.RunConfig{
			Seed:     cfg.seed + 333,
			IDVs:     sc.IDVs,
			Attacks:  sc.Attacks,
			Decimate: cfg.decimate,
		})
		if err != nil {
			return nil, err
		}
		if _, err := r.RunHours(cfg.onset + 10); err != nil {
			return nil, err
		}
		return r, nil
	}
	scs := scenario.PaperScenarios(cfg.onset)
	idv6Run, err := mk(scs[0])
	if err != nil {
		return err
	}
	atkRun, err := mk(scs[1])
	if err != nil {
		return err
	}
	series := func(r *plant.Run) []float64 {
		d := r.Views().Process.Data()
		out := make([]float64, d.Rows())
		for i := 0; i < d.Rows(); i++ {
			out[i] = d.RowView(i)[te.XmeasAFeed]
		}
		return out
	}
	sIdv, sAtk := series(idv6Run), series(atkRun)
	text, err := plot.ASCIITimeSeries("Figure 3 — XMEAS(1) [kscmh]; anomaly at hour "+fmt.Sprintf("%.0f", cfg.onset),
		map[string][]float64{
			"(a) IDV(6)":                  sIdv,
			"(b) integrity attack XMV(3)": sAtk,
		}, 100, 12)
	if err != nil {
		return err
	}
	if err := writeFile(cfg.out, "fig3-xmeas1.txt", text); err != nil {
		return err
	}
	for name, s := range map[string][]float64{"fig3a-idv6.svg": sIdv, "fig3b-xmv3.svg": sAtk} {
		svg, err := plot.SVGChart("XMEAS(1) [kscmh]", s, nil, 900, 300)
		if err != nil {
			return err
		}
		if err := writeFile(cfg.out, name, svg); err != nil {
			return err
		}
	}
	// CSV with both trajectories.
	d, err := dataset.New([]string{"idv6", "xmv3attack"})
	if err != nil {
		return err
	}
	n := min(len(sIdv), len(sAtk))
	for i := 0; i < n; i++ {
		if err := d.Append([]float64{sIdv[i], sAtk[i]}); err != nil {
			return err
		}
	}
	var buf strings.Builder
	if err := d.WriteCSV(&buf); err != nil {
		return err
	}
	if err := writeFile(cfg.out, "fig3-xmeas1.csv", buf.String()); err != nil {
		return err
	}
	fmt.Fprintf(summary, "fig3: IDV(6) shutdown %.2fh after onset (%s); XMV(3) attack shutdown %.2fh after onset (%s)\n",
		idv6Run.Hours()-cfg.onset, idv6Run.ShutdownReason(),
		atkRun.Hours()-cfg.onset, atkRun.ShutdownReason())
	fmt.Printf("  fig3 written (shutdowns %.2fh / %.2fh after onset)\n",
		idv6Run.Hours()-cfg.onset, atkRun.Hours()-cfg.onset)
	return nil
}

// omedaFigure writes Fig. 4 (controller view) or Fig. 5 (process view).
func omedaFigure(cfg config, results map[string]*scenario.Result, controller bool, summary io.Writer) error {
	figure, view := "fig5", "process"
	if controller {
		figure, view = "fig4", "controller"
	}
	panels := []struct {
		letter, key string
	}{
		{"a", "idv6"},
		{"b", "xmv3-integrity"},
		{"c", "xmeas1-integrity"},
		{"d", "xmv3-dos"},
	}
	var text strings.Builder
	names := historian.VarNames()
	for _, p := range panels {
		r, ok := results[p.key]
		if !ok {
			return fmt.Errorf("missing scenario result %q", p.key)
		}
		prof := r.PooledOMEDAProc
		if controller {
			prof = r.PooledOMEDACtrl
		}
		if prof == nil {
			fmt.Fprintf(&text, "%s(%s) %s view: no detections — no oMEDA profile\n\n", figure, p.letter, view)
			continue
		}
		selNames, selVals := topBars(prof, 12)
		bars, err := plot.ASCIIBars(
			fmt.Sprintf("Figure %s(%s) — oMEDA, %s view: %s", strings.TrimPrefix(figure, "fig"), p.letter, view, r.Scenario.Name),
			selNames, selVals, 61)
		if err != nil {
			return err
		}
		text.WriteString(bars)
		text.WriteString("\n")
		svg, err := plot.SVGBars(fmt.Sprintf("oMEDA %s view — %s", view, r.Scenario.Name), names, prof, 1000, 360)
		if err != nil {
			return err
		}
		if err := writeFile(cfg.out, fmt.Sprintf("%s%s-%s.svg", figure, p.letter, p.key), svg); err != nil {
			return err
		}
		// CSV of the full profile.
		d, err := dataset.New([]string{"omeda"})
		if err != nil {
			return err
		}
		for _, v := range prof {
			if err := d.Append([]float64{v}); err != nil {
				return err
			}
		}
		var buf strings.Builder
		if err := d.WriteCSV(&buf); err != nil {
			return err
		}
		if err := writeFile(cfg.out, fmt.Sprintf("%s%s-%s.csv", figure, p.letter, p.key), buf.String()); err != nil {
			return err
		}
		top := topVarName(prof)
		fmt.Fprintf(summary, "%s(%s) %s view: dominant variable %s\n", figure, p.letter, view, top)
	}
	if err := writeFile(cfg.out, figure+"-omeda.txt", text.String()); err != nil {
		return err
	}
	fmt.Printf("  %s written\n", figure)
	return nil
}

func arlTable(cfg config, results map[string]*scenario.Result, summary io.Writer) error {
	var b strings.Builder
	fmt.Fprintf(&b, "Average run length (ARL) from anomaly onset to detection (run rule: 3 consecutive obs > 99%% limit)\n")
	fmt.Fprintf(&b, "%-20s %10s %16s %14s\n", "scenario", "detected", "mean run length", "shutdowns")
	for _, key := range []string{"idv6", "xmv3-integrity", "xmeas1-integrity", "xmv3-dos"} {
		r := results[key]
		shut := 0
		for _, run := range r.Runs {
			if run.Shutdown {
				shut++
			}
		}
		fmt.Fprintf(&b, "%-20s %9.0f%% %16v %10d/%d\n",
			key, r.DetectionRate*100, r.MeanRunLength.Round(time.Second), shut, len(r.Runs))
	}
	b.WriteString("\npaper: disturbance and integrity attacks detected almost immediately; DoS takes ~1 hour.\n")
	if err := writeFile(cfg.out, "arl.txt", b.String()); err != nil {
		return err
	}
	fmt.Fprint(summary, b.String())
	fmt.Printf("  arl table written\n")
	return nil
}

func verdictTable(cfg config, results map[string]*scenario.Result, summary io.Writer) error {
	var b strings.Builder
	fmt.Fprintf(&b, "Classifier verdicts per scenario (%d runs each)\n", cfg.runs)
	fmt.Fprintf(&b, "%-20s %-18s %9s  %s\n", "scenario", "expected", "correct", "verdict counts")
	for _, key := range []string{"idv6", "xmv3-integrity", "xmeas1-integrity", "xmv3-dos"} {
		r := results[key]
		fmt.Fprintf(&b, "%-20s %-18s %8.0f%%  %s\n",
			key, r.Scenario.Expected, r.Correct*100, verdictsLine(r))
	}
	// Localization accuracy for the attack scenarios.
	fmt.Fprintf(&b, "\nlocalization of the forged channel:\n")
	for _, key := range []string{"xmv3-integrity", "xmeas1-integrity", "xmv3-dos"} {
		r := results[key]
		hit := 0
		for _, run := range r.Runs {
			if run.Report.AttackedVar == r.Scenario.AttackedVar {
				hit++
			}
		}
		fmt.Fprintf(&b, "%-20s %d/%d runs pinned %s\n",
			key, hit, len(r.Runs), historian.VarName(r.Scenario.AttackedVar))
	}
	if err := writeFile(cfg.out, "verdicts.txt", b.String()); err != nil {
		return err
	}
	fmt.Fprint(summary, b.String())
	fmt.Printf("  verdict table written\n")
	return nil
}

// ablations: sensitivity of detection to the pipeline's knobs.
func ablations(cfg config, tmpl *plant.Template, summary io.Writer) error {
	var b strings.Builder
	runsPer := min(cfg.runs, 3)

	b.WriteString("Ablation 1 — number of principal components (IDV(6) + DoS scenarios)\n")
	fmt.Fprintf(&b, "%-6s %-6s %-22s %-22s\n", "A", "NOC-FA", "idv6 run length", "dos run length")
	for _, comps := range []int{2, 5, 10, 15} {
		line, err := ablationLine(cfg, tmpl, core.Config{Components: comps}, runsPer)
		if err != nil {
			return err
		}
		fmt.Fprintf(&b, "%-6d %s\n", comps, line)
	}

	b.WriteString("\nAblation 2 — run rule length k (3 = paper)\n")
	fmt.Fprintf(&b, "%-6s %-6s %-22s %-22s\n", "k", "NOC-FA", "idv6 run length", "dos run length")
	for _, k := range []int{1, 3, 5} {
		line, err := ablationLine(cfg, tmpl, core.Config{RunLength: k}, runsPer)
		if err != nil {
			return err
		}
		fmt.Fprintf(&b, "%-6d %s\n", k, line)
	}

	b.WriteString("\nAblation 3 — SPE control-limit method (99% limit value)\n")
	cal, err := scenario.Calibrate(tmpl, min(cfg.calRuns, 3), minF(cfg.calHours, 24), cfg.decimate, cfg.seed, core.Config{})
	if err != nil {
		return err
	}
	_ = cal
	for _, m := range []mspc.SPEMethod{mspc.SPEJacksonMudholkar, mspc.SPEBox} {
		c, err := scenario.Calibrate(tmpl, min(cfg.calRuns, 3), minF(cfg.calHours, 24), cfg.decimate, cfg.seed, core.Config{SPEMethod: m})
		if err != nil {
			return err
		}
		fmt.Fprintf(&b, "%-20s Q99 = %.3f\n", m, c.System.Monitor().Limits().Q99)
	}

	if err := writeFile(cfg.out, "ablations.txt", b.String()); err != nil {
		return err
	}
	fmt.Fprint(summary, b.String())
	fmt.Printf("  ablations written\n")
	return nil
}

// ablationLine calibrates with cfg2, measures the NOC false-alarm rate and
// the run lengths on IDV(6) and DoS.
func ablationLine(cfg config, tmpl *plant.Template, mcfg core.Config, runs int) (string, error) {
	cal, err := scenario.Calibrate(tmpl, min(cfg.calRuns, 3), minF(cfg.calHours, 24), cfg.decimate, cfg.seed, mcfg)
	if err != nil {
		return "", err
	}
	exp := &scenario.Experiment{
		Template:  tmpl,
		System:    cal.System,
		Hours:     cfg.onset + 8,
		OnsetHour: cfg.onset,
		Decimate:  cfg.decimate,
		SeedBase:  cfg.seed + 4000,
	}
	// NOC false alarms: a pure NOC "scenario" must yield VerdictNormal.
	noc, err := exp.Run(scenario.Scenario{Key: "noc", Name: "NOC", Expected: core.VerdictNormal, AttackedVar: -1}, runs)
	if err != nil {
		return "", err
	}
	fa := 0
	for _, r := range noc.Runs {
		if r.Report.Verdict != core.VerdictNormal {
			fa++
		}
	}
	scs := scenario.PaperScenarios(cfg.onset)
	idv6, err := exp.Run(scs[0], runs)
	if err != nil {
		return "", err
	}
	dos, err := exp.Run(scs[3], runs)
	if err != nil {
		return "", err
	}
	return fmt.Sprintf("%-6s %-22s %-22s",
		fmt.Sprintf("%d/%d", fa, runs),
		fmt.Sprintf("%v (det %.0f%%)", idv6.MeanRunLength.Round(time.Second), idv6.DetectionRate*100),
		fmt.Sprintf("%v (det %.0f%%)", dos.MeanRunLength.Round(time.Second), dos.DetectionRate*100)), nil
}

func topBars(vals []float64, n int) ([]string, []float64) {
	idx := make([]int, len(vals))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		va, vb := abs(vals[idx[a]]), abs(vals[idx[b]])
		return va > vb
	})
	if n > len(idx) {
		n = len(idx)
	}
	sel := append([]int(nil), idx[:n]...)
	sort.Ints(sel)
	names := make([]string, len(sel))
	out := make([]float64, len(sel))
	for i, j := range sel {
		names[i] = historian.VarName(j)
		out[i] = vals[j]
	}
	return names, out
}

func topVarName(vals []float64) string {
	best, bestAbs := -1, 0.0
	for j, v := range vals {
		if abs(v) > bestAbs {
			bestAbs = abs(v)
			best = j
		}
	}
	if best < 0 {
		return "none"
	}
	sign := "+"
	if vals[best] < 0 {
		sign = "−"
	}
	return historian.VarName(best) + " (" + sign + ")"
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

func minF(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}

func writeFile(dir, name, content string) error {
	return os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644)
}
