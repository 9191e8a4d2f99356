// Command mspctool runs the two-view MSPC pipeline over CSV data produced
// by tesim (or any 53-column dataset with the historian's header):
// calibrate on NOC data, monitor a run's controller and process views,
// print the detection/diagnosis report and optional ASCII charts.
//
// Example:
//
//	tesim -hours 24 -out noc
//	tesim -hours 24 -attack integrity:xmv:3:10:0 -out atk
//	mspctool -cal noc-process.csv -ctrl atk-controller.csv -proc atk-process.csv -onset-hour 10 -sample 4.5
//
// The watch subcommand turns the tool into an online monitor: it scores
// CSV rows as they arrive on stdin against a model calibrated from -cal,
// printing alarms the moment the run rule fires and the classified report
// at end of stream:
//
//	tesim -hours 24 -attack dos:xmv:3:10 -out live
//	mspctool watch -cal noc-process.csv -proc live-process.csv -sample 4.5 <live-controller.csv
//
// The fleet subcommand scales watch to many plants at once: interleaved
// "plant,<53 vars>" CSV rows on stdin (or fieldbus frames on a TCP
// listener and/or a lossy UDP listener, keyed by the frame's unit id) are
// demuxed into a scoring pool — one calibrated model, thousands
// of independent streams, per-plant verdicts plus aggregate throughput
// counters. With -record, every received frame is appended to a capture
// segment chain (plant.cap.00001.pcscap, ...):
//
//	mspctool fleet -cal noc-process.csv <interleaved.csv
//	mspctool fleet -cal noc-process.csv -listen 127.0.0.1:7700 -max-obs 100000
//	mspctool fleet -cal noc-process.csv -listen-udp 127.0.0.1:7701 -record plant.cap
//
// The replay subcommand plays a capture back through the same control
// plane at a configurable speed-up (the capture's timestamps also drive
// the pairing timeout, so mate-loss semantics are preserved at any
// speed):
//
//	mspctool replay -cal noc-process.csv -capture plant.cap -speed 100
//
// With -metrics, fleet and replay serve a shared ops endpoint: Prometheus
// text exposition on /metrics, liveness + stall detection on /healthz, a
// JSON per-unit health dump on /status and the net/http/pprof pages —
// plus, for frame-fed runs, the control plane's unauthenticated API. The
// status subcommand renders a running monitor's /status as a live
// per-unit table:
//
//	mspctool fleet -cal noc-process.csv -listen 127.0.0.1:7700 -metrics 127.0.0.1:9101
//	mspctool status -watch 2s 127.0.0.1:9101
package main

import (
	"encoding/csv"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"time"

	"pcsmon"
	"pcsmon/internal/control"
	"pcsmon/internal/core"
	"pcsmon/internal/dataset"
	"pcsmon/internal/fleet"
	"pcsmon/internal/historian"
	"pcsmon/internal/plot"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// run dispatches to the subcommand args name, or to the batch analysis,
// and prefixes the error once with the command that failed
// ("mspctool watch: ...", "mspctool: ..." for the batch analysis).
func run(args []string) error {
	subcommands := map[string]func([]string) error{
		"watch":  func(a []string) error { return runWatch(a, os.Stdin, os.Stdout) },
		"fleet":  func(a []string) error { return runFleet(a, os.Stdin, os.Stdout) },
		"replay": func(a []string) error { return runReplay(a, os.Stdout) },
		"status": func(a []string) error { return runStatus(a, os.Stdout) },
		"serve":  func(a []string) error { return runServe(a, os.Stdout) },
	}
	if len(args) > 0 && subcommands[args[0]] != nil {
		if err := subcommands[args[0]](args[1:]); err != nil {
			return fmt.Errorf("mspctool %s: %w", args[0], err)
		}
		return nil
	}
	if err := runBatch(args); err != nil {
		return fmt.Errorf("mspctool: %w", err)
	}
	return nil
}

// runBatch is the batch two-view analysis: calibrate, score both views of
// a recorded run and print the classified report.
func runBatch(args []string) error {
	fs := flag.NewFlagSet("mspctool", flag.ContinueOnError)
	var (
		calPath    = fs.String("cal", "", "NOC calibration CSV (required)")
		ctrlPath   = fs.String("ctrl", "", "controller-view CSV to monitor (required)")
		procPath   = fs.String("proc", "", "process-view CSV to monitor (defaults to -ctrl)")
		onsetHour  = fs.Float64("onset-hour", 0, "hour the anomaly was injected (for run-length accounting)")
		sampleSec  = fs.Float64("sample", 4.5, "observation interval of the monitored CSVs [s]")
		components = fs.Int("components", 0, "PCA components (0 = 90% cumulative variance rule)")
		charts     = fs.Bool("charts", false, "print ASCII control charts and oMEDA bars")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *calPath == "" || *ctrlPath == "" {
		fs.Usage()
		return fmt.Errorf("-cal and -ctrl are required: %w", pcsmon.ErrBadConfig)
	}
	if err := modelFlags(*sampleSec, *onsetHour, *components); err != nil {
		return err
	}
	if *procPath == "" {
		*procPath = *ctrlPath
	}

	ctrl, err := readCSV(*ctrlPath)
	if err != nil {
		return err
	}
	proc, err := readCSV(*procPath)
	if err != nil {
		return err
	}

	sys, err := control.Calibrate(*calPath, *components, os.Stdout)
	if err != nil {
		return err
	}

	sample := time.Duration(*sampleSec * float64(time.Second))
	onset := onsetIndex(*onsetHour, *sampleSec)
	rep, err := sys.AnalyzeViews(ctrl, proc, onset, sample)
	if err != nil {
		return err
	}
	printReport(rep)

	if *charts {
		if err := printCharts(sys, ctrl, rep); err != nil {
			return err
		}
	}
	return nil
}

// runWatch implements the watch subcommand: score CSV rows from stdin
// against a model calibrated from -cal, as an online monitor would —
// alarms print the moment the run rule fires, the classified report at end
// of stream. With -proc a process-view CSV is consumed in lockstep so the
// two-view diagnosis can localize forged channels; without it the stdin
// rows serve as both views (plain single-stream MSPC monitoring). The rows
// are scored as one stream on a one-worker pool, the same engine CSV fleet
// runs.
func runWatch(args []string, in io.Reader, out io.Writer) error {
	fs := flag.NewFlagSet("mspctool watch", flag.ContinueOnError)
	var (
		calPath     = fs.String("cal", "", "NOC calibration CSV (required)")
		procPath    = fs.String("proc", "", "process-view CSV read in lockstep with stdin")
		onsetHour   = fs.Float64("onset-hour", 0, "hour the anomaly was injected, if known")
		sampleSec   = fs.Float64("sample", 4.5, "observation interval of the monitored stream [s]")
		components  = fs.Int("components", 0, "PCA components (0 = 90% cumulative variance rule)")
		every       = fs.Int("every", 0, "print chart statistics every N observations (0 = alarms only)")
		adaptEvery  = fs.Int("adapt-every", 0, "refit the model every N in-control observations (0 = frozen model)")
		adaptForget = fs.Float64("adapt-forget", 0, "EWMA forget factor in (0,1] for adaptive refits (0 = default 0.999)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *calPath == "" {
		fs.Usage()
		return fmt.Errorf("-cal is required: %w", pcsmon.ErrBadConfig)
	}
	if err := modelFlags(*sampleSec, *onsetHour, *components); err != nil {
		return err
	}
	adaptive, err := adaptiveFlags(fs, *adaptEvery, *adaptForget)
	if err != nil {
		return err
	}
	cfg := &control.Config{
		Calibration:   *calPath,
		SampleSeconds: *sampleSec,
		OnsetHour:     *onsetHour,
		Components:    *components,
		Fleet:         control.FleetCfg{Workers: 1, EmitEvery: max(*every, 0)},
		Adapt:         adaptive,
	}
	rows := &watchRows{in: in, procPath: *procPath, out: out}
	defer rows.close()
	if err := (&scoring{cfg: cfg, pc: cfg.PoolConfig(), out: out}).run(rows); err != nil {
		return err
	}
	rep := rows.verdict.Report
	if rep == nil {
		return fmt.Errorf("no observations on stdin: %w", core.ErrBadInput)
	}
	fmt.Fprintf(out, "\nend of stream after %d observations\n\n", rows.verdict.Samples)
	fmt.Fprint(out, rep.Render())
	return nil
}

// watchRows is watch's rowFeed: stdin's rows are the controller view and
// -proc's, read in lockstep, the process view until they run out (stdin's
// rows serve both views without -proc). Every row belongs to one stream.
type watchRows struct {
	in       io.Reader
	procPath string
	out      io.Writer

	ctrl, proc *csvStream
	procFile   *os.File
	verdict    core.VerdictReady
}

func (w *watchRows) open() error {
	var err error
	if w.ctrl, err = newCSVStream(w.in, false); err != nil {
		return fmt.Errorf("stdin: %w", err)
	}
	if w.procPath == "" {
		return nil
	}
	if w.procFile, err = os.Open(w.procPath); err != nil {
		return err
	}
	if w.proc, err = newCSVStream(w.procFile, false); err != nil {
		return fmt.Errorf("%s: %w", w.procPath, err)
	}
	return nil
}

func (w *watchRows) close() {
	if w.procFile != nil {
		_ = w.procFile.Close()
	}
}

func (w *watchRows) next() (plant string, ctrl, proc []float64, err error) {
	_, crow, err := w.ctrl.next()
	if err == io.EOF {
		return "", nil, nil, err // end of stream
	}
	if err != nil {
		return "", nil, nil, fmt.Errorf("stdin: %w", err)
	}
	if w.proc == nil {
		return "stdin", crow, crow, nil
	}
	_, prow, err := w.proc.next()
	if err == io.EOF {
		return "stdin", crow, nil, nil // process view exhausted; keep watching stdin
	}
	if err != nil {
		return "", nil, nil, fmt.Errorf("%s: %w", w.procPath, err)
	}
	return "stdin", crow, prow, nil
}

func (w *watchRows) attached(string) {}

func (w *watchRows) event(ev fleet.Event) {
	switch e := ev.Event.(type) {
	case *core.SampleScored:
		fmt.Fprintf(w.out, "obs %6d  ctrl D=%8.2f Q=%8.2f   proc D=%8.2f Q=%8.2f\n",
			e.Index, e.CtrlD, e.CtrlQ, e.ProcD, e.ProcQ)
	case core.AlarmRaised:
		fmt.Fprintf(w.out, "ALARM [%s] at obs %d (run start %d, charts %v)\n",
			e.View, e.Index, e.RunStart, e.Charts)
	case core.ModelSwapped:
		fmt.Fprintf(w.out, "MODEL SWAP at obs %d -> generation %d (D99=%.2f Q99=%.2f)\n",
			e.Index, e.Generation, e.D99, e.Q99)
	case core.VerdictReady:
		w.verdict = e
	}
}

// modelFlags validates the sampling, onset and model-size flags shared by
// the batch, watch and fleet subcommands, wrapping pcsmon.ErrBadConfig, so
// a bad invocation fails before calibration.
func modelFlags(sampleSec, onsetHour float64, components int) error {
	switch {
	case sampleSec <= 0:
		return fmt.Errorf("-sample %g must be positive: %w", sampleSec, pcsmon.ErrBadConfig)
	case onsetHour < 0:
		return fmt.Errorf("-onset-hour %g must be >= 0: %w", onsetHour, pcsmon.ErrBadConfig)
	case components < 0:
		return fmt.Errorf("-components %d must be >= 0: %w", components, pcsmon.ErrBadConfig)
	}
	return nil
}

// adaptiveFlags validates and converts the shared -adapt-every/-adapt-forget
// flag pair (watch and fleet subcommands) into the pool's adapt block,
// wrapping pcsmon.ErrBadConfig on misuse.
func adaptiveFlags(fs *flag.FlagSet, every int, forget float64) (control.Adapt, error) {
	forgetSet := false
	fs.Visit(func(f *flag.Flag) {
		if f.Name == "adapt-forget" {
			forgetSet = true
		}
	})
	switch {
	case every < 0:
		return control.Adapt{}, fmt.Errorf("-adapt-every %d must be >= 0: %w", every, pcsmon.ErrBadConfig)
	case forgetSet && (forget <= 0 || forget > 1):
		return control.Adapt{}, fmt.Errorf("-adapt-forget %g must be in (0,1]: %w", forget, pcsmon.ErrBadConfig)
	case forgetSet && every == 0:
		return control.Adapt{}, fmt.Errorf("-adapt-forget requires -adapt-every: %w", pcsmon.ErrBadConfig)
	}
	return control.Adapt{Every: every, Forget: forget}, nil
}

// onsetIndex converts an anomaly onset in hours to a retained-observation
// index at the given sampling interval — the one geometry formula shared
// by the batch, watch and fleet subcommands.
func onsetIndex(onsetHour, sampleSec float64) int {
	return int(onsetHour * 3600 / sampleSec)
}

// csvStream reads a historian-format CSV one row at a time, reusing one
// row buffer — the streaming complement of dataset.ReadCSV. A keyed stream
// carries a plant-id column ahead of the variables (the fleet's
// interleaved "plant,<53 vars>" format).
type csvStream struct {
	r     *csv.Reader
	row   []float64
	line  int
	keyed bool
}

func newCSVStream(r io.Reader, keyed bool) (*csvStream, error) {
	cr := csv.NewReader(r)
	cr.ReuseRecord = true
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("read header: %w", err)
	}
	want := historian.NumVars
	if keyed {
		want++
	}
	if len(header) != want {
		return nil, fmt.Errorf("stream has %d columns, want %d", len(header), want)
	}
	return &csvStream{r: cr, row: make([]float64, historian.NumVars), line: 1, keyed: keyed}, nil
}

// next parses the next row into its plant id (empty unless keyed) and
// variables. The returned slice is reused on the next call.
func (s *csvStream) next() (string, []float64, error) {
	rec, err := s.r.Read()
	if err != nil {
		return "", nil, err // io.EOF passes through untouched
	}
	s.line++
	var key string
	off := 0
	if s.keyed {
		if key = rec[0]; key == "" {
			return "", nil, fmt.Errorf("line %d: empty plant id", s.line)
		}
		off = 1
	}
	for j, f := range rec[off:] {
		v, err := strconv.ParseFloat(f, 64)
		if err != nil {
			return "", nil, fmt.Errorf("line %d field %d %q: not a number", s.line, off+j+1, f)
		}
		s.row[j] = v
	}
	return key, s.row, nil
}

func readCSV(path string) (*dataset.Dataset, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer func() { _ = f.Close() }()
	d, err := dataset.ReadCSV(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return d, nil
}

func printReport(rep *core.Report) {
	fmt.Println()
	fmt.Print(rep.Render())
}

func printCharts(sys *core.System, ctrl *dataset.Dataset, rep *core.Report) error {
	d, q, lim, err := sys.ChartSeries(ctrl)
	if err != nil {
		return err
	}
	chart, err := plot.ASCIIChart("controller view: D statistic", d,
		map[string]float64{"99%": lim.D99, "95%": lim.D95}, 100, 14)
	if err != nil {
		return err
	}
	fmt.Println(chart)
	chart, err = plot.ASCIIChart("controller view: Q statistic", q,
		map[string]float64{"99%": lim.Q99, "95%": lim.Q95}, 100, 14)
	if err != nil {
		return err
	}
	fmt.Println(chart)

	for _, v := range []struct {
		name string
		va   core.ViewAnalysis
	}{{"controller", rep.Controller}, {"process", rep.Process}} {
		if v.va.OMEDA == nil {
			continue
		}
		names, vals := topBars(v.va.OMEDA, 12)
		bars, err := plot.ASCIIBars("oMEDA ("+v.name+" view, top 12)", names, vals, 61)
		if err != nil {
			return err
		}
		fmt.Println(bars)
	}
	return nil
}

// topBars selects the n largest-|value| variables, in variable order.
func topBars(vals []float64, n int) ([]string, []float64) {
	idx := make([]int, len(vals))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		va, vb := vals[idx[a]], vals[idx[b]]
		if va < 0 {
			va = -va
		}
		if vb < 0 {
			vb = -vb
		}
		return va > vb
	})
	if n > len(idx) {
		n = len(idx)
	}
	sel := append([]int(nil), idx[:n]...)
	sort.Ints(sel)
	names := make([]string, n)
	out := make([]float64, n)
	for i, j := range sel {
		names[i] = historian.VarName(j)
		out[i] = vals[j]
	}
	return names, out
}
