package main

import (
	"bufio"
	"encoding/gob"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"sort"
	"time"

	"pcsmon/internal/control"
	"pcsmon/internal/core"
	"pcsmon/internal/dataset"
	"pcsmon/internal/fieldbus"
	"pcsmon/internal/historian"
	"pcsmon/internal/plant"
	"pcsmon/internal/scenario"
)

// Plant geometry shared by every workload: 4.5 s simulation steps kept one
// in two, so one observation covers 9 s of plant time.
const (
	stepSeconds   = 4.5
	decimate      = 2
	sampleSeconds = stepSeconds * decimate
	warmupHours   = 60
	// components pins the PCA model size. Left to the 90 % variance rule
	// it follows each seed's calibration data (17 to 23 components were
	// seen), and the scoring work per observation with it.
	components = 20
)

// workload is one traffic mix the benchmark can run.
type workload struct {
	name string
	// units is the number of fieldbus units; anomalous of them replay a
	// §V scenario run, the rest NOC runs.
	units, anomalous int
	// onsetHour is when the §V anomalies begin in the pool runs, and the
	// config's onset_hour.
	onsetHour float64
	// nocHours is the simulated length of each NOC pool run; anomalyHours
	// bounds the scenario runs (they may trip earlier).
	nocHours, anomalyHours float64
	nocRuns                int
	// maxRows caps every unit's stream (0 = the whole pool run).
	maxRows int
	// calRuns × calHours of NOC operation form the calibration CSV.
	calRuns  int
	calHours float64
	// passes is the number of loaded service processes per run (socket
	// workloads); warmup is the opening stretch of each pass's fixed-rate
	// phase that carries no latency samples. On udp-redundant-record it
	// covers the ~2 s the pairing layer holds every unit whose first frames
	// arrive reordered, until its age horizon flushes them.
	passes int
	warmup float64
	// Service settings.
	transport string // "tcp", "udp" or "replay"
	emitEvery int
	dedup     int
	record    bool
}

var workloads = []*workload{
	{
		name: "tcp-steady", units: 64, anomalous: 8, onsetHour: 2,
		nocHours: 40, anomalyHours: 10, nocRuns: 4,
		calRuns: 2, calHours: 24,
		passes: 5, warmup: 0.5,
		transport: "tcp", emitEvery: 8,
	},
	{
		name: "udp-redundant-record", units: 256, anomalous: 32, onsetHour: 0.1,
		nocHours: 2, anomalyHours: 2, nocRuns: 4, maxRows: 400,
		calRuns: 2, calHours: 24,
		passes: 5, warmup: 2.5,
		transport: "udp", emitEvery: 2, dedup: 16384, record: true,
	},
	{
		name: "replay-attack-mix", units: 64, anomalous: 32, onsetHour: 0.5,
		nocHours: 3, anomalyHours: 4, nocRuns: 4, maxRows: 1000,
		calRuns: 2, calHours: 24,
		transport: "replay",
	},
}

func findWorkload(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// poolRun is one simulated plant run: both views, flattened row-major.
type poolRun struct {
	Key        string // scenario key ("noc" for normal operation)
	Rows       int
	Ctrl, Proc []float64
}

// inputs is everything a workload run feeds the service, derived from the
// seed alone. Units read a pool run plus their own deterministic noise, so
// no two units share rows while the pool stays small.
type inputs struct {
	Workload string
	Seed     int64
	Pool     []poolRun
	// UnitRun[u] indexes Pool; UnitRows[u] is the unit's stream length.
	UnitRun  []int
	UnitRows []int
	// Noise[j] is the half-width of the uniform noise added to column j.
	Noise []float64
}

// mix64 is the splitmix64 finalizer: a cheap, well-spread hash used to
// derive per-value noise from (seed, unit, row, view, column).
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// row writes unit u's observation i of one view (0 = controller view, the
// sensor frame; 1 = process view, the actuator frame) into dst.
func (in *inputs) row(u, i, view int, dst []float64) []float64 {
	run := &in.Pool[in.UnitRun[u]]
	src := run.Ctrl
	if view == 1 {
		src = run.Proc
	}
	src = src[i*historian.NumVars : (i+1)*historian.NumVars]
	if cap(dst) < historian.NumVars {
		dst = make([]float64, historian.NumVars)
	}
	dst = dst[:historian.NumVars]
	h := mix64(uint64(in.Seed)) ^ uint64(u)<<48 ^ uint64(i)<<8 ^ uint64(view)
	for j, v := range src {
		r := mix64(h ^ uint64(j)<<40)
		// 53 random bits → uniform [-1, 1).
		unit := float64(r>>11)/float64(1<<53)*2 - 1
		dst[j] = v + unit*in.Noise[j]
	}
	return dst
}

// frame fills f with unit u's observation i as a sensor (view 0) or
// actuator (view 1) frame. Sequence numbers start at 1.
func (in *inputs) frame(u, i, view int, f *fieldbus.Frame) {
	f.Type = fieldbus.FrameSensor
	if view == 1 {
		f.Type = fieldbus.FrameActuator
	}
	f.Unit = uint8(u)
	f.Seq = uint64(i) + 1
	f.Values = in.row(u, i, view, f.Values)
}

// views materializes the first n observations of unit u as the two
// datasets the batch analysis takes.
func (in *inputs) views(u, n int) (ctrl, proc *dataset.Dataset, err error) {
	names := historian.VarNames()
	if ctrl, err = dataset.New(names); err != nil {
		return nil, nil, err
	}
	if proc, err = dataset.New(names); err != nil {
		return nil, nil, err
	}
	buf := make([]float64, historian.NumVars)
	for i := 0; i < n; i++ {
		if err := ctrl.Append(in.row(u, i, 0, buf)); err != nil {
			return nil, nil, err
		}
		if err := proc.Append(in.row(u, i, 1, buf)); err != nil {
			return nil, nil, err
		}
	}
	return ctrl, proc, nil
}

// order lists the (unit, obs) pairs of units in round-robin order: every
// unit's next observation in turn, skipping units whose stream ended.
// limit caps each unit's observations (0 = its whole stream).
func (in *inputs) order(units []int, limit int) [][2]int {
	var out [][2]int
	for i := 0; ; i++ {
		any := false
		for _, u := range units {
			n := in.UnitRows[u]
			if limit > 0 && n > limit {
				n = limit
			}
			if i < n {
				out = append(out, [2]int{u, i})
				any = true
			}
		}
		if !any {
			return out
		}
	}
}

// paths of one run directory.
type runPaths struct {
	dir, calCSV, config, pool, capture, record string
}

func newRunPaths(dir string) runPaths {
	return runPaths{
		dir:     dir,
		calCSV:  filepath.Join(dir, "noc-process.csv"),
		config:  filepath.Join(dir, "serve.json"),
		pool:    filepath.Join(dir, "pool.gob"),
		capture: filepath.Join(dir, "capture", "chain"),
		record:  filepath.Join(dir, "record", "chain"),
	}
}

// seedFor derives an independent simulation seed for stream k of a run.
func seedFor(seed int64, k int) int64 {
	return int64(mix64(uint64(seed)*0x100000001b3+uint64(k)) >> 2)
}

// generate builds the workload's inputs from the seed: the calibration CSV,
// the serve config, the pool file the generator process loads, and (for
// the replay workload) the capture chain. Nothing here is timed.
func generate(w *workload, seed int64, rp runPaths) (*inputs, *core.System, error) {
	if err := os.MkdirAll(rp.dir, 0o755); err != nil {
		return nil, nil, err
	}
	tmpl, err := plant.NewTemplate(plant.Config{StepSeconds: stepSeconds, WarmupHours: warmupHours})
	if err != nil {
		return nil, nil, err
	}
	noc := scenario.Scenario{Key: "noc", Name: "normal operation", AttackedVar: -1}

	// Calibration campaign: NOC runs written as one process-view CSV.
	cal, err := dataset.New(historian.VarNames())
	if err != nil {
		return nil, nil, err
	}
	// Experiment.Feed only reads its system for drift scenarios, which no
	// workload uses; a short deterministic calibration satisfies it.
	feedSys, err := placeholderSystem(tmpl)
	if err != nil {
		return nil, nil, err
	}
	for k := 0; k < w.calRuns; k++ {
		run, err := simulate(tmpl, feedSys, noc, seedFor(seed, k), w.calHours, 0)
		if err != nil {
			return nil, nil, err
		}
		for i := 0; i < run.Rows; i++ {
			if err := cal.Append(run.Proc[i*historian.NumVars : (i+1)*historian.NumVars]); err != nil {
				return nil, nil, err
			}
		}
	}
	if err := writeCSV(rp.calCSV, cal); err != nil {
		return nil, nil, err
	}
	sys, err := calibrateFile(rp.calCSV, components)
	if err != nil {
		return nil, nil, err
	}

	in := &inputs{Workload: w.name, Seed: seed}
	stds := sys.Monitor().Scaler().Stds()
	in.Noise = make([]float64, historian.NumVars)
	for j, s := range stds {
		in.Noise[j] = 0.02 * s
	}
	// Pool: NOC runs, then every §V scenario twice.
	k := 100
	for i := 0; i < w.nocRuns; i++ {
		run, err := simulate(tmpl, feedSys, noc, seedFor(seed, k), w.nocHours, w.maxRows)
		if err != nil {
			return nil, nil, err
		}
		in.Pool = append(in.Pool, *run)
		k++
	}
	scs := scenario.PaperScenarios(w.onsetHour)
	const runsPerScenario = 2
	for rep := 0; rep < runsPerScenario; rep++ {
		for _, sc := range scs {
			run, err := simulate(tmpl, feedSys, sc, seedFor(seed, k), w.anomalyHours, w.maxRows)
			if err != nil {
				return nil, nil, err
			}
			in.Pool = append(in.Pool, *run)
			k++
		}
	}
	// Seeded choice of the anomalous units.
	rng := rand.New(rand.NewPCG(uint64(seed), 0x5eed))
	perm := rng.Perm(w.units)
	anom := append([]int(nil), perm[:w.anomalous]...)
	sort.Ints(anom)
	isAnom := map[int]int{}
	for rank, u := range anom {
		isAnom[u] = rank
	}
	nocSeen := 0
	for u := 0; u < w.units; u++ {
		var p int
		if rank, ok := isAnom[u]; ok {
			p = w.nocRuns + rank%(len(scs)*runsPerScenario)
		} else {
			p = nocSeen % w.nocRuns
			nocSeen++
		}
		in.UnitRun = append(in.UnitRun, p)
		in.UnitRows = append(in.UnitRows, in.Pool[p].Rows)
	}
	if err := writeGob(rp.pool, in); err != nil {
		return nil, nil, err
	}
	if err := writeConfig(w, rp); err != nil {
		return nil, nil, err
	}
	if w.transport == "replay" {
		if err := writeCapture(in, rp.capture); err != nil {
			return nil, nil, err
		}
	}
	return in, sys, nil
}

// simulate runs one scenario and keeps up to maxRows observations.
func simulate(tmpl *plant.Template, sys *core.System, sc scenario.Scenario, seed int64, hours float64, maxRows int) (*poolRun, error) {
	onset := 0.0
	for _, a := range sc.Attacks {
		onset = a.StartHour
	}
	for _, d := range sc.IDVs {
		onset = d.StartHour
	}
	exp := &scenario.Experiment{Template: tmpl, System: sys, Hours: hours, OnsetHour: onset, Decimate: decimate}
	run := &poolRun{Key: sc.Key}
	_, err := exp.Feed(sc, seed, func(i int, ctrl, proc []float64) error {
		if maxRows > 0 && run.Rows >= maxRows {
			return nil
		}
		run.Ctrl = append(run.Ctrl, ctrl...)
		run.Proc = append(run.Proc, proc...)
		run.Rows++
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("simulate %s seed %d: %w", sc.Key, seed, err)
	}
	return run, nil
}

// placeholderSystem calibrates on a short deterministic NOC run; it only
// satisfies Experiment's precondition that a system is present.
func placeholderSystem(tmpl *plant.Template) (*core.System, error) {
	cal, err := dataset.New(historian.VarNames())
	if err != nil {
		return nil, err
	}
	run, err := tmpl.NewRun(plant.RunConfig{Seed: 1, Decimate: decimate})
	if err != nil {
		return nil, err
	}
	views := run.Views()
	views.SetRetain(false)
	views.SetTap(func(_ int, _, proc []float64) error { return cal.Append(proc) })
	for run.Hours() < 2 {
		if err := run.Step(); err != nil {
			return nil, err
		}
	}
	return core.Calibrate(cal, core.Config{})
}

func writeCSV(path string, d *dataset.Dataset) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriterSize(f, 1<<20)
	if err := d.WriteCSV(bw); err != nil {
		_ = f.Close()
		return err
	}
	if err := bw.Flush(); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}

// calibrateFile is the reference calibration: the same CSV file and the
// same two calls the service makes.
func calibrateFile(path string, components int) (*core.System, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer func() { _ = f.Close() }()
	cal, err := dataset.ReadCSV(bufio.NewReaderSize(f, 1<<20))
	if err != nil {
		return nil, err
	}
	return core.Calibrate(cal, core.Config{Components: components})
}

func writeGob(path string, v any) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriterSize(f, 1<<20)
	if err := gob.NewEncoder(bw).Encode(v); err != nil {
		_ = f.Close()
		return err
	}
	if err := bw.Flush(); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}

func readInputs(path string) (*inputs, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer func() { _ = f.Close() }()
	var in inputs
	if err := gob.NewDecoder(bufio.NewReaderSize(f, 1<<20)).Decode(&in); err != nil {
		return nil, fmt.Errorf("read %s: %w", path, err)
	}
	return &in, nil
}

// serviceConfig is the control.Config document of a workload: every
// setting the service and the reference analysis share.
func serviceConfig(w *workload, rp runPaths) control.Config {
	cfg := control.Config{
		Calibration:   rp.calCSV,
		SampleSeconds: sampleSeconds,
		OnsetHour:     w.onsetHour,
		Components:    components,
		Ops:           control.Ops{Addr: "127.0.0.1:0", HealthzStallSeconds: -1},
		Pairing:       control.Pairing{Dedup: w.dedup},
		Fleet:         control.FleetCfg{EmitEvery: w.emitEvery},
	}
	switch w.transport {
	case "udp":
		cfg.Listeners.UDP = "127.0.0.1:0"
	default:
		// The replay workload keeps a TCP listener only so the document
		// validates; mspctool replay takes its onset and sample from it.
		cfg.Listeners.TCP = "127.0.0.1:0"
	}
	if w.record {
		cfg.Record = control.Record{Path: rp.record, SegmentBytes: recordSegmentBytes}
	}
	return cfg
}

// recordSegmentBytes rotates the recorded and the replayed chains.
const recordSegmentBytes = 4 << 20

func writeConfig(w *workload, rp runPaths) error {
	cfg := serviceConfig(w, rp)
	data, err := json.MarshalIndent(cfg, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(rp.config, data, 0o644)
}

// captureStamp is the capture-time stamp of the g-th observation of the
// round-robin stream: units are staggered across one 9 s plant sample.
func captureStamp(g, units int) time.Duration {
	return time.Duration(float64(g) * sampleSeconds / float64(units) * float64(time.Second))
}

// writeCapture records every unit's whole stream in round-robin order as a
// rotated, indexed segment chain — what a recording monitor leaves behind.
func writeCapture(in *inputs, base string) error {
	if err := os.MkdirAll(filepath.Dir(base), 0o755); err != nil {
		return err
	}
	st, err := fieldbus.OpenCaptureStore(base, fieldbus.StoreOptions{SegmentBytes: recordSegmentBytes, FlushEvery: -1})
	if err != nil {
		return err
	}
	units := make([]int, len(in.UnitRows))
	for u := range units {
		units[u] = u
	}
	var f fieldbus.Frame
	for g, p := range in.order(units, 0) {
		at := captureStamp(g, len(units))
		for view := 0; view < 2; view++ {
			in.frame(p[0], p[1], view, &f)
			if err := st.WriteAt(&f, at); err != nil {
				st.Abandon()
				return err
			}
		}
	}
	return st.Close()
}

// replayFlags derives mspctool replay's flags from the workload config,
// loaded back through control.Load like the oracle does.
func replayFlags(cfg *control.Config) []string {
	return []string{
		"-cal", cfg.Calibration,
		"-sample", fmt.Sprint(cfg.Sample().Seconds()),
		"-onset-hour", fmt.Sprint(cfg.OnsetHour),
		"-components", fmt.Sprint(cfg.Components),
	}
}

// totalRows sums the unit stream lengths.
func (in *inputs) totalRows() int {
	n := 0
	for _, r := range in.UnitRows {
		n += r
	}
	return n
}
