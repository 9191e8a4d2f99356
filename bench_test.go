// Benchmark harness: one benchmark per paper artifact (Figures 1, 3, 4, 5
// and the §V ARL/verdict results) plus micro-benchmarks of the building
// blocks. The figure benchmarks regenerate the corresponding artifact's
// computation per iteration against a shared, lazily built lab fixture;
// cmd/repro produces the actual files.
//
// Run with:
//
//	go test -bench=. -benchmem
package pcsmon_test

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"pcsmon"
	"pcsmon/internal/core"
	"pcsmon/internal/dataset"
	"pcsmon/internal/fieldbus"
	"pcsmon/internal/fleet"
	"pcsmon/internal/historian"
	"pcsmon/internal/mat"
	"pcsmon/internal/mspc"
	"pcsmon/internal/obs"
	"pcsmon/internal/pca"
	"pcsmon/internal/plant"
	"pcsmon/internal/scenario"
	"pcsmon/internal/te"
)

// The shared fixture: a warmed template, a calibrated system, and the four
// paper scenarios' run data at reduced scale.
type benchFixture struct {
	lab     *pcsmon.Lab
	results map[string]*scenario.Result
	nocCtrl *dataset.Dataset
	nocProc *dataset.Dataset
}

var (
	fixOnce sync.Once
	fixErr  error
	fix     *benchFixture
)

const (
	benchOnset = 4.0
	benchHours = 16.0
	benchRuns  = 2
)

func fixture(b *testing.B) *benchFixture {
	b.Helper()
	fixOnce.Do(func() {
		lab, err := pcsmon.NewLab(pcsmon.LabConfig{
			CalibrationRuns:  3,
			CalibrationHours: 16,
			Seed:             42,
		})
		if err != nil {
			fixErr = err
			return
		}
		f := &benchFixture{lab: lab, results: make(map[string]*scenario.Result, 4)}
		for _, sc := range pcsmon.PaperScenarios(benchOnset) {
			r, err := lab.RunScenarioFor(sc, benchRuns, benchHours)
			if err != nil {
				fixErr = err
				return
			}
			f.results[sc.Key] = r
		}
		// One NOC run's views for chart/verdict benchmarks.
		run, err := lab.Template.NewRun(plant.RunConfig{Seed: 4242, Decimate: 2})
		if err != nil {
			fixErr = err
			return
		}
		if _, err := run.RunHours(8); err != nil {
			fixErr = err
			return
		}
		f.nocCtrl = run.Views().Controller.Data()
		f.nocProc = run.Views().Process.Data()
		fix = f
	})
	if fixErr != nil {
		b.Fatalf("fixture: %v", fixErr)
	}
	return fix
}

// BenchmarkFig01_ControlChart regenerates the Figure 1 computation: the
// D and Q statistic series with control limits over a NOC run.
func BenchmarkFig01_ControlChart(b *testing.B) {
	f := fixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d, q, lim, err := f.lab.System.ChartSeries(f.nocCtrl)
		if err != nil {
			b.Fatal(err)
		}
		if len(d) == 0 || len(q) == 0 || lim.D99 <= 0 {
			b.Fatal("empty chart")
		}
	}
	b.ReportMetric(float64(f.nocCtrl.Rows()), "obs/op")
}

// BenchmarkFig03_Xmeas1Trajectories regenerates the Figure 3 computation:
// a closed-loop run under IDV(6) producing the XMEAS(1) trajectory until
// detection horizon.
func BenchmarkFig03_Xmeas1Trajectories(b *testing.B) {
	f := fixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run, err := f.lab.Template.NewRun(plant.RunConfig{
			Seed:     int64(i),
			IDVs:     []plant.IDVEvent{{Index: 5, StartHour: 0.5}},
			Decimate: 2,
		})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := run.RunHours(2); err != nil {
			b.Fatal(err)
		}
		d := run.Views().Process.Data()
		if d.RowView(d.Rows() - 1)[te.XmeasAFeed] > 0.05 {
			b.Fatal("A feed did not collapse under IDV(6)")
		}
	}
}

// benchOMEDA regenerates a Figure 4/5 panel: pooled oMEDA over the first
// out-of-control observations of a scenario's runs.
func benchOMEDA(b *testing.B, controller bool) {
	f := fixture(b)
	// Pool the diagnosis windows exactly as the scenario runner does.
	var rows [][]float64
	for _, out := range f.results["idv6"].Runs {
		if controller {
			rows = append(rows, out.FirstOOCCtrl...)
		} else {
			rows = append(rows, out.FirstOOCProc...)
		}
	}
	if len(rows) == 0 {
		b.Fatal("no out-of-control rows pooled")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		prof, err := f.lab.System.DiagnoseGroup(rows)
		if err != nil {
			b.Fatal(err)
		}
		if len(prof) != historian.NumVars {
			b.Fatal("bad profile")
		}
	}
	b.ReportMetric(float64(len(rows)), "pooled-obs/op")
}

// BenchmarkFig04_OMEDAController regenerates a Figure 4 panel
// (controller-view oMEDA).
func BenchmarkFig04_OMEDAController(b *testing.B) { benchOMEDA(b, true) }

// BenchmarkFig05_OMEDAProcess regenerates a Figure 5 panel (process-view
// oMEDA).
func BenchmarkFig05_OMEDAProcess(b *testing.B) { benchOMEDA(b, false) }

// BenchmarkTab_ARL regenerates the §V run-length measurement over a
// scenario run's controller view.
func BenchmarkTab_ARL(b *testing.B) {
	f := fixture(b)
	view := f.results["xmv3-integrity"].Runs[0]
	_ = view
	// Rebuild the rows once (engineering-unit observations).
	ctrl := f.nocCtrl
	rows := make([][]float64, ctrl.Rows())
	for i := range rows {
		rows[i] = ctrl.RowView(i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := mspc.MeasureRunLength(f.lab.System.Monitor(), rows, 10, mspc.DefaultRunLength, 9*time.Second)
		if err != nil {
			b.Fatal(err)
		}
		if res.FalseAlarm && res.Detected {
			b.Fatal("inconsistent result")
		}
	}
	b.ReportMetric(float64(len(rows)), "obs/op")
}

// BenchmarkTab_Verdicts regenerates the §V-A classification: the full
// two-view analysis of one run.
func BenchmarkTab_Verdicts(b *testing.B) {
	f := fixture(b)
	onsetIdx := int(benchOnset * 3600 / 9)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := f.lab.System.AnalyzeViews(f.nocCtrl, f.nocProc, onsetIdx, 9*time.Second)
		if err != nil {
			b.Fatal(err)
		}
		if rep.Verdict != core.VerdictNormal {
			b.Fatalf("NOC classified as %v", rep.Verdict)
		}
	}
}

// BenchmarkAbl_Components measures the cost of recalibrating the MSPC
// model at different model orders from a fixed covariance (the ablation
// sweep's inner loop).
func BenchmarkAbl_Components(b *testing.B) {
	f := fixture(b)
	acc, err := mat.NewCovAccumulator(historian.NumVars)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < f.nocProc.Rows(); i++ {
		if err := acc.Add(f.nocProc.RowView(i)); err != nil {
			b.Fatal(err)
		}
	}
	cov, err := acc.Covariance()
	if err != nil {
		b.Fatal(err)
	}
	means := acc.Means()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := []int{2, 5, 10, 15}[i%4]
		if _, err := core.CalibrateCov(cov, means, acc.N(), core.Config{Components: a}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAbl_RunRule measures detection with different run-rule lengths
// over a fixed stream (the ablation sweep's other axis).
func BenchmarkAbl_RunRule(b *testing.B) {
	f := fixture(b)
	rows := make([][]float64, f.nocCtrl.Rows())
	for i := range rows {
		rows[i] = f.nocCtrl.RowView(i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := []int{1, 3, 5}[i%3]
		if _, err := mspc.MeasureRunLength(f.lab.System.Monitor(), rows, 0, k, 9*time.Second); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Streaming vs batch ---

// benchScenarioRun measures one full scenario run end to end (simulate +
// analyze). With earlyStop the streaming path halts the simulation shortly
// after the alarm; the samples/op metric shows the work saved against the
// full-run batch protocol.
func benchScenarioRun(b *testing.B, earlyStop bool) {
	f := fixture(b)
	sc := pcsmon.PaperScenarios(benchOnset)[1] // integrity on XMV(3)
	exp := &scenario.Experiment{
		Template:  f.lab.Template,
		System:    f.lab.System,
		Hours:     benchHours,
		OnsetHour: benchOnset,
		Decimate:  2,
		SeedBase:  31337,
		Workers:   1,
		EarlyStop: earlyStop,
	}
	b.ResetTimer()
	var samples int
	for i := 0; i < b.N; i++ {
		res, err := exp.Run(sc, 1)
		if err != nil {
			b.Fatal(err)
		}
		samples = res.Runs[0].Samples
		if earlyStop && !res.Runs[0].Stopped {
			b.Fatal("early-stop run was not stopped")
		}
	}
	b.ReportMetric(float64(samples), "samples/op")
}

// BenchmarkScenario_BatchFullRun simulates the full horizon, records both
// views and analyzes afterwards — the paper's offline protocol.
func BenchmarkScenario_BatchFullRun(b *testing.B) { benchScenarioRun(b, false) }

// BenchmarkScenario_StreamEarlyStop fuses simulation and monitoring and
// stops as soon as the verdict is settled.
func BenchmarkScenario_StreamEarlyStop(b *testing.B) { benchScenarioRun(b, true) }

// BenchmarkOnlineAnalyzerStream measures the incremental analysis path over
// a prerecorded run (per-observation scoring cost and allocations),
// comparable to BenchmarkTab_Verdicts for the batch wrapper.
func BenchmarkOnlineAnalyzerStream(b *testing.B) {
	f := fixture(b)
	onsetIdx := int(benchOnset * 3600 / 9)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		oa, err := f.lab.System.NewOnlineAnalyzer(onsetIdx, 9*time.Second)
		if err != nil {
			b.Fatal(err)
		}
		for r := 0; r < f.nocCtrl.Rows(); r++ {
			if _, err := oa.Push(f.nocCtrl.RowView(r), f.nocProc.RowView(r)); err != nil {
				b.Fatal(err)
			}
		}
		if _, err := oa.Finish(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(f.nocCtrl.Rows()), "obs/op")
}

// --- Fleet throughput ---

// BenchmarkFleetThroughput measures aggregate scoring throughput of the
// sharded fleet engine across a GOMAXPROCS × stream-count matrix: per op,
// S streams are attached to one pool, fed 200 paired NOC observations each
// (interleaved round-robin from a few producer goroutines, as a demuxed
// fleet feed arrives) and detached. Each gomaxprocs level pins the runtime
// for its sub-benchmarks, so the matrix measures multi-core scaling on any
// host (levels above the machine's CPU count time-slice and should stay
// flat, not degrade — that flatness is the contention check). obs/sec is
// the scalability metric the ROADMAP's raw-speed item asks for;
// BENCH_fleet.json records the baseline.
func BenchmarkFleetThroughput(b *testing.B) {
	f := fixture(b)
	perStream := 200
	if f.nocCtrl.Rows() < perStream {
		perStream = f.nocCtrl.Rows()
	}
	ctrlRows := make([][]float64, perStream)
	procRows := make([][]float64, perStream)
	for i := range ctrlRows {
		ctrlRows[i] = f.nocCtrl.RowView(i)
		procRows[i] = f.nocProc.RowView(i)
	}
	for _, cores := range []int{1, 2, 4, 8} {
		for _, streams := range []int{1, 8, 64, 512} {
			benchFleetMatrixCell(b, f, cores, streams, perStream, ctrlRows, procRows, false)
		}
	}
}

// BenchmarkFleetThroughputMetrics is the same matrix with the full
// observability stack attached (metrics registry, scoring-latency
// histogram, per-unit health) — compare against BenchmarkFleetThroughput
// with benchstat to measure the instrumentation cost. The scoring path
// stays zero-alloc with metrics on (see
// TestSteadyStateZeroAllocPerObservation/metrics); the recorded wall-clock
// overhead is a few percent, within the <5% budget the observability work
// set.
func BenchmarkFleetThroughputMetrics(b *testing.B) {
	f := fixture(b)
	perStream := 200
	if f.nocCtrl.Rows() < perStream {
		perStream = f.nocCtrl.Rows()
	}
	ctrlRows := make([][]float64, perStream)
	procRows := make([][]float64, perStream)
	for i := range ctrlRows {
		ctrlRows[i] = f.nocCtrl.RowView(i)
		procRows[i] = f.nocProc.RowView(i)
	}
	for _, cores := range []int{1, 2, 4, 8} {
		for _, streams := range []int{1, 8, 64, 512} {
			benchFleetMatrixCell(b, f, cores, streams, perStream, ctrlRows, procRows, true)
		}
	}
}

// benchFleetMatrixCell runs one (gomaxprocs, streams) cell of the fleet
// throughput matrix, optionally with the observability stack attached. It
// drives internal/fleet's Pool directly — the scoring pool the control
// plane and mspctool run on.
func benchFleetMatrixCell(b *testing.B, f *benchFixture, cores, streams, perStream int, ctrlRows, procRows [][]float64, withObs bool) {
	b.Run(fmt.Sprintf("gomaxprocs=%d/streams=%d", cores, streams), func(b *testing.B) {
		prev := runtime.GOMAXPROCS(cores)
		defer runtime.GOMAXPROCS(prev)
		ids := make([]string, streams)
		for s := range ids {
			ids[s] = fmt.Sprintf("plant-%04d", s)
		}
		producers := 4
		if streams < producers {
			producers = streams
		}
		b.ReportAllocs()
		b.ResetTimer()
		for n := 0; n < b.N; n++ {
			cfg := fleet.Config{
				EmitEvery: -1,
				Sample:    9 * time.Second,
			}
			if withObs {
				cfg.Metrics, cfg.Health = obs.NewRegistry(), obs.NewHealthRegistry()
			}
			fl, err := fleet.NewPool(f.lab.System, cfg)
			if err != nil {
				b.Fatal(err)
			}
			drained := make(chan struct{})
			go func() {
				for range fl.Events() {
				}
				close(drained)
			}()
			errCh := make(chan error, producers)
			var wg sync.WaitGroup
			for p := 0; p < producers; p++ {
				wg.Add(1)
				go func(p int) {
					defer wg.Done()
					for s := p; s < streams; s += producers {
						if err := fl.Attach(ids[s], 0); err != nil {
							errCh <- err
							return
						}
					}
					for i := 0; i < perStream; i++ {
						for s := p; s < streams; s += producers {
							if err := fl.Push(ids[s], ctrlRows[i], procRows[i]); err != nil {
								errCh <- err
								return
							}
						}
					}
					for s := p; s < streams; s += producers {
						if _, err := fl.Detach(ids[s]); err != nil {
							errCh <- err
							return
						}
					}
				}(p)
			}
			wg.Wait()
			if err := fl.Close(); err != nil {
				b.Fatal(err)
			}
			<-drained
			select {
			case err := <-errCh:
				b.Fatal(err)
			default:
			}
		}
		scored := float64(b.N) * float64(streams*perStream)
		if sec := b.Elapsed().Seconds(); sec > 0 {
			b.ReportMetric(scored/sec, "obs/sec")
			b.ReportMetric(scored/sec/float64(cores), "obs/sec/core")
		}
		b.ReportMetric(float64(streams*perStream), "obs/op")
	})
}

// --- Micro-benchmarks of the substrates ---

// BenchmarkTEStep measures one closed-loop plant step (process + control +
// fieldbus + recording).
func BenchmarkTEStep(b *testing.B) {
	f := fixture(b)
	run, err := f.lab.Template.NewRun(plant.RunConfig{Seed: 7, Decimate: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := run.Step(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMSPCCompute measures one D/Q statistic evaluation (the per-
// observation monitoring cost).
func BenchmarkMSPCCompute(b *testing.B) {
	f := fixture(b)
	row := f.nocCtrl.RowView(100)
	mon := f.lab.System.Monitor()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mon.Compute(row); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPCAFit measures fitting the 53-variable PCA model from a
// covariance matrix (the calibration hot spot).
func BenchmarkPCAFit(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	x := mat.MustNew(500, historian.NumVars)
	for i := 0; i < 500; i++ {
		base := rng.NormFloat64()
		for j := 0; j < historian.NumVars; j++ {
			x.Set(i, j, base+0.5*rng.NormFloat64())
		}
	}
	cov, err := mat.Covariance(x)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pca.FitCov(cov, 500, 10); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEigenSym53 measures the Jacobi eigendecomposition at the
// monitoring problem's size.
func BenchmarkEigenSym53(b *testing.B) {
	rng := rand.New(rand.NewSource(10))
	n := historian.NumVars
	a := mat.MustNew(n, n)
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			v := rng.NormFloat64()
			a.Set(i, j, v)
			a.Set(j, i, v)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := mat.EigenSym(a); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFieldbusRoundTrip measures one frame marshal+unmarshal at the
// XMEAS block size — the per-sample wire cost.
func BenchmarkFieldbusRoundTrip(b *testing.B) {
	values := make([]float64, te.NumXMEAS)
	for i := range values {
		values[i] = float64(i) * 1.1
	}
	f := &fieldbus.Frame{Type: fieldbus.FrameSensor, Seq: 1, Values: values}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		data, err := f.MarshalTo(nil)
		if err != nil {
			b.Fatal(err)
		}
		if err := (&fieldbus.Frame{}).UnmarshalInto(data); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOMEDASingleGroup measures one oMEDA diagnosis of a 20-row
// group.
func BenchmarkOMEDASingleGroup(b *testing.B) {
	f := fixture(b)
	rows := make([][]float64, 20)
	for i := range rows {
		rows[i] = f.nocCtrl.RowView(i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := f.lab.System.DiagnoseGroup(rows); err != nil {
			b.Fatal(err)
		}
	}
}
