package harness

import (
	"fmt"
	"sort"

	"thermostat/internal/cgroup"
	"thermostat/internal/core"
	"thermostat/internal/mem"
	"thermostat/internal/obsv"
	"thermostat/internal/pool"
	"thermostat/internal/pricing"
	"thermostat/internal/report"
	"thermostat/internal/sim"
	"thermostat/internal/stats"
	"thermostat/internal/telemetry"
	"thermostat/internal/workload"
)

// Options configures an experiment.
type Options struct {
	// Scale is the size/time transform (default Repro()).
	Scale Scale
	// Apps restricts the application set (default workload.All()).
	Apps []workload.Spec
	// SlowdownPct is the Thermostat target (default 3).
	SlowdownPct float64
	// Workers bounds the goroutines fanning independent runs out: 0 uses
	// every core (GOMAXPROCS), 1 runs the exact old serial path. Results
	// are bit-for-bit identical at any setting — each run owns its own
	// machine and seeded RNG (see DESIGN.md's determinism contract).
	Workers int
	// Telemetry, when non-nil, attaches a collector to every RunAll run
	// and exports per-run trace files (Chrome trace + JSONL) under
	// Telemetry.Dir. Traces are in virtual time: byte-identical at any
	// Workers setting.
	Telemetry *TelemetryOptions
	// Publisher, when non-nil, tees every run's recorder stream into the
	// live observability plane (see internal/obsv). Strictly read-side:
	// exports stay byte-identical with or without it.
	Publisher *obsv.Publisher
}

func (o Options) withDefaults() Options {
	if o.Scale.Div == 0 {
		o.Scale = Repro()
	}
	if len(o.Apps) == 0 {
		o.Apps = workload.All()
	}
	if o.SlowdownPct == 0 {
		o.SlowdownPct = 3
	}
	return o
}

// AppRun pairs a Thermostat run with its all-DRAM baseline.
type AppRun struct {
	Base   *Outcome
	Thermo *Outcome
	// Slowdown is the measured throughput degradation (0.03 = 3%).
	Slowdown float64
	// ColdFraction is the mean post-warmup cold share of the footprint.
	ColdFraction float64
}

// RunAll executes the paired baseline/Thermostat runs for every app — the
// shared input of Figures 3 and 5-10 and Tables 3 and 4. The per-app pairs
// are independent and fan out across opt.Workers goroutines; the baseline
// and Thermostat runs of one app stay paired in a single task so the serial
// order within each pair is preserved.
func RunAll(opt Options) (map[string]*AppRun, error) {
	opt = opt.withDefaults()
	tasks := make([]pool.Task[*AppRun], len(opt.Apps))
	for i, spec := range opt.Apps {
		spec := spec
		tasks[i] = pool.Task[*AppRun]{Label: "runall/" + spec.Name, Run: func() (*AppRun, error) {
			var baseCol, thCol *telemetry.Collector
			var baseMutate, thMutate func(*sim.Config)
			var engMutate func(*cgroup.Group, *core.Engine)
			if opt.Telemetry != nil {
				baseCol = opt.Telemetry.NewCollector()
				thCol = opt.Telemetry.NewCollector()
				baseMutate = func(cfg *sim.Config) { cfg.Recorder = baseCol }
				thMutate = func(cfg *sim.Config) { cfg.Recorder = thCol }
			}
			if opt.Publisher != nil {
				// Tee through the publisher (collector may be nil; the
				// tee forwards only when it isn't).
				baseRec := opt.Publisher.Recorder(spec.Name+"/baseline", baseCol)
				thRec := opt.Publisher.Recorder(spec.Name+"/thermostat", thCol)
				baseMutate = func(cfg *sim.Config) { cfg.Recorder = baseRec }
				thMutate = func(cfg *sim.Config) { cfg.Recorder = thRec }
				engMutate = func(_ *cgroup.Group, eng *core.Engine) {
					eng.EnablePublish()
					opt.Publisher.AttachEngine(spec.Name+"/thermostat", eng)
				}
			}
			base, err := Run(RunSpec{Spec: spec, Scale: opt.Scale, PolicyName: "all-dram",
				ConfigHook: baseMutate})
			if err != nil {
				return nil, err
			}
			th, err := Run(RunSpec{Spec: spec, Scale: opt.Scale, PolicyName: "thermostat",
				SlowdownPct: opt.SlowdownPct, ConfigHook: thMutate, EngineHook: engMutate})
			if err != nil {
				return nil, err
			}
			if opt.Telemetry != nil {
				base.Telemetry, th.Telemetry = baseCol, thCol
				if _, _, err := opt.Telemetry.Export("runall-"+spec.Name+"-baseline", baseCol); err != nil {
					return nil, err
				}
				if _, _, err := opt.Telemetry.Export("runall-"+spec.Name+"-thermostat", thCol); err != nil {
					return nil, err
				}
			}
			return &AppRun{
				Base:         base,
				Thermo:       th,
				Slowdown:     sim.Slowdown(base.Result, th.Result),
				ColdFraction: th.Result.MeanColdFraction(opt.Scale.WarmupNs),
			}, nil
		}}
	}
	runs, err := pool.Map(opt.Workers, tasks)
	if err != nil {
		return nil, err
	}
	out := make(map[string]*AppRun, len(runs))
	for i, r := range runs {
		out[opt.Apps[i].Name] = r
	}
	return out, nil
}

// ---------------------------------------------------------------- Figure 1

// Fig1Result is the fraction of 2MB pages idle for the 10s-equivalent
// window, detected via hardware Accessed bits (the kstaled baseline).
type Fig1Result struct {
	Scale Scale
	// IdleFrac maps app name to idle fraction in [0, 1].
	IdleFrac map[string]float64
	order    []string
}

// Fig1 regenerates Figure 1.
func Fig1(opt Options) (*Fig1Result, error) {
	opt = opt.withDefaults()
	res := &Fig1Result{Scale: opt.Scale, IdleFrac: map[string]float64{}}
	// 10s of paper time is 10s·F of simulated time; detect idleness as 4
	// consecutive idle scans of window/4 each.
	const idleScans = 4
	window := 10e9 * opt.Scale.TimeDilate
	sc := opt.Scale
	sc.PeriodNs = window / idleScans
	// The run must span several idle windows regardless of profile.
	if sc.DurationNs < 3*window {
		sc.DurationNs = 3 * window
	}
	if sc.WarmupNs >= sc.DurationNs {
		sc.WarmupNs = sc.DurationNs / 5
	}
	tasks := make([]pool.Task[float64], len(opt.Apps))
	for i, spec := range opt.Apps {
		spec := spec
		tasks[i] = pool.Task[float64]{Label: "fig1/" + spec.Name, Run: func() (float64, error) {
			pol := &scanOnly{interval: sc.PeriodNs}
			if _, err := Run(RunSpec{Spec: spec, Scale: sc, Policy: pol}); err != nil {
				return 0, err
			}
			return pol.scanner.IdleFraction(idleScans), nil
		}}
	}
	fracs, err := pool.Map(opt.Workers, tasks)
	if err != nil {
		return nil, err
	}
	for i, spec := range opt.Apps {
		res.IdleFrac[spec.Name] = fracs[i]
		res.order = append(res.order, spec.Name)
	}
	return res, nil
}

// Table renders the result.
func (r *Fig1Result) Table() *report.Table {
	t := report.NewTable(
		"Figure 1: fraction of 2MB pages idle for 10s (Accessed-bit detection)",
		"application", "idle_fraction_pct")
	for _, name := range r.order {
		t.AddF(name, r.IdleFrac[name]*100)
	}
	return t
}

// Bar renders the result as an ASCII bar chart.
func (r *Fig1Result) Bar() string {
	var labels []string
	var vals []float64
	for _, name := range r.order {
		labels = append(labels, name)
		vals = append(vals, r.IdleFrac[name])
	}
	return report.Bar("Figure 1: 2MB pages idle for 10s", labels, vals, 50)
}

// NaiveResult quantifies what happens when the Figure 1 idle pages are
// actually placed in slow memory by an Accessed-bit-only policy — the
// paper's caption: for Redis the degradation exceeds 10%.
type NaiveResult struct {
	App          string
	Slowdown     float64
	ColdFraction float64
	Demotions    uint64
	Promotions   uint64
}

// NaivePlacement runs the idle-demote baseline on one app and measures the
// damage. The run is long enough to span several hot-set rotations, and any
// rotating picker is accelerated to twice the idle window (ratios between
// window, rotation and run length mirror the paper's 10s window against
// minutes of drift) — the idle set looks safe when placed and becomes hot
// afterwards, with no correction mechanism to undo the damage.
func NaivePlacement(spec workload.Spec, opt Options) (*NaiveResult, error) {
	opt = opt.withDefaults()
	const idleScans = 4
	sc := opt.Scale
	window := 10e9 * sc.TimeDilate
	sc.PeriodNs = window / idleScans
	if sc.DurationNs < 8*window {
		sc.DurationNs = 8 * window
	}
	sc.WarmupNs = 2 * window
	// Accelerate hot-set drift: rotation lands at 2x the idle window after
	// the harness's time dilation.
	for i := range spec.Segments {
		if p, ok := spec.Segments[i].Picker.(*workload.HotspotSweep); ok && p.RotatePeriodNs > 0 {
			p.RotatePeriodNs = 20e9
		}
	}
	// The paper's naive baseline has no correction mechanism: pages placed
	// on idle-bit evidence stay in slow memory. The all-DRAM reference and
	// the naive run are independent; fan them out.
	pol := &core.IdleDemote{Interval: sc.PeriodNs, IdleScans: idleScans, NoPromote: true}
	outs, err := pool.Map(opt.Workers, []pool.Task[*Outcome]{
		{Label: "naive/" + spec.Name + "/baseline", Run: func() (*Outcome, error) {
			return RunBaseline(spec, sc)
		}},
		{Label: "naive/" + spec.Name + "/idle-demote", Run: func() (*Outcome, error) {
			return Run(RunSpec{Spec: spec, Scale: sc, Policy: pol})
		}},
	})
	if err != nil {
		return nil, err
	}
	base, naive := outs[0], outs[1]
	return &NaiveResult{
		App:          spec.Name,
		Slowdown:     sim.Slowdown(base.Result, naive.Result),
		ColdFraction: naive.Result.MeanColdFraction(sc.WarmupNs),
		Demotions:    pol.Demotions(),
		Promotions:   pol.Promotions(),
	}, nil
}

// ---------------------------------------------------------------- Figure 2

// Fig2Point is one 2MB page in the Figure 2 scatter.
type Fig2Point struct {
	// HotRegions is the number of 4KB children accessed in three
	// consecutive scan intervals.
	HotRegions int
	// RatePerSec is the ground-truth memory access rate (paper units).
	RatePerSec float64
}

// Fig2Result is the Accessed-bit-vs-true-rate scatter for Redis.
type Fig2Result struct {
	Points []Fig2Point
	// Pearson is the correlation between the two axes; the paper's claim
	// is that it is weak.
	Pearson float64
}

// Fig2 regenerates Figure 2: split every huge page of Redis, scan Accessed
// bits at the maximum frequency compatible with the slowdown budget, and
// compare hot-region counts against the simulator's ground-truth access
// rates.
func Fig2(opt Options) (*Fig2Result, error) {
	opt = opt.withDefaults()
	spec := workload.Redis()
	sc := opt.Scale
	pol := &splitScan{interval: sc.PeriodNs}
	a, err := RunSpec{Spec: spec, Scale: sc, Policy: pol}.Assemble()
	if err != nil {
		return nil, err
	}
	a.Machine.EnablePageCounts()
	run, err := a.Run()
	if err != nil {
		return nil, err
	}
	counts := a.Machine.PageCounts()
	durSec := float64(run.Result.DurationNs) / 1e9
	out := &Fig2Result{}
	var xs, ys []float64
	for _, base := range pol.bases {
		hot := pol.scanner.HotSubpages(base, 3)
		rate := sc.PaperRate(float64(counts[base]) / durSec)
		out.Points = append(out.Points, Fig2Point{HotRegions: hot, RatePerSec: rate})
		xs = append(xs, float64(hot))
		ys = append(ys, rate)
	}
	out.Pearson = stats.Pearson(xs, ys)
	return out, nil
}

// Table renders the scatter points.
func (r *Fig2Result) Table() *report.Table {
	t := report.NewTable(
		fmt.Sprintf("Figure 2: Redis access rate vs Accessed-bit hot 4KB regions (Pearson r = %.3f)", r.Pearson),
		"hot_4k_regions", "true_accesses_per_sec")
	pts := append([]Fig2Point(nil), r.Points...)
	sort.Slice(pts, func(i, j int) bool { return pts[i].HotRegions < pts[j].HotRegions })
	for _, p := range pts {
		t.AddF(p.HotRegions, p.RatePerSec)
	}
	return t
}

// ---------------------------------------------------------------- Table 1

// Table1Row is one app's huge-page gain under virtualization.
type Table1Row struct {
	App string
	// GainPct is (2M/2M throughput / 4K/4K throughput - 1) · 100.
	GainPct float64
}

// Table1 regenerates Table 1: throughput gain from 2MB pages at both guest
// and host versus 4KB at both, under nested paging.
func Table1(opt Options) ([]Table1Row, error) {
	opt = opt.withDefaults()
	// Placement plays no role here; shorten the schedule.
	sc := opt.Scale
	sc.DurationNs /= 3
	if sc.WarmupNs >= sc.DurationNs {
		sc.WarmupNs = sc.DurationNs / 5
	}
	// Each arm runs with no placement policy and one page size at both
	// guest and host.
	pageMode := func(spec workload.Spec, huge bool) (*Outcome, error) {
		a, err := RunSpec{Spec: spec, Scale: sc, PolicyName: "all-dram",
			ConfigHook: func(cfg *sim.Config) { cfg.VM.HostHugePages = huge }}.Assemble()
		if err != nil {
			return nil, err
		}
		if !huge {
			a.App.DisableHugePages()
		}
		return a.Run()
	}
	grid := make([][]pool.Task[*Outcome], len(opt.Apps))
	for i, spec := range opt.Apps {
		spec := spec
		grid[i] = []pool.Task[*Outcome]{
			{Label: "table1/" + spec.Name + "/2M", Run: func() (*Outcome, error) {
				return pageMode(spec, true)
			}},
			{Label: "table1/" + spec.Name + "/4K", Run: func() (*Outcome, error) {
				return pageMode(spec, false)
			}},
		}
	}
	outs, err := pool.Grid(opt.Workers, grid)
	if err != nil {
		return nil, err
	}
	var rows []Table1Row
	for i, spec := range opt.Apps {
		huge, small := outs[i][0], outs[i][1]
		gain := huge.Result.Throughput/small.Result.Throughput - 1
		rows = append(rows, Table1Row{App: spec.Name, GainPct: gain * 100})
	}
	return rows, nil
}

// Table1Table renders the rows.
func Table1Table(rows []Table1Row) *report.Table {
	t := report.NewTable(
		"Table 1: throughput gain from 2MB huge pages under virtualization",
		"application", "gain_pct")
	for _, r := range rows {
		t.AddF(r.App, r.GainPct)
	}
	return t
}

// ---------------------------------------------------------------- Figure 3

// Fig3Series is one app's slow-memory access rate over time in paper units.
type Fig3Series struct {
	App string
	// Rate is accesses/sec (paper units) per window.
	Rate *stats.Series
	// MeanPostWarmup is the average rate after warmup.
	MeanPostWarmup float64
	// TargetRate is the x/(100·ts) line (30K/s at 3%, 1us).
	TargetRate float64
}

// Fig3 extracts the slow-memory access-rate series from completed runs.
func Fig3(runs map[string]*AppRun, opt Options) []Fig3Series {
	opt = opt.withDefaults()
	target := opt.SlowdownPct / 100 / 1e-6 // paper units: ts = 1us
	var out []Fig3Series
	for _, spec := range opt.Apps {
		run, ok := runs[spec.Name]
		if !ok {
			continue
		}
		conv := stats.NewSeries("slow_rate_" + spec.Name)
		for i, ts := range run.Thermo.Result.SlowRate.Times {
			conv.Append(ts, opt.Scale.PaperRate(run.Thermo.Result.SlowRate.Values[i]))
		}
		out = append(out, Fig3Series{
			App:            spec.Name,
			Rate:           conv,
			MeanPostWarmup: conv.MeanAfter(opt.Scale.WarmupNs),
			TargetRate:     target,
		})
	}
	return out
}

// Fig3Table renders the series side by side.
func Fig3Table(series []Fig3Series) *report.Table {
	ss := make([]*stats.Series, len(series))
	for i, s := range series {
		ss[i] = s.Rate
	}
	title := "Figure 3: slow memory access rate over time (accesses/sec, paper units)"
	if len(series) > 0 {
		title += fmt.Sprintf(" — target %.0f/s", series[0].TargetRate)
	}
	return report.SeriesTable(title, ss...)
}

// ---------------------------------------------------------------- Table 2

// Table2Row is one app's footprint.
type Table2Row struct {
	App    string
	RSSGB  float64
	FileGB float64
}

// Table2 measures end-of-run footprints in paper units (scaled back up).
func Table2(runs map[string]*AppRun, opt Options) []Table2Row {
	opt = opt.withDefaults()
	var rows []Table2Row
	for _, spec := range opt.Apps {
		run, ok := runs[spec.Name]
		if !ok {
			continue
		}
		rss, file := run.Thermo.App.FootprintBytes()
		rows = append(rows, Table2Row{
			App:    spec.Name,
			RSSGB:  float64(rss*opt.Scale.Div) / (1 << 30),
			FileGB: float64(file*opt.Scale.Div) / (1 << 30),
		})
	}
	return rows
}

// Table2Table renders the rows.
func Table2Table(rows []Table2Row) *report.Table {
	t := report.NewTable("Table 2: application memory footprints (paper units)",
		"application", "resident_set_gb", "file_mapped_gb")
	for _, r := range rows {
		t.AddF(r.App, r.RSSGB, r.FileGB)
	}
	return t
}

// ------------------------------------------------- Figures 5-10 (cold data)

// ColdDataFigure is one app's footprint-over-time breakdown plus the
// headline numbers the paper quotes in each figure caption.
type ColdDataFigure struct {
	App          string
	Slowdown     float64
	ColdFraction float64
	// Series are in paper-unit GB.
	Cold2M, Cold4K, Hot2M, Hot4K *stats.Series
}

// ColdData builds the Figure 5-10 artifacts from completed runs.
func ColdData(runs map[string]*AppRun, opt Options) []ColdDataFigure {
	opt = opt.withDefaults()
	toGB := func(name string, s *stats.Series) *stats.Series {
		out := stats.NewSeries(name)
		for i, ts := range s.Times {
			out.Append(ts, s.Values[i]*float64(opt.Scale.Div)/(1<<30))
		}
		return out
	}
	var out []ColdDataFigure
	for _, spec := range opt.Apps {
		run, ok := runs[spec.Name]
		if !ok {
			continue
		}
		r := run.Thermo.Result
		out = append(out, ColdDataFigure{
			App:          spec.Name,
			Slowdown:     run.Slowdown,
			ColdFraction: run.ColdFraction,
			Cold2M:       toGB("2MB_cold_GB", r.Cold2M),
			Cold4K:       toGB("4KB_cold_GB", r.Cold4K),
			Hot2M:        toGB("2MB_hot_GB", r.Hot2M),
			Hot4K:        toGB("4KB_hot_GB", r.Hot4K),
		})
	}
	return out
}

// Table renders one cold-data figure.
func (f ColdDataFigure) Table() *report.Table {
	title := fmt.Sprintf(
		"Cold data over time: %s (slowdown %.1f%%, mean cold fraction %.0f%%)",
		f.App, f.Slowdown*100, f.ColdFraction*100)
	return report.SeriesTable(title, f.Cold2M, f.Cold4K, f.Hot2M, f.Hot4K)
}

// ---------------------------------------------------------------- Figure 11

// Fig11Row is one app at one slowdown target.
type Fig11Row struct {
	App          string
	SlowdownPct  float64
	ColdFraction float64
	Measured     float64 // measured slowdown fraction
}

// fig11Targets are the tolerable-slowdown points the sweep visits.
var fig11Targets = []float64{3, 6, 10}

// Fig11 sweeps the tolerable-slowdown knob over {3, 6, 10}%. Every cell of
// the app × target grid (plus each app's all-DRAM reference) is an
// independent run; the whole grid fans out across opt.Workers goroutines
// and merges back in app-major, target-minor order.
func Fig11(opt Options) ([]Fig11Row, error) {
	opt = opt.withDefaults()
	grid := make([][]pool.Task[*Outcome], len(opt.Apps))
	for i, spec := range opt.Apps {
		spec := spec
		row := []pool.Task[*Outcome]{
			{Label: "fig11/" + spec.Name + "/baseline", Run: func() (*Outcome, error) {
				return RunBaseline(spec, opt.Scale)
			}},
		}
		for _, pct := range fig11Targets {
			pct := pct
			row = append(row, pool.Task[*Outcome]{
				Label: fmt.Sprintf("fig11/%s/%g%%", spec.Name, pct),
				Run: func() (*Outcome, error) {
					return RunThermostat(spec, opt.Scale, pct)
				}})
		}
		grid[i] = row
	}
	outs, err := pool.Grid(opt.Workers, grid)
	if err != nil {
		return nil, err
	}
	var rows []Fig11Row
	for i, spec := range opt.Apps {
		base := outs[i][0]
		for j, pct := range fig11Targets {
			th := outs[i][j+1]
			rows = append(rows, Fig11Row{
				App:          spec.Name,
				SlowdownPct:  pct,
				ColdFraction: th.Result.MeanColdFraction(opt.Scale.WarmupNs),
				Measured:     sim.Slowdown(base.Result, th.Result),
			})
		}
	}
	return rows, nil
}

// Fig11Table renders the sweep.
func Fig11Table(rows []Fig11Row) *report.Table {
	t := report.NewTable(
		"Figure 11: cold data fraction vs specified tolerable slowdown",
		"application", "target_slowdown_pct", "cold_fraction_pct", "measured_slowdown_pct")
	for _, r := range rows {
		t.AddF(r.App, r.SlowdownPct, r.ColdFraction*100, r.Measured*100)
	}
	return t
}

// ---------------------------------------------------------------- Table 3

// Table3Row is one app's migration traffic.
type Table3Row struct {
	App string
	// MigrationMBps is demotion traffic, false-classification is the
	// correction (promotion) traffic — both in paper-unit MB/s.
	MigrationMBps  float64
	FalseClassMBps float64
}

// Table3 extracts migration bandwidths from completed runs, converting to
// paper units: bytes scale back up by the footprint divisor, and the run's
// compressed timeline stretches back out by the scan-interval compression.
func Table3(runs map[string]*AppRun, opt Options) []Table3Row {
	opt = opt.withDefaults()
	var rows []Table3Row
	for _, spec := range opt.Apps {
		run, ok := runs[spec.Name]
		if !ok {
			continue
		}
		m := run.Thermo.Machine.Migrator().Meter()
		now := run.Thermo.Machine.Clock()
		conv := float64(opt.Scale.Div) / opt.Scale.PeriodCompression()
		rows = append(rows, Table3Row{
			App:            spec.Name,
			MigrationMBps:  m.RateMBps(mem.Demotion, now) * conv,
			FalseClassMBps: m.RateMBps(mem.Promotion, now) * conv,
		})
	}
	return rows
}

// Table3Table renders the rows.
func Table3Table(rows []Table3Row) *report.Table {
	t := report.NewTable("Table 3: migration and false-classification rates (MB/s, paper units)",
		"application", "migration_mbps", "false_classification_mbps")
	for _, r := range rows {
		t.AddF(r.App, r.MigrationMBps, r.FalseClassMBps)
	}
	return t
}

// ---------------------------------------------------------------- Table 4

// Table4Row is one app's memory cost savings across slow-memory price
// points.
type Table4Row struct {
	App string
	// SavingsPct is indexed like pricing.PaperRatios (1/3, 1/4, 1/5).
	SavingsPct [3]float64
}

// Table4 computes cost savings from the measured cold fractions.
func Table4(runs map[string]*AppRun, opt Options) ([]Table4Row, error) {
	opt = opt.withDefaults()
	var rows []Table4Row
	for _, spec := range opt.Apps {
		run, ok := runs[spec.Name]
		if !ok {
			continue
		}
		row := Table4Row{App: spec.Name}
		for i, ratio := range pricing.PaperRatios {
			s, err := pricing.Savings(run.ColdFraction, ratio)
			if err != nil {
				return nil, err
			}
			row.SavingsPct[i] = s * 100
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// Table4Table renders the rows.
func Table4Table(rows []Table4Row) *report.Table {
	t := report.NewTable("Table 4: memory spending savings vs all-DRAM",
		"application", "slow_cost_0.33x", "slow_cost_0.25x", "slow_cost_0.2x")
	for _, r := range rows {
		t.AddF(r.App,
			fmt.Sprintf("%.0f%%", r.SavingsPct[0]),
			fmt.Sprintf("%.0f%%", r.SavingsPct[1]),
			fmt.Sprintf("%.0f%%", r.SavingsPct[2]))
	}
	return t
}
