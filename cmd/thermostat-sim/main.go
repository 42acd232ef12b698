// Command thermostat-sim runs one application model under a chosen
// placement policy and reports throughput, slowdown-relevant counters, and
// the hot/cold footprint over time:
//
//	thermostat-sim -app redis -policy thermostat -slowdown 3
//	thermostat-sim -app cassandra-write-heavy -policy idle-demote
//	thermostat-sim -app mysql-tpcc -policy all-dram -duration 60
//
// Passing -footprint rescales the application model to a target total size,
// and -sparse/-shard-workers select the region-grain page table and sharded
// tracker scans that keep terabyte footprints simulable (see DESIGN.md,
// "Scaling to terabytes"; results are identical at any -shard-workers):
//
//	thermostat-sim -app scale-synth -footprint 1T -sparse -shard-workers 8
//
// Passing -tiers runs the engine over an N-tier hierarchy instead of the
// paper's two tiers, and additionally reports the per-tier-pair migration
// traffic matrix and the per-tier cost breakdown:
//
//	thermostat-sim -app redis -tiers dram,cxl,nvm -slowdown 3
//
// Passing -tenants runs several application models as co-located tenants of
// one machine: each tenant gets its own cgroup and scoped engine, and a
// fleet arbiter redistributes the shared DRAM pool between them every
// sample period (-slowdown is each tenant's SLO):
//
//	thermostat-sim -tenants redis,mysql-tpcc,web-search -slowdown 5
//
// Passing -serve (or -pprof) starts the live observability plane for the
// duration of the run: Prometheus /metrics, /status, /tenants, a
// memtierd-style /dump?what=accessed census, pprof and expvar — strictly
// read-side, so exports stay byte-identical (see DESIGN.md):
//
//	thermostat-sim -app redis -serve localhost:9090 &
//	curl -s localhost:9090/metrics
package main

import (
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"strings"
	"time"

	"thermostat/internal/cgroup"
	"thermostat/internal/core"
	"thermostat/internal/daemon"
	"thermostat/internal/harness"
	"thermostat/internal/mem"
	"thermostat/internal/obsv"
	"thermostat/internal/pool"
	"thermostat/internal/report"
	"thermostat/internal/sim"
	"thermostat/internal/telemetry"
	"thermostat/internal/workload"
)

// logger is the process-wide structured logger, configured by -log-format
// in main before any run starts.
var logger = slog.New(slog.NewTextHandler(os.Stderr, nil))

func main() {
	var (
		appFlag   = flag.String("app", "redis", "application model (see -list)")
		polFlag   = flag.String("policy", "thermostat", "thermostat, idle-demote, all-dram, or a placement policy ("+strings.Join(core.PolicyNames(), ", ")+") composed with -tracker")
		trkFlag   = flag.String("tracker", "", "access tracker for composition policies ("+strings.Join(core.TrackerNames(), ", ")+"; default poison)")
		slowdown  = flag.Float64("slowdown", 3, "tolerable slowdown percent (thermostat)")
		idleSecs  = flag.Float64("idle-window", 10, "idle window seconds (idle-demote)")
		scaleName = flag.String("scale", "repro", "scale profile: tiny, bench, repro")
		footprint = flag.String("footprint", "", "rescale the application model to this total footprint (e.g. 64G, 1T; binary units)")
		sparse    = flag.Bool("sparse", false, "use the sparse region-grain page table (cold spans collapse into summaries; exports unchanged)")
		shardWork = flag.Int("shard-workers", 0, "goroutines for sharded tracker scans (0/1 = serial; results are identical at any setting)")
		duration  = flag.Float64("duration", 0, "override run length in (simulated) seconds")
		seed      = flag.Uint64("seed", 1, "random seed")
		tiersFlag = flag.String("tiers", "", "comma-separated device presets for an N-tier run, fastest first (presets: "+strings.Join(mem.PresetNames(), ", ")+")")
		tenFlag   = flag.String("tenants", "", "comma-separated application models to run as co-located tenants under fleet DRAM arbitration (-slowdown is each tenant's SLO)")
		workers   = flag.Int("workers", 0, "goroutines for the baseline+policy run pair (0 = all cores, 1 = serial; results are identical at any setting)")
		list      = flag.Bool("list", false, "list application models and exit")
		traceOut  = flag.String("trace", "", "write a Chrome trace_event JSON file of the policy run (open in Perfetto)")
		metrics   = flag.String("metrics", "", "write per-epoch metric snapshots of the policy run as JSONL")
		epochs    = flag.Bool("epochs", false, "print the per-epoch metric table for the policy run")
		serveAddr = flag.String("serve", "", "serve the live observability plane (/metrics, /status, /tenants, /dump, pprof) on this address (e.g. localhost:9090) for the duration of the run")
		pprofAddr = flag.String("pprof", "", "additional address for the same observability server (kept for compatibility; e.g. localhost:6060)")
		logFormat = flag.String("log-format", "text", "progress log format: text or json")
		chaosRate = flag.Float64("chaos-rate", 0, "per-site fault injection probability for the policy run, 0..1 (0 disables; needs a migrating policy)")
		chaosSeed = flag.Uint64("chaos-seed", 1, "seed for the fault injector's dedicated RNG stream")
		chaosPerm = flag.Float64("chaos-permanent", 0, "fraction of injected migration faults that are permanent, 0..1")
	)
	flag.Parse()

	if *list {
		for _, s := range workload.All() {
			fmt.Println(s.Name)
		}
		fmt.Println("aerospike-write-heavy")
		fmt.Println("cassandra-read-heavy")
		return
	}

	o := options{
		App: *appFlag, Policy: *polFlag, Tracker: *trkFlag, Scale: *scaleName,
		Slowdown: *slowdown, IdleSecs: *idleSecs, Duration: *duration, Seed: *seed,
		Tiers: *tiersFlag, Tenants: *tenFlag, Workers: *workers,
		ChaosRate: *chaosRate, ChaosSeed: *chaosSeed, ChaosPerm: *chaosPerm,
		Trace: *traceOut, Metrics: *metrics, Epochs: *epochs,
		Serve: *serveAddr, Pprof: *pprofAddr, LogFormat: *logFormat,
		Footprint: *footprint, Sparse: *sparse, ShardWorkers: *shardWork,
	}
	if err := validate(o); err != nil {
		fatal(err)
	}
	cfg := o.config()
	logger, _ = obsv.NewLogger(os.Stderr, *logFormat) // format vetted above
	tracker := *trkFlag
	if tracker == "" {
		tracker = "poison"
	}

	// The observability plane serves on every requested address (-serve and
	// -pprof are the same full server: metrics + status + pprof + expvar).
	var pub *obsv.Publisher
	if *serveAddr != "" || *pprofAddr != "" {
		pub = obsv.NewPublisher()
		pub.SetInfo(obsv.Info{
			Binary: "thermostat-sim", App: *appFlag, Tracker: tracker,
			Policy: *polFlag, Scale: *scaleName, Seed: *seed, Workers: *workers,
		})
		var servers []*obsv.Server
		for _, addr := range serveAddrs(*serveAddr, *pprofAddr) {
			srv, bound, err := obsv.Serve(addr, pub)
			if err != nil {
				fatal(err)
			}
			servers = append(servers, srv)
			logger.Info("observability server listening",
				"addr", "http://"+bound, "endpoints", "/metrics /healthz /status /tenants /dump /debug/pprof")
		}
		// ^C or SIGTERM drains in-flight scrapes before exiting instead of
		// cutting connections mid-response.
		stop := obsv.ShutdownOnSignal(5*time.Second, logger, servers...)
		defer stop()
		pub.SetPhase(obsv.PhaseRunning)
		defer pub.SetPhase(obsv.PhaseDone)
	}

	run := runSingle
	if len(cfg.Tenants) > 0 {
		run = runFleet
	}
	if err := run(os.Stdout, cfg, pub); err != nil {
		fatal(err)
	}
}

// runSingle runs cfg's one application — on the paper's two tiers next to
// its all-DRAM baseline, or alone on a -tiers hierarchy — writes the
// requested telemetry exports, and prints the reports to w.
func runSingle(w io.Writer, cfg daemon.Config, pub *obsv.Publisher) error {
	// A collector attaches to the policy run when any telemetry output was
	// requested. Events are recorded in virtual time, so the files are
	// byte-identical at any -workers setting — and unchanged by -serve,
	// whose publisher tee is strictly read-side.
	tel := cfg.Telemetry
	var col *telemetry.Collector
	if tel.Trace != "" || tel.Metrics != "" || tel.Epochs {
		col = telemetry.NewCollector()
	}
	runLabel := cfg.App + "/" + cfg.Policy
	var rec telemetry.Recorder
	if pub != nil {
		rec = pub.Recorder(runLabel, col)
	} else if col != nil {
		rec = col
	}
	// Chaos, like the recorder, applies only to the policy run; the
	// all-DRAM baseline arm never migrates and stays uninjected.
	rs, err := cfg.RunSpec(rec)
	if err != nil {
		return err
	}
	if pub != nil {
		rs.EngineHook = func(_ *cgroup.Group, eng *core.Engine) {
			eng.EnablePublish()
			pub.AttachEngine(runLabel, eng)
		}
	}

	var base, outcome *harness.Outcome
	if len(rs.Tiers) > 0 {
		logger.Info("running N-tier hierarchy", "app", rs.Spec.Name,
			"tiers", strings.Join(cfg.Tiers, ","), "target_pct", cfg.SlowdownPct)
		if outcome, err = harness.Run(rs); err != nil {
			return err
		}
	} else {
		// The all-DRAM baseline and the policy run are independent
		// simulations; fan the pair out across -workers goroutines.
		logger.Info("running baseline + policy pair", "app", rs.Spec.Name, "policy", cfg.Policy)
		outs, err := pool.Map(cfg.Workers, []pool.Task[*harness.Outcome]{
			{Label: rs.Spec.Name + "/baseline", Run: func() (*harness.Outcome, error) {
				return harness.RunBaseline(rs.Spec, rs.Scale)
			}},
			{Label: runLabel, Run: func() (*harness.Outcome, error) { return harness.Run(rs) }},
		})
		if err != nil {
			return err
		}
		base, outcome = outs[0], outs[1]
	}

	if err := writeTelemetry(w, tel, col); err != nil {
		return err
	}
	if base == nil {
		return printNTier(w, cfg, outcome)
	}
	res := outcome.Result
	fp := res.FinalFootprint
	summary := report.NewTable("Run summary", "metric", "value")
	summary.AddF("application", rs.Spec.Name)
	summary.AddF("policy", res.PolicyName)
	summary.AddF("simulated_seconds", float64(res.DurationNs)/1e9)
	summary.AddF("ops", res.Ops)
	summary.AddF("throughput_ops_per_s", res.Throughput)
	summary.AddF("baseline_ops_per_s", base.Result.Throughput)
	summary.AddF("slowdown_pct", sim.Slowdown(base.Result, res)*100)
	summary.AddF("cold_fraction_pct", fp.ColdFraction()*100)
	summary.AddF("cold_2m_mb", float64(fp.Cold2M)/(1<<20))
	summary.AddF("cold_4k_mb", float64(fp.Cold4K)/(1<<20))
	summary.AddF("hot_2m_mb", float64(fp.Hot2M)/(1<<20))
	summary.AddF("slow_accesses", res.Metrics.SlowAccesses)
	summary.AddF("poison_faults", res.Metrics.PoisonFaults)
	summary.AddF("tlb_miss_rate", res.Metrics.TLB.MissRate())
	summary.AddF("llc_miss_rate", res.Metrics.LLC.MissRate())
	// §4.4: Thermostat's scan/sort work runs on spare cores; report its CPU
	// share of one core over the run.
	summary.AddF("daemon_cpu_core_share", float64(outcome.Machine.DaemonNs())/float64(res.DurationNs))
	if outcome.Engine != nil {
		st := outcome.Engine.Stats()
		summary.AddF("pages_sampled", st.Sampled)
		summary.AddF("demotions", st.Demotions)
		summary.AddF("promotions_corrections", st.Promotions)
	}
	if cfg.Chaos.Rate > 0 {
		f := outcome.Faults
		summary.AddF("chaos_faults_injected", f.Injected)
		summary.AddF("chaos_faults_permanent", f.Permanent)
		summary.AddF("migration_retries", f.Retried)
		summary.AddF("migration_rollbacks", f.RolledBack)
		summary.AddF("pages_quarantined", f.Quarantined)
		if f.Quarantined > 0 {
			logger.Warn("chaos quarantined pages this run",
				"quarantined", f.Quarantined, "injected", f.Injected)
		}
	}
	fmt.Fprintln(w, summary.String())

	fmt.Fprintln(w, report.SeriesTable("Footprint over time (bytes)",
		res.Cold2M, res.Cold4K, res.Hot2M, res.Hot4K).String())
	return nil
}

// serveAddrs deduplicates the -serve/-pprof addresses, preserving order.
func serveAddrs(addrs ...string) []string {
	var out []string
	seen := map[string]bool{}
	for _, a := range addrs {
		if a == "" || seen[a] {
			continue
		}
		seen[a] = true
		out = append(out, a)
	}
	return out
}

// runFleet runs cfg's tenants as co-located application models of one
// machine under fleet DRAM arbitration and prints the per-tenant report to
// w: each tenant's SLO is -slowdown, its engine the -tracker × -policy
// composition, and its measured slowdown comes from a solo all-DRAM
// baseline of the same workload (fanned across -workers). The fleet runs
// at the scale, and with the chaos injection, of the config's run
// translation.
func runFleet(w io.Writer, cfg daemon.Config, pub *obsv.Publisher) error {
	rs, err := cfg.RunSpec(nil)
	if err != nil {
		return err
	}
	tracker, policy := cfg.Tracker, cfg.Policy
	if tracker == "" {
		tracker = "poison"
	}
	if policy == "thermostat" {
		// The paper's arm is the poison+threshold composition.
		tracker, policy = "poison", "threshold"
	}
	var tenants []harness.FleetTenant
	for _, name := range cfg.Tenants {
		spec, _ := workload.ByName(strings.TrimSpace(name))
		// Leave Name empty: the harness default ("<spec>-<i>") keeps cgroup
		// names unique even when the same model is listed twice.
		tenants = append(tenants, harness.FleetTenant{
			Spec: spec, SLOPct: cfg.SlowdownPct, Tracker: tracker, Policy: policy,
		})
	}
	tel := cfg.Telemetry
	opt := harness.FleetOptions{
		Scale: rs.Scale, Tenants: tenants, Workers: cfg.Workers, Baselines: true,
		Publisher: pub, ConfigMutate: rs.ConfigHook,
	}
	if tel.Trace != "" || tel.Metrics != "" || tel.Epochs {
		opt.Telemetry = &harness.TelemetryOptions{}
	}
	logger.Info("running tenants under fleet arbitration",
		"tenants", len(tenants), "apps", strings.Join(cfg.Tenants, ","))
	fo, err := harness.FleetRun(opt)
	if err != nil {
		return err
	}
	if err := writeTelemetry(w, tel, fo.Telemetry); err != nil {
		return err
	}

	// The fleet interleave time-shares the machine, so tenant throughput is
	// not comparable to the solo baseline's (that deficit is mostly
	// sharing, not memory slowdown); the solo all-DRAM tput is shown raw
	// for reference and the SLO verdict comes from the engine's estimate.
	r := fo.Result
	tbl := report.NewTable("Fleet run: per-tenant summary",
		"tenant", "slo%", "est_slow%", "sl_ok", "ops", "tput/s",
		"solo_dram_tput/s", "grant_mb", "fast_mb", "foot_mb")
	for _, tr := range r.Tenants {
		status := "meets"
		if tr.Rejected {
			status = "rejected"
		} else if tr.MeanSlowdownPct > tr.SLOPct {
			status = "MISSES"
		}
		solo := "-"
		if b := fo.Baselines[tr.Name]; b != nil {
			solo = fmt.Sprintf("%.0f", b.Throughput)
		}
		tbl.AddF(tr.Name, fmt.Sprintf("%.1f", tr.SLOPct),
			fmt.Sprintf("%.2f", tr.MeanSlowdownPct), status,
			tr.Ops, fmt.Sprintf("%.0f", tr.Throughput), solo,
			fmt.Sprintf("%.0f", float64(tr.GrantBytes)/(1<<20)),
			fmt.Sprintf("%.0f", float64(tr.FastBytes)/(1<<20)),
			fmt.Sprintf("%.0f", float64(tr.FootprintBytes)/(1<<20)))
	}
	fmt.Fprintln(w, tbl.String())

	fp := r.Global.FinalFootprint
	fmt.Fprintf(w, "pool %.0f MB, %d arbiter periods; fleet placement %.0f MB hot / %.0f MB cold (%.1f%% cold)\n",
		float64(r.PoolBytes)/(1<<20), r.Periods,
		float64(fp.Hot2M+fp.Hot4K)/(1<<20), float64(fp.Cold())/(1<<20),
		100*fp.ColdFraction())
	if sv, err := harness.FleetSavings(fo); err == nil {
		fmt.Fprintf(w, "fleet-wide DRAM cost saving vs all-DRAM provisioning: %.1f%%\n", 100*sv)
	}
	return nil
}

// printNTier prints an N-tier outcome's reports: run summary, per-tier-pair
// migration traffic, per-tier cost.
func printNTier(w io.Writer, cfg daemon.Config, out *harness.Outcome) error {
	rep, err := harness.AnalyzeNTier(out)
	if err != nil {
		return err
	}
	res := out.Result
	st := out.Engine.Stats()
	summary := report.NewTable("Run summary", "metric", "value")
	summary.AddF("application", out.Spec.Name)
	summary.AddF("tiers", strings.Join(cfg.Tiers, ","))
	summary.AddF("simulated_seconds", float64(res.DurationNs)/1e9)
	summary.AddF("ops", res.Ops)
	summary.AddF("throughput_ops_per_s", res.Throughput)
	summary.AddF("pages_sampled", st.Sampled)
	summary.AddF("demotions", st.Demotions)
	summary.AddF("promotions_corrections", st.Promotions)
	summary.AddF("sinks_to_lower_tiers", st.Sinks)
	summary.AddF("savings_vs_all_dram_pct", rep.Savings*100)
	fmt.Fprintln(w, summary.String())
	fmt.Fprintln(w, rep.TrafficTable().String())
	fmt.Fprintln(w, rep.CostTable().String())
	return nil
}

// writeTelemetry writes col's exports to the configured sinks and prints
// the per-epoch table to w; a nil collector (no output requested) writes
// nothing.
func writeTelemetry(w io.Writer, tel daemon.TelemetryConfig, col *telemetry.Collector) error {
	if col == nil {
		return nil
	}
	if tel.Trace != "" {
		if err := writeFile(tel.Trace, col.WriteChromeTrace); err != nil {
			return err
		}
		logger.Info("wrote Chrome trace (open at https://ui.perfetto.dev)", "path", tel.Trace)
	}
	if tel.Metrics != "" {
		if err := writeFile(tel.Metrics, col.WriteJSONL); err != nil {
			return err
		}
		logger.Info("wrote per-epoch metrics", "path", tel.Metrics)
	}
	if tel.Epochs {
		fmt.Fprintln(w, col.EpochTable())
	}
	return nil
}

// writeFile creates path and streams write into it.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func fatal(err error) {
	logger.Error("thermostat-sim failed", "err", err)
	os.Exit(1)
}
