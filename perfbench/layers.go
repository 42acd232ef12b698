package main

import "fmt"

// layerMetrics turns one traced op into the per-layer metrics, printing the
// op's host-time breakdown on the way. Set-up, generation, app ticks,
// engine ticks and footprint scans are timed directly; the access path is
// its replayed cost per access times the op's accesses; the rest of the
// wall time is printed as unaccounted: the runner's own per-op work (tenant
// picks, drains and arbitration on the fleet) plus the replay's error.
func layerMetrics(name string, seed uint64, r *opResult, tr *tracer, cost hostCost) map[string]metric {
	ops := float64(r.metrics.Accesses)
	pt := r.machine.PageTable()
	regions, spans := pt.RegionCount(), pt.SpanCount()
	batched := tr.nextCalls == 0
	rp := replay(r.machine, tr.window(), batched)

	wall := r.end.Sub(r.start).Nanoseconds()
	setup := r.setupNs()
	gen := tr.genNs()
	ticks := toFloats(tr.ticks)
	tick := tr.tickNs()
	footprint := tr.footprintNs
	footprintHow := "timed"
	if footprint == 0 {
		// fleet.Run scans footprints itself, outside any wrapper: charge
		// one replayed whole-machine scan per metric window.
		footprint = int64(rp.footprintNs * float64(r.windows))
		footprintHow = "replayed scan x windows"
	}
	// The run loop less the directly timed layers: the access path plus
	// the runner's own work.
	loopRest := r.loopNs() - gen - tr.appTickNs - tick - footprint
	access := int64(rp.accessNs * ops)
	unaccounted := loopRest - access

	ms := func(ns int64) float64 { return float64(ns) / 1e6 }
	fmt.Printf("trace %s seed %d: wall %.1f ms, %d accesses\n", name, seed, ms(wall), r.metrics.Accesses)
	rows := []struct {
		layer string
		ns    int64
		note  string
	}{
		{"sim.setup", setup, "sim.New + App.Init + Policy.Attach"},
		{"workload.gen", gen, fmt.Sprintf("%.1f ns/access", float64(gen)/ops)},
		{"workload.tick", tr.appTickNs, ""},
		{"core.tick", tick, fmt.Sprintf("%d ticks: correct %.1f, estimates %.1f, place %.1f, arm %.1f ms",
			len(ticks), ms(tr.correctNs), ms(tr.estimatesNs), ms(tr.placeNs), ms(tr.armNs))},
		{"sim.footprint", footprint, footprintHow},
		{"access path", access, fmt.Sprintf("replayed on the machine: %.1f ns/access", rp.accessNs)},
		{"unaccounted", unaccounted, fmt.Sprintf("runner's own work and replay error: %.1f ns/access", float64(unaccounted)/ops)},
	}
	dominant, dominantNs := "", int64(0)
	for _, row := range rows {
		fmt.Printf("  %-14s %10.1f ms %6.1f%%  %s\n", row.layer, ms(row.ns), 100*float64(row.ns)/float64(wall), row.note)
		if row.layer != "unaccounted" && row.ns > dominantNs {
			dominant, dominantNs = row.layer, row.ns
		}
	}
	fmt.Printf("  dominant layer: %s\n", dominant)
	runTLB, runLLC := r.metrics.TLB, r.metrics.LLC
	fmt.Printf("  replay of %d requests after %d warming ones (%d dropped: page freed):\n"+
		"    tlb   %6.1f ns/lookup  hits L1 %d L2 %d misses %d  (run %d / %d / %d)\n"+
		"    walk  %6.1f ns/walk    over %d walks\n"+
		"    cache %6.1f ns/access  hits %d misses %d  (run %d / %d)\n",
		rp.n, rp.warm, rp.dropped,
		rp.tlbNs, rp.tlb.HitsL1, rp.tlb.HitsL2, rp.tlb.Misses, runTLB.HitsL1, runTLB.HitsL2, runTLB.Misses,
		rp.walkNs, rp.walks,
		rp.cacheNs, rp.llc.Hits, rp.llc.Misses, runLLC.Hits, runLLC.Misses)

	st := r.stats
	lookups := float64(runTLB.Lookups())
	n := func(v float64, unit string) metric { return metric{v, unit} }
	return map[string]metric{
		"workload.gen_ns_per_access": n(float64(gen)/ops, "ns"),
		"workload.tick_us":           n(float64(tr.appTickNs)/1e3, "us"),

		"sim.access_path_ns_per_op":   n(float64(loopRest)/ops, "ns"),
		"sim.access_replay_ns_per_op": n(rp.accessNs, "ns"),
		"sim.footprint_ms":            n(ms(footprint), "ms"),
		"sim.setup_ms":                n(ms(setup), "ms"),
		"sim.state_kb":                n(float64(r.machine.StateBytes())/1024, "KiB"),

		"tlb.lookup_ns":          n(rp.tlbNs, "ns"),
		"tlb.miss_rate":          n(float64(runTLB.Misses)/lookups, "ratio"),
		"tlb.l1_hit_rate":        n(float64(runTLB.HitsL1)/lookups, "ratio"),
		"tlb.replay_miss_rate":   n(rp.tlb.MissRate(), "ratio"),
		"pagetable.walk_ns":      n(rp.walkNs, "ns"),
		"pagetable.walks":        n(float64(runTLB.Misses), "count"),
		"pagetable.regions":      n(float64(regions), "count"),
		"pagetable.spans":        n(float64(spans), "count"),
		"cache.access_ns":        n(rp.cacheNs, "ns"),
		"cache.miss_rate":        n(runLLC.MissRate(), "ratio"),
		"cache.replay_miss_rate": n(rp.llc.MissRate(), "ratio"),

		"badgertrap.faults":             n(float64(r.metrics.PoisonFaults), "count"),
		"badgertrap.faults_per_kaccess": n(1000*float64(r.metrics.PoisonFaults)/ops, "1/kaccess"),
		"mem.slow_access_frac":          n(float64(r.metrics.SlowAccesses)/ops, "ratio"),

		"core.tick_ms":      n(median(ticks)/1e6, "ms"),
		"core.tick_max_ms":  n(maxOf(ticks)/1e6, "ms"),
		"core.ticks":        n(float64(len(ticks)), "count"),
		"core.correct_ms":   n(ms(tr.correctNs), "ms"),
		"core.estimates_ms": n(ms(tr.estimatesNs), "ms"),
		"core.place_ms":     n(ms(tr.placeNs), "ms"),
		"core.arm_ms":       n(ms(tr.armNs), "ms"),
		"core.state_kb":     n(float64(r.engineState)/1024, "KiB"),

		"core.sampled":            n(float64(st.Sampled), "count"),
		"core.demotions":          n(float64(st.Demotions), "count"),
		"core.promotions":         n(float64(st.Promotions), "count"),
		"core.migrate_failures":   n(float64(st.DemoteFailures+st.PromoteFailures), "count"),
		"core.retries":            n(float64(st.Retries), "count"),
		"core.promote_per_demote": n(ratio(st.Promotions, st.Demotions), "ratio"),
		"core.demote_per_sampled": n(ratio(st.Demotions, st.Sampled), "ratio"),
		"numa.migrated_mb":        n(float64(r.metrics.MigrationBytes)/(1<<20), "MiB"),
		"numa.rollbacks":          n(float64(r.machine.Migrator().Rollbacks()), "count"),

		"fleet.periods":          n(float64(r.periods), "count"),
		"fleet.rejected":         n(float64(r.rejected), "count"),
		"fleet.runner_ns_per_op": n(float64(unaccounted)/ops, "ns"),

		"go.gc_cycles":   n(float64(cost.gcCycles), "count"),
		"go.gc_pause_ms": n(float64(cost.gcPauseNs)/1e6, "ms"),
	}
}

func toFloats(v []int64) []float64 {
	f := make([]float64, len(v))
	for i, x := range v {
		f[i] = float64(x)
	}
	return f
}

func maxOf(v []float64) float64 {
	m := 0.0
	for _, x := range v {
		if x > m {
			m = x
		}
	}
	return m
}

func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
