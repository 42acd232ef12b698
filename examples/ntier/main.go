// N-tier demo: run the Redis model on a three-tier DRAM/CXL/NVM hierarchy.
// Thermostat's engine demotes cold pages one tier at a time — pages that
// stay idle in CXL sink on to NVM, and reheated pages climb back toward
// DRAM — so the footprint spreads across the hierarchy by measured access
// rate, and each tier's cheaper capacity cuts the memory bill.
//
//	go run ./examples/ntier
package main

import (
	"fmt"
	"log"

	"thermostat"
)

func main() {
	// The Redis model's footprint is 17.2GB (Table 2); divide by 64 so the
	// demo runs in seconds. Each tier could hold the whole footprint —
	// placement is driven by access rates, not capacity pressure.
	const scale = 64
	const footprint = uint64(18<<30) / scale

	cfg := thermostat.DefaultTieredConfig(
		thermostat.DRAMTier(footprint+64<<20),
		thermostat.CXLTier(footprint),
		thermostat.NVMTier(footprint),
	)
	// Device mode charges each tier's own latency (80/250/1000ns); the
	// paper's fault-based emulation knows only one slow latency.
	cfg.Mode = thermostat.Device
	cfg.TLB.L1Entries, cfg.TLB.L2Entries = 2, 16
	cfg.LLC.SizeBytes = (45 << 20) / scale
	m, err := thermostat.NewMachine(cfg)
	if err != nil {
		log.Fatal(err)
	}
	app, err := thermostat.NewWorkload(thermostat.Redis(), scale, 1)
	if err != nil {
		log.Fatal(err)
	}

	params := thermostat.DefaultParams()
	params.TolerableSlowdownPct = 3
	params.SamplePeriodNs = 1e9
	engine, err := thermostat.NewEngine(params, 42)
	if err != nil {
		log.Fatal(err)
	}

	res, err := thermostat.Run(m, app, engine, thermostat.RunConfig{
		DurationNs: 20e9, // 20 simulated seconds
		WarmupNs:   4e9,
	})
	if err != nil {
		log.Fatal(err)
	}

	sys := m.Memory()
	fp := res.FinalFootprint
	fmt.Printf("hierarchy:   ")
	for i := 0; i < sys.NumTiers(); i++ {
		t := sys.Tier(thermostat.TierID(i))
		if i > 0 {
			fmt.Printf(" -> ")
		}
		fmt.Printf("%s (%dns)", t.Name(), t.Spec().ReadLatency)
	}
	fmt.Println()
	fmt.Printf("throughput:  %.0f ops/s\n", res.Throughput)

	total := fp.Total()
	for i, tb := range fp.ByTier {
		t := sys.Tier(thermostat.TierID(i))
		fmt.Printf("  %-5s %5d MB  (%4.1f%% of footprint, cost %.2fx DRAM)\n",
			t.Name()+":", tb.Total()>>20, float64(tb.Total())/float64(total)*100,
			t.Spec().CostPerGB)
	}

	// Per-tier-pair migration traffic: which hops actually moved data.
	meter := m.Migrator().Meter()
	for _, p := range meter.Pairs() {
		tr := meter.PairTraffic(p.Src, p.Dst)
		fmt.Printf("moved %s -> %s: %d MB (%d huge pages)\n",
			sys.Tier(p.Src).Name(), sys.Tier(p.Dst).Name(), tr.Bytes>>20, tr.Pages2M)
	}

	st := engine.Stats()
	fmt.Printf("engine:      %d sampled, %d demotions, %d corrections, %d sinks to lower tiers\n",
		st.Sampled, st.Demotions, st.Promotions, st.Sinks)
}
