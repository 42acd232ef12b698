// multitenant: the cloud-provider scenario from the paper's introduction —
// a host co-locates two customers' workloads and wants to substitute cheap
// memory transparently, per customer, with per-cgroup slowdown SLAs. Each
// tenant gets its own Thermostat engine scoped to its own pages; both share
// one machine (one TLB, one LLC, one pair of memory tiers).
//
//	go run ./examples/multitenant
package main

import (
	"fmt"
	"log"

	"thermostat"
)

func main() {
	const scale = 32

	cfg := thermostat.DefaultMachineConfig(1300<<20, 1200<<20)
	cfg.TLB.L1Entries, cfg.TLB.L2Entries = 2, 32
	cfg.LLC.SizeBytes = 2 << 20
	m, err := thermostat.NewMachine(cfg)
	if err != nil {
		log.Fatal(err)
	}

	// Tenant 1: an OLTP database with a strict 1% SLA.
	dbApp, err := thermostat.NewWorkload(thermostat.MySQLTPCC(), scale, 21)
	if err != nil {
		log.Fatal(err)
	}
	dbParams := thermostat.DefaultParams()
	dbParams.TolerableSlowdownPct = 1
	dbParams.SamplePeriodNs = 1e9
	dbGroup, err := thermostat.NewGroup("tenant-db", dbParams)
	if err != nil {
		log.Fatal(err)
	}
	db := thermostat.NewTenant(dbApp.Name(), dbApp, dbGroup, thermostat.NewEngineInGroup(dbGroup, 1))

	// Tenant 2: a batch analytics job that tolerates 10%.
	batchApp, err := thermostat.NewWorkload(thermostat.InMemAnalytics(), scale, 22)
	if err != nil {
		log.Fatal(err)
	}
	batchParams := thermostat.DefaultParams()
	batchParams.TolerableSlowdownPct = 10
	batchParams.SamplePeriodNs = 1e9
	batchGroup, err := thermostat.NewGroup("tenant-batch", batchParams)
	if err != nil {
		log.Fatal(err)
	}
	batch := thermostat.NewTenant(batchApp.Name(), batchApp, batchGroup, thermostat.NewEngineInGroup(batchGroup, 2))

	// The fleet arbitrates the fast tier between the two cgroups; each
	// tenant's working set fits its grant, so neither is squeezed.
	res, err := thermostat.RunFleet(m, thermostat.FleetConfig{DurationNs: 30e9, WindowNs: 1e9},
		[]thermostat.FleetMember{{Tenant: db}, {Tenant: batch}})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("tenant      sla    throughput   cold    demoted  corrected")
	var slowBytes uint64
	for i, t := range res.Tenants {
		sla := []string{"1%", "10%"}[i]
		cold := t.FootprintBytes - t.FastBytes
		slowBytes += cold
		fmt.Printf("%-10s  %-4s  %9.0f/s  %5.1f%%  %7d  %9d\n",
			t.Name, sla, t.Throughput,
			float64(cold)/float64(t.FootprintBytes)*100, t.Stats.Demotions, t.Stats.Promotions)
	}
	fmt.Println()
	fmt.Printf("shared slow tier now holds %d MB across both tenants\n", slowBytes>>20)
	fmt.Println()
	fmt.Println("Each engine samples, classifies, and corrects only inside its own cgroup's")
	fmt.Println("address ranges; fault counts on the shared trap are consumed as per-engine")
	fmt.Println("deltas, so neither tenant's monitoring disturbs the other's.")
}
