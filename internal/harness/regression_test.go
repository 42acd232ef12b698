package harness

import (
	"testing"

	"thermostat/internal/workload"
)

// goldenTwoTier pins the deterministic two-tier results captured from the
// seed tree (Tiny scale, 3% tolerable slowdown, seed 1). The N-tier
// generalization must leave the paper's two-tier configuration bit-for-bit
// unchanged: every counter here — engine stats, final footprint, virtual
// clock, fault counts — must match exactly, not approximately.
var goldenTwoTier = []struct {
	spec workload.Spec

	periods, sampled, demotions, promotions, demoteFailures uint64
	hot2M, hot4K, cold2M, cold4K                            uint64
	ops, accesses, slowAccesses, poisonFaults               uint64
	clockNs                                                 int64
	coldPages                                               int
}{
	{
		spec:    workload.Redis(),
		periods: 20, sampled: 20, demotions: 2, promotions: 0, demoteFailures: 0,
		hot2M: 67108864, hot4K: 4194304, cold2M: 4194304, cold4K: 0,
		ops: 6413283, accesses: 6413283, slowAccesses: 2228, poisonFaults: 151390,
		clockNs:   8000001045,
		coldPages: 2,
	},
	{
		spec:    workload.MySQLTPCC(),
		periods: 20, sampled: 20, demotions: 4, promotions: 0, demoteFailures: 0,
		hot2M: 29360128, hot4K: 4194304, cold2M: 8388608, cold4K: 0,
		ops: 3176646, accesses: 3176646, slowAccesses: 0, poisonFaults: 19526,
		clockNs:   8000001311,
		coldPages: 4,
	},
}

func TestTwoTierGoldenRegression(t *testing.T) {
	t.Parallel()
	for _, g := range goldenTwoTier {
		g := g
		t.Run(g.spec.Name, func(t *testing.T) {
			t.Parallel()
			out, err := RunThermostat(g.spec, Tiny(), 3)
			if err != nil {
				t.Fatal(err)
			}
			st := out.Engine.Stats()
			fp := out.Result.FinalFootprint
			met := out.Result.Metrics

			check := func(what string, got, want uint64) {
				t.Helper()
				if got != want {
					t.Errorf("%s = %d, want %d (two-tier determinism broken)", what, got, want)
				}
			}
			check("Periods", st.Periods, g.periods)
			check("Sampled", st.Sampled, g.sampled)
			check("Demotions", st.Demotions, g.demotions)
			check("Promotions", st.Promotions, g.promotions)
			check("DemoteFailures", st.DemoteFailures, g.demoteFailures)
			if st.Sinks != 0 {
				t.Errorf("Sinks = %d, want 0: sinking must never run on a two-tier machine", st.Sinks)
			}
			check("Hot2M", fp.Hot2M, g.hot2M)
			check("Hot4K", fp.Hot4K, g.hot4K)
			check("Cold2M", fp.Cold2M, g.cold2M)
			check("Cold4K", fp.Cold4K, g.cold4K)
			check("Ops", out.Result.Ops, g.ops)
			check("Accesses", met.Accesses, g.accesses)
			check("SlowAccesses", met.SlowAccesses, g.slowAccesses)
			check("PoisonFaults", met.PoisonFaults, g.poisonFaults)
			if met.ClockNs != g.clockNs {
				t.Errorf("ClockNs = %d, want %d", met.ClockNs, g.clockNs)
			}
			if got := out.Engine.ColdPages(); got != g.coldPages {
				t.Errorf("ColdPages = %d, want %d", got, g.coldPages)
			}
			// The per-tier access vector must be consistent with the legacy
			// fast/slow split on a two-tier machine.
			if n := len(met.TierAccesses); n != 2 {
				t.Fatalf("TierAccesses has %d tiers, want 2", n)
			}
			if met.TierAccesses[0]+met.TierAccesses[1] != met.Accesses {
				t.Errorf("TierAccesses sum %d+%d != Accesses %d",
					met.TierAccesses[0], met.TierAccesses[1], met.Accesses)
			}
			if met.TierAccesses[1] != met.SlowAccesses {
				t.Errorf("TierAccesses[1] = %d, want SlowAccesses %d",
					met.TierAccesses[1], met.SlowAccesses)
			}
		})
	}
}

// TestThreeTierGoldenRegression pins the deterministic three-tier results
// (Redis on the DRAM/CXL/NVM hierarchy, Tiny scale, 3% target, seed 1)
// captured from the PR 1 N-tier path, so tier-relative demotion, idle-page
// sinking, and the pair traffic matrix are regression-locked exactly like
// the two-tier configuration.
func TestThreeTierGoldenRegression(t *testing.T) {
	t.Parallel()
	out, err := Run(RunSpec{Spec: workload.Redis(), Scale: Tiny(), Tiers: DefaultThreeTier(0),
		PolicyName: "thermostat", SlowdownPct: 3})
	if err != nil {
		t.Fatal(err)
	}
	st := out.Engine.Stats()
	fp := out.Result.FinalFootprint
	met := out.Result.Metrics

	check := func(what string, got, want uint64) {
		t.Helper()
		if got != want {
			t.Errorf("%s = %d, want %d (three-tier determinism broken)", what, got, want)
		}
	}
	check("Periods", st.Periods, 20)
	check("Sampled", st.Sampled, 20)
	check("Demotions", st.Demotions, 2)
	check("Promotions", st.Promotions, 0)
	check("Sinks", st.Sinks, 1)
	check("DemoteFailures", st.DemoteFailures, 0)
	check("Hot2M", fp.Hot2M, 67108864)
	check("Hot4K", fp.Hot4K, 4194304)
	check("Cold2M", fp.Cold2M, 4194304)
	check("Cold4K", fp.Cold4K, 0)
	check("Ops", out.Result.Ops, 6412880)
	check("Accesses", met.Accesses, 6412880)
	check("SlowAccesses", met.SlowAccesses, 2228)
	check("PoisonFaults", met.PoisonFaults, 151366)
	if met.ClockNs != 8000001084 {
		t.Errorf("ClockNs = %d, want 8000001084", met.ClockNs)
	}
	if got := out.Engine.ColdPages(); got != 2 {
		t.Errorf("ColdPages = %d, want 2", got)
	}
	// Per-tier placement: the sunk page sits in NVM, its sibling in CXL.
	if n := len(fp.ByTier); n != 3 {
		t.Fatalf("ByTier has %d tiers, want 3", n)
	}
	check("tier0 bytes", fp.ByTier[0].Total(), 71303168)
	check("tier1 bytes", fp.ByTier[1].Total(), 2097152)
	check("tier2 bytes", fp.ByTier[2].Total(), 2097152)
	if want := []uint64{6410652, 2228, 0}; len(met.TierAccesses) != 3 ||
		met.TierAccesses[0] != want[0] || met.TierAccesses[1] != want[1] || met.TierAccesses[2] != want[2] {
		t.Errorf("TierAccesses = %v, want %v", met.TierAccesses, want)
	}

	rep, err := AnalyzeNTier(out)
	if err != nil {
		t.Fatal(err)
	}
	if got := rep.Savings; got < 0.036111110 || got > 0.036111112 {
		t.Errorf("Savings = %.9f, want 0.036111111", got)
	}
	wantPairs := []struct {
		src, dst                int
		bytes, pages2M, pages4K uint64
	}{
		{0, 1, 4194304, 2, 0},
		{1, 2, 2097152, 1, 0},
	}
	if len(rep.Pairs) != len(wantPairs) {
		t.Fatalf("pair matrix has %d entries, want %d: %+v", len(rep.Pairs), len(wantPairs), rep.Pairs)
	}
	for i, w := range wantPairs {
		p := rep.Pairs[i]
		if int(p.Src) != w.src || int(p.Dst) != w.dst ||
			p.Bytes != w.bytes || p.Pages2M != w.pages2M || p.Pages4K != w.pages4K {
			t.Errorf("pair %d = %+v, want %+v", i, p, w)
		}
	}
}
