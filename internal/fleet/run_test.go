package fleet

import (
	"strings"
	"testing"

	"thermostat/internal/addr"
	"thermostat/internal/cgroup"
	"thermostat/internal/core"
	"thermostat/internal/rng"
	"thermostat/internal/sim"
)

// skewApp sends all traffic to the first hotPages huge pages of its region
// and none to the rest (maximal hot/cold separation; hotPages equal to the
// region's page count makes it uniform). It counts the ticks it receives.
type skewApp struct {
	name     string
	r        *rng.PCG
	size     uint64
	hotPages uint64
	region   addr.Range
	ticks    int
}

func (a *skewApp) Name() string { return a.name }
func (a *skewApp) Init(m *sim.Machine) error {
	reg, err := m.AllocRegion(a.size, true)
	a.region = reg
	return err
}
func (a *skewApp) Next() (addr.Virt, bool) {
	page := a.r.Uint64n(a.hotPages)
	off := a.r.Uint64n(addr.PageSize2M)
	return a.region.Start + addr.Virt(page*addr.PageSize2M+off), a.r.Bool(0.1)
}
func (a *skewApp) ComputeNs() int64               { return 4000 }
func (a *skewApp) Tick(*sim.Machine, int64) error { a.ticks++; return nil }
func (a *skewApp) Regions() []addr.Range          { return []addr.Range{a.region} }

func newSkew(name string, seed, sizeMB, hot uint64) *skewApp {
	return &skewApp{name: name, r: rng.New(seed), size: sizeMB << 20, hotPages: hot}
}

func testMachine(t *testing.T) *sim.Machine {
	t.Helper()
	cfg := sim.DefaultConfig(256<<20, 256<<20)
	cfg.TLB.L1Entries, cfg.TLB.L2Entries = 2, 8
	m, err := sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// testTenant wraps app in a Thermostat engine ticking every 100ms, scoped
// to the app's pages, in a group of its own.
func testTenant(t *testing.T, app *skewApp, seed uint64) *core.Tenant {
	t.Helper()
	p := cgroup.Default()
	p.SamplePeriodNs = 100e6
	p.SampleFraction = 0.25
	g, err := cgroup.NewGroup(app.name, p)
	if err != nil {
		t.Fatal(err)
	}
	return core.NewTenant(app.name, app, g, core.NewEngine(g, seed))
}

func TestRunValidation(t *testing.T) {
	t.Parallel()
	member := func() []Member {
		return []Member{{Tenant: testTenant(t, newSkew("a", 1, 4, 2), 1)}}
	}
	zeroInterval := new(cgroup.Group) // zero params: SamplePeriodNs 0
	app := newSkew("z", 1, 4, 2)
	cases := []struct {
		name    string
		cfg     Config
		members []Member
		want    string
	}{
		{"no members", Config{DurationNs: 1e9}, nil, "no members"},
		{"zero duration", Config{}, member(), "non-positive duration"},
		{"negative duration", Config{DurationNs: -1}, member(), "non-positive duration"},
		{"nil tenant", Config{DurationNs: 1e9}, []Member{{}}, "no tenant"},
		{"zero interval", Config{DurationNs: 1e9}, []Member{{Tenant: core.NewTenant("z", app,
			zeroInterval, core.NewEngine(zeroInterval, 1))}}, "interval 0"},
	}
	for _, c := range cases {
		_, err := Run(testMachine(t), c.cfg, c.members)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want %q", c.name, err, c.want)
		}
	}
}

// runPair runs tenants a and b (4MB each, uniformly hot) at the given
// shares on a fresh machine.
func runPair(t *testing.T, shareA, shareB int, cfg Config) (*Result, *sim.Machine, *skewApp, *skewApp) {
	t.Helper()
	m := testMachine(t)
	a, b := newSkew("a", 1, 4, 2), newSkew("b", 2, 4, 2)
	ta, tb := testTenant(t, a, 11), testTenant(t, b, 13)
	ta.Share, tb.Share = shareA, shareB
	res, err := Run(m, cfg, []Member{{Tenant: ta}, {Tenant: tb}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Tenants) != 2 || res.Tenants[0].Name != "a" || res.Tenants[1].Name != "b" {
		t.Fatalf("tenants = %+v, want a then b", res.Tenants)
	}
	return res, m, a, b
}

func TestRunSharesSetOpsRatio(t *testing.T) {
	t.Parallel()
	res, _, _, _ := runPair(t, 3, 1, Config{DurationNs: 5e8})
	ratio := float64(res.Tenants[0].Ops) / float64(res.Tenants[1].Ops)
	if ratio < 2.9 || ratio > 3.1 {
		t.Fatalf("ops ratio = %v at shares 3:1, want ~3", ratio)
	}
	if res.Global.Ops != res.Tenants[0].Ops+res.Tenants[1].Ops {
		t.Fatalf("global ops %d != tenant sum", res.Global.Ops)
	}
}

func TestRunTicksEveryTenantApp(t *testing.T) {
	t.Parallel()
	_, _, a, b := runPair(t, 1, 1, Config{DurationNs: 5e8})
	// 5 engine intervals of 100ms: each app ticks on its tenant's cadence.
	if a.ticks < 4 || b.ticks < 4 {
		t.Fatalf("app ticks a=%d b=%d, want >= 4 each", a.ticks, b.ticks)
	}
}

func TestRunRespectsMaxOps(t *testing.T) {
	t.Parallel()
	res, _, _, _ := runPair(t, 1, 1, Config{DurationNs: 1e12, MaxOps: 500})
	if res.Global.Ops != 500 || res.Tenants[0].Ops+res.Tenants[1].Ops != 500 {
		t.Fatalf("ops global=%d a=%d b=%d, want 500 in total",
			res.Global.Ops, res.Tenants[0].Ops, res.Tenants[1].Ops)
	}
}

func TestRunLeavesMachineConsistent(t *testing.T) {
	t.Parallel()
	_, m, _, _ := runPair(t, 2, 1, Config{DurationNs: 5e8})
	if err := m.Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestMultiTenantEnginesStayInTheirLane(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second scaled run")
	}
	t.Parallel()
	// Two tenants share one machine: tenant A is half idle (demotable),
	// tenant B is uniformly hot (nothing demotable). Each has its own
	// scoped engine with its own cgroup. A's engine must demote only A's
	// pages; B's engine must demote (almost) nothing.
	m := testMachine(t)
	appA := newSkew("a", 1, 32, 4) // 16 pages, 4 hot
	appB := newSkew("b", 2, 16, 8) // all 8 hot
	res, err := Run(m, Config{DurationNs: 5e9, WindowNs: 5e8},
		[]Member{{Tenant: testTenant(t, appA, 11)}, {Tenant: testTenant(t, appB, 13)}})
	if err != nil {
		t.Fatal(err)
	}
	ra, rb := res.Tenants[0], res.Tenants[1]
	if ra.Ops == 0 || rb.Ops == 0 {
		t.Fatal("a tenant made no progress")
	}
	cold := func(r TenantResult) float64 {
		return float64(r.FootprintBytes-r.FastBytes) / float64(r.FootprintBytes)
	}
	// Tenant A found its idle pages; tenant B stayed hot.
	if c := cold(ra); c < 0.3 {
		t.Errorf("tenant A cold fraction = %v, want >= 0.3", c)
	}
	if c := cold(rb); c > 0.2 {
		t.Errorf("tenant B cold fraction = %v, want <= 0.2", c)
	}
	// Scope isolation: the scoped footprints partition the machine's.
	if sum, total := ra.FootprintBytes+rb.FootprintBytes, sim.ScanFootprint(m, nil).Total(); sum != total {
		t.Errorf("scoped footprints %d don't partition machine %d", sum, total)
	}
	if rb.Stats.Demotions > 1 {
		t.Errorf("tenant B engine demoted %d pages", rb.Stats.Demotions)
	}
	if ra.Stats.Demotions == 0 {
		t.Error("tenant A engine demoted nothing")
	}
}
