package core

import (
	"fmt"

	"thermostat/internal/addr"
	"thermostat/internal/cgroup"
	"thermostat/internal/sim"
)

// ScopedApp is the application surface a fleet tenant requires: a normal
// sim.App that can also report which address ranges it owns, so its engine
// can be scoped to them and the fleet can tear them down on departure.
// workload.App implements it.
type ScopedApp interface {
	sim.App
	Regions() []addr.Range
}

// Tenant is one application sharing a multi-tenant hierarchy: a workload,
// the cgroup holding its Thermostat knobs and DRAM accounting (a child of
// the fleet's pool group), and a composed Tracker × Policy engine scoped to
// the workload's regions. The SLO fields are the fleet arbiter's inputs; a
// single-tenant Tenant degenerates to exactly the solo composed run.
type Tenant struct {
	// Name identifies the tenant in reports and telemetry.
	Name string
	// App is the tenant's workload. It must not be initialized before the
	// fleet admits the tenant (arrivals Init mid-run).
	App ScopedApp
	// Group holds the tenant's Thermostat parameters and its DRAM
	// accounting; its limit is the tenant's current grant.
	Group *cgroup.Group
	// Engine is the tenant's Tracker × Policy composition, scoped to the
	// app's regions.
	Engine *Engine

	// SLOPct is the tenant's tolerable-slowdown objective in percent; the
	// arbiter boosts the DRAM grant of tenants running over it. Usually
	// equal to the group's TolerableSlowdownPct but may be set tighter.
	SLOPct float64
	// Priority weights surplus DRAM distribution (min 1).
	Priority int
	// Share is the tenant's weight in the access interleave (min 1): a
	// tenant with Share 2 issues twice the ops of a Share-1 tenant.
	Share int
	// FloorBytes is the minimum DRAM grant the arbiter must always honor.
	FloorBytes uint64
}

// NewTenant wires a tenant together: the engine is scoped to the app's
// regions and the zero knobs get their minimums.
func NewTenant(name string, app ScopedApp, group *cgroup.Group, eng *Engine) *Tenant {
	t := &Tenant{Name: name, App: app, Group: group, Engine: eng, Priority: 1, Share: 1}
	eng.SetScope(app.Regions)
	return t
}

// Validate rejects incoherent tenants.
func (t *Tenant) Validate() error {
	if t.Name == "" {
		return fmt.Errorf("core: tenant without a name")
	}
	if t.App == nil || t.Group == nil || t.Engine == nil {
		return fmt.Errorf("core: tenant %q missing app, group, or engine", t.Name)
	}
	if t.Priority < 1 {
		return fmt.Errorf("core: tenant %q priority %d < 1", t.Name, t.Priority)
	}
	if t.Share < 1 {
		return fmt.Errorf("core: tenant %q share %d < 1", t.Name, t.Share)
	}
	if t.SLOPct < 0 {
		return fmt.Errorf("core: tenant %q negative SLO %v%%", t.Name, t.SLOPct)
	}
	return nil
}

// Regions returns the address ranges the tenant currently owns.
func (t *Tenant) Regions() []addr.Range { return t.App.Regions() }

// FootprintBytes returns the tenant's total mapped bytes across all tiers.
func (t *Tenant) FootprintBytes(m *sim.Machine) uint64 {
	return sim.ScanFootprint(m, t.App.Regions()).Total()
}

// FastBytes returns the tenant's current top-tier residency in bytes.
func (t *Tenant) FastBytes(m *sim.Machine) uint64 {
	fp := sim.ScanFootprint(m, t.App.Regions())
	if len(fp.ByTier) == 0 {
		return 0
	}
	return fp.ByTier[0].Total()
}
