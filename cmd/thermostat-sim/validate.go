package main

import (
	"fmt"
	"strings"

	"thermostat/internal/daemon"
	"thermostat/internal/workload"
)

// options captures every flag value of a run, so the validator and the
// flag-to-config mapping are pure functions the tests drive directly.
type options struct {
	App          string
	Policy       string
	Tracker      string
	Scale        string
	Slowdown     float64
	IdleSecs     float64
	Duration     float64
	Seed         uint64
	Tiers        string
	Tenants      string
	Workers      int
	ChaosRate    float64
	ChaosSeed    uint64
	ChaosPerm    float64
	Trace        string
	Metrics      string
	Epochs       bool
	Serve        string
	Pprof        string
	LogFormat    string
	Footprint    string
	Sparse       bool
	ShardWorkers int
}

// splitList turns a comma-separated flag value into the config-layer list
// form ("" means none; entries keep their padding for the validator's
// TrimSpace handling).
func splitList(s string) []string {
	if s == "" {
		return nil
	}
	return strings.Split(s, ",")
}

// config maps the flag set onto the config layer, the one description of a
// run thermostat-sim and thermostatd share.
func (o options) config() daemon.Config {
	return daemon.Config{
		App:          o.App,
		Policy:       o.Policy,
		Tracker:      o.Tracker,
		Scale:        o.Scale,
		SlowdownPct:  o.Slowdown,
		IdleWindowS:  o.IdleSecs,
		DurationS:    o.Duration,
		Seed:         o.Seed,
		Footprint:    o.Footprint,
		Sparse:       o.Sparse,
		ShardWorkers: o.ShardWorkers,
		Workers:      o.Workers,
		Tiers:        splitList(o.Tiers),
		Tenants:      splitList(o.Tenants),
		Chaos: daemon.ChaosConfig{
			Rate: o.ChaosRate, PermanentFraction: o.ChaosPerm, Seed: o.ChaosSeed,
		},
		Telemetry: daemon.TelemetryConfig{Trace: o.Trace, Metrics: o.Metrics, Epochs: o.Epochs},
		Serve:     o.Serve,
		Pprof:     o.Pprof,
		LogFormat: o.LogFormat,
	}
}

// validate rejects inconsistent flag combinations before any simulation
// state is built, with a one-line usage error per defect. The rules live in
// daemon.Config.Validate — one copy shared with cmd/repro and thermostatd —
// and this adapter only maps the flag set onto the config struct. The CLI
// additionally requires an app (the config layer leaves it optional for
// repro's multi-app runs).
func validate(o options) error {
	if _, ok := workload.ByName(o.App); !ok {
		return fmt.Errorf("unknown application %q (try -list)", o.App)
	}
	if o.Policy == "" {
		return fmt.Errorf("unknown policy %q (thermostat, idle-demote, all-dram, or a composition policy)", o.Policy)
	}
	return o.config().Validate()
}
