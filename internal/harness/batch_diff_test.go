package harness

import (
	"reflect"
	"testing"

	"thermostat/internal/sim"
	"thermostat/internal/workload"
)

// runThermostatBatch assembles a Thermostat run and drives it with the
// DisableBatch switch exposed, so the test can compare the batched engine
// against the per-op reference on a full Thermostat experiment.
func runThermostatBatch(t *testing.T, spec workload.Spec, sc Scale, disable bool) *sim.RunResult {
	t.Helper()
	a, err := RunSpec{Spec: spec, Scale: sc, PolicyName: "thermostat", SlowdownPct: 3}.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run(a.Machine, a.App, a.Engine, sim.RunConfig{
		DurationNs: sc.DurationNs, WarmupNs: sc.WarmupNs, WindowNs: sc.PeriodNs,
		DisableBatch: disable,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestThermostatBatchSerialEquivalence proves the batched hot path is
// bit-identical end to end: a seeded redis run under the full Thermostat
// engine (sampling, classification, migration, THP churn) must produce a
// deep-equal RunResult with batching on and off.
func TestThermostatBatchSerialEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second differential run")
	}
	t.Parallel()
	spec, ok := workload.ByName("redis")
	if !ok {
		t.Fatal("redis spec missing")
	}
	sc := Tiny()
	batched := runThermostatBatch(t, spec, sc, false)
	serial := runThermostatBatch(t, spec, sc, true)
	if batched.Ops != serial.Ops {
		t.Errorf("ops: batched %d serial %d", batched.Ops, serial.Ops)
	}
	if !reflect.DeepEqual(batched.Metrics, serial.Metrics) {
		t.Errorf("metrics diverge:\nbatched %+v\nserial  %+v", batched.Metrics, serial.Metrics)
	}
	if !reflect.DeepEqual(batched, serial) {
		t.Error("run results diverge (series/histograms/footprints)")
	}
	if batched.Metrics.SlowAccesses == 0 {
		t.Error("no slow accesses — Thermostat never demoted, differential run too weak")
	}
}
