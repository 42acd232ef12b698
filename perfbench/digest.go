package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"

	"thermostat/internal/core"
	"thermostat/internal/sim"
)

// Digest is the simulated outcome of one op. Runs are deterministic per
// seed, so every field must repeat exactly; any difference is a behaviour
// change in the simulator.
type Digest struct {
	Ops            uint64     `json:"ops"`
	Accesses       uint64     `json:"accesses"`
	SlowAccesses   uint64     `json:"slow_accesses"`
	PoisonFaults   uint64     `json:"poison_faults"`
	Stats          core.Stats `json:"engine_stats"`
	Hot2M          uint64     `json:"hot_2m"`
	Hot4K          uint64     `json:"hot_4k"`
	Cold2M         uint64     `json:"cold_2m"`
	Cold4K         uint64     `json:"cold_4k"`
	ClockNs        int64      `json:"clock_ns"`
	MigrationBytes uint64     `json:"migration_bytes"`
}

func digestOf(res *sim.RunResult, st core.Stats) Digest {
	fp := res.FinalFootprint
	return Digest{
		Ops: res.Ops, Accesses: res.Metrics.Accesses,
		SlowAccesses: res.Metrics.SlowAccesses, PoisonFaults: res.Metrics.PoisonFaults,
		Stats: st, Hot2M: fp.Hot2M, Hot4K: fp.Hot4K, Cold2M: fp.Cold2M, Cold4K: fp.Cold4K,
		ClockNs: res.Metrics.ClockNs, MigrationBytes: res.Metrics.MigrationBytes,
	}
}

// goldenRedis is the Tiny-scale, seed-1 Redis run internal/harness's
// regression test pins; redis-tiny's panel seed 1 must reproduce it.
var goldenRedis = Digest{
	Ops: 6413283, Accesses: 6413283, SlowAccesses: 2228, PoisonFaults: 151390,
	Stats:   core.Stats{Periods: 20, Sampled: 20, Demotions: 2},
	Hot2M:   67108864,
	Hot4K:   4194304,
	Cold2M:  4194304,
	ClockNs: 8000001045,
	// The regression test does not pin migration traffic: two demoted
	// 2MB pages moved once each.
	MigrationBytes: 2 * 2 << 20,
}

//go:embed digests.json
var pinnedJSON []byte

// pinned maps a workload to its panel's digests, index i holding seed i+1.
func pinned() (map[string][]Digest, error) {
	var p map[string][]Digest
	if err := json.Unmarshal(pinnedJSON, &p); err != nil {
		return nil, fmt.Errorf("digests.json: %w", err)
	}
	if d := p["redis-tiny"]; len(d) == 0 || d[0] != goldenRedis {
		return nil, fmt.Errorf("digests.json: redis-tiny seed 1 does not match the harness regression golden")
	}
	return p, nil
}

// pin runs every workload's panel through the harness entry point it
// mirrors, the benchmark's untraced assembly and its traced assembly,
// requires all three to agree, and writes the digests to path.
func pin(path string) error {
	out := map[string][]Digest{}
	for _, w := range workloads() {
		for seed := uint64(1); seed <= uint64(w.panel); seed++ {
			ref, err := w.reference(seed)
			if err != nil {
				return err
			}
			plain, err := w.run(seed, nil, 0)
			if err != nil {
				return err
			}
			traced, err := w.run(seed, newTracer(), 0)
			if err != nil {
				return err
			}
			if err := agree(ref, plain); err != nil {
				return fmt.Errorf("%s seed %d: harness vs benchmark: %w", w.name, seed, err)
			}
			if plain.digest != traced.digest {
				return fmt.Errorf("%s seed %d: traced digest %+v != untraced %+v", w.name, seed, traced.digest, plain.digest)
			}
			fmt.Printf("pinned %s seed %d: %+v\n", w.name, seed, plain.digest)
			out[w.name] = append(out[w.name], plain.digest)
		}
	}
	if d := out["redis-tiny"]; d[0] != goldenRedis {
		return fmt.Errorf("redis-tiny seed 1 = %+v, want the regression golden %+v", d[0], goldenRedis)
	}
	b, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func agree(ref reference, r *opResult) error {
	if ref.digest != nil {
		if *ref.digest != r.digest {
			return fmt.Errorf("digest %+v != %+v", *ref.digest, r.digest)
		}
		return nil
	}
	pt := r.machine.PageTable()
	if ref.ops != r.digest.Ops || ref.state != r.stateBytes() ||
		ref.regions != pt.RegionCount() || ref.spans != pt.SpanCount() {
		return fmt.Errorf("ops/state/regions/spans %d/%d/%d/%d != %d/%d/%d/%d",
			ref.ops, ref.state, ref.regions, ref.spans,
			r.digest.Ops, r.stateBytes(), pt.RegionCount(), pt.SpanCount())
	}
	return nil
}
