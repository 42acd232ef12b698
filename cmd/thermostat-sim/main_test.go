package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// valid returns an option set that passes validation; each case mutates one
// field off it.
func valid() options {
	return options{
		App: "redis", Policy: "thermostat", Scale: "tiny",
		Slowdown: 3, IdleSecs: 10,
	}
}

func TestValidateAcceptsDefaults(t *testing.T) {
	if err := validate(valid()); err != nil {
		t.Fatalf("default-shaped options rejected: %v", err)
	}
}

func TestValidateRejections(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*options)
		want   string // substring of the one-line usage error
	}{
		{"unknown app", func(o *options) { o.App = "nope" }, "unknown application"},
		{"unknown policy", func(o *options) { o.Policy = "nope" }, "unknown policy"},
		{"unknown scale", func(o *options) { o.Scale = "nope" }, "unknown scale"},
		{"negative duration", func(o *options) { o.Duration = -1 }, "negative"},
		{"nonpositive slowdown", func(o *options) { o.Slowdown = 0 }, "-slowdown"},
		{"nonpositive idle window", func(o *options) {
			o.Policy = "idle-demote"
			o.IdleSecs = -2
		}, "-idle-window"},
		{"negative chaos rate", func(o *options) { o.ChaosRate = -0.1 }, "-chaos-rate"},
		{"chaos rate above one", func(o *options) { o.ChaosRate = 1.5 }, "-chaos-rate"},
		{"negative permanent fraction", func(o *options) { o.ChaosPerm = -1 }, "-chaos-permanent"},
		{"permanent fraction above one", func(o *options) { o.ChaosPerm = 2 }, "-chaos-permanent"},
		{"chaos without migrating policy", func(o *options) {
			o.Policy = "all-dram"
			o.ChaosRate = 0.1
		}, "migrating policy"},
		{"tiers under non-migrating policy", func(o *options) {
			o.Policy = "idle-demote"
			o.Tiers = "dram,cxl"
		}, "-tiers needs a migrating engine"},
		{"unknown tracker", func(o *options) {
			o.Policy = "threshold"
			o.Tracker = "nosuch"
		}, "unknown tracker"},
		{"tracker under fixed arm", func(o *options) {
			o.Tracker = "damon" // policy stays "thermostat"
		}, "needs a composition policy"},
		{"tracker under all-dram", func(o *options) {
			o.Policy = "all-dram"
			o.Tracker = "idlebit"
		}, "needs a composition policy"},
		{"nonpositive slowdown for composition", func(o *options) {
			o.Policy = "heat"
			o.Slowdown = 0
		}, "-slowdown"},
		{"tiers with chaos", func(o *options) {
			o.Tiers = "dram,cxl"
			o.ChaosRate = 0.1
		}, "not supported with -tiers"},
		{"unknown tier preset", func(o *options) { o.Tiers = "dram,quantum" }, "unknown device preset"},
		{"tenants with tiers", func(o *options) {
			o.Tenants = "redis,web-search"
			o.Tiers = "dram,cxl"
		}, "not supported with -tiers"},
		{"tenants under non-migrating policy", func(o *options) {
			o.Tenants = "redis,web-search"
			o.Policy = "all-dram"
		}, "-tenants needs a migrating per-tenant engine"},
		{"unknown tenant app", func(o *options) { o.Tenants = "redis, nope" }, "unknown tenant application"},
		{"unknown log format", func(o *options) { o.LogFormat = "yaml" }, "-log-format"},
		{"unparseable footprint", func(o *options) { o.Footprint = "lots" }, "-footprint"},
		{"nonpositive footprint", func(o *options) { o.Footprint = "-4G" }, "-footprint"},
		{"footprint with tenants", func(o *options) {
			o.Footprint = "64G"
			o.Tenants = "redis,web-search"
		}, "ambiguous"},
		{"negative shard workers", func(o *options) { o.ShardWorkers = -1 }, "-shard-workers"},
		{"serve and pprof collide", func(o *options) {
			o.Serve = "localhost:9090"
			o.Pprof = "localhost:9090"
		}, "one listener per address"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			o := valid()
			tc.mutate(&o)
			err := validate(o)
			if err == nil {
				t.Fatalf("options %+v accepted", o)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
			if strings.Contains(err.Error(), "\n") {
				t.Fatalf("usage error spans lines: %q", err)
			}
		})
	}
}

func TestValidateAcceptsObservabilityCombos(t *testing.T) {
	o := valid()
	o.Serve, o.LogFormat = "localhost:9090", "json"
	if err := validate(o); err != nil {
		t.Fatalf("-serve with json logs rejected: %v", err)
	}
	o = valid()
	o.Serve, o.Pprof = "localhost:9090", "localhost:6060"
	if err := validate(o); err != nil {
		t.Fatalf("distinct -serve/-pprof rejected: %v", err)
	}
	o = valid()
	o.Pprof = "localhost:6060" // pprof alone, serve empty: no collision
	if err := validate(o); err != nil {
		t.Fatalf("-pprof alone rejected: %v", err)
	}
}

func TestValidateAcceptsScalingCombos(t *testing.T) {
	for _, fp := range []string{"512m", "64G", "1.5TiB", "1t"} {
		o := valid()
		o.Footprint = fp
		if err := validate(o); err != nil {
			t.Fatalf("-footprint %s rejected: %v", fp, err)
		}
	}
	o := valid()
	o.App, o.Footprint, o.ShardWorkers = "scale-synth", "1T", 8
	if err := validate(o); err != nil {
		t.Fatalf("scaling combo rejected: %v", err)
	}
	// Sharded scans compose with deep hierarchies and fleets: the knob is
	// plumbed through Scale, and unsharded paths simply ignore it.
	o = valid()
	o.Tenants, o.ShardWorkers = "redis,web-search", 4
	if err := validate(o); err != nil {
		t.Fatalf("shard workers with tenants rejected: %v", err)
	}
}

func TestValidateAcceptsChaosAndTierCombos(t *testing.T) {
	o := valid()
	o.ChaosRate, o.ChaosPerm = 0.5, 1
	if err := validate(o); err != nil {
		t.Fatalf("chaos under thermostat rejected: %v", err)
	}
	o = valid()
	o.Policy = "idle-demote"
	o.ChaosRate = 0.2
	if err := validate(o); err != nil {
		t.Fatalf("chaos under idle-demote rejected: %v", err)
	}
	o = valid()
	o.Tiers = "dram, cxl ,nvm"
	if err := validate(o); err != nil {
		t.Fatalf("whitespace-padded presets rejected: %v", err)
	}
}

func TestValidateAcceptsCompositions(t *testing.T) {
	for _, tracker := range []string{"", "poison", "idlebit", "softdirty", "damon"} {
		for _, policy := range []string{"threshold", "heat"} {
			o := valid()
			o.Tracker, o.Policy = tracker, policy
			if err := validate(o); err != nil {
				t.Fatalf("composition %q+%q rejected: %v", tracker, policy, err)
			}
		}
	}
	// Compositions migrate, so deep hierarchies and chaos both apply.
	o := valid()
	o.Policy, o.Tracker, o.Tiers = "heat", "damon", "dram,cxl,nvm"
	if err := validate(o); err != nil {
		t.Fatalf("composition with -tiers rejected: %v", err)
	}
	o = valid()
	o.Policy, o.ChaosRate = "threshold", 0.2
	if err := validate(o); err != nil {
		t.Fatalf("composition with chaos rejected: %v", err)
	}
}

func TestValidateAcceptsTenantCombos(t *testing.T) {
	o := valid()
	o.Tenants = "redis, web-search ,mysql-tpcc"
	if err := validate(o); err != nil {
		t.Fatalf("tenant fleet under thermostat rejected: %v", err)
	}
	// Fleet tenants run composition engines, so -tracker/-policy pairs and
	// machine-wide chaos both apply.
	o = valid()
	o.Tenants, o.Policy, o.Tracker = "redis,redis", "heat", "damon"
	if err := validate(o); err != nil {
		t.Fatalf("tenant fleet with composition rejected: %v", err)
	}
	o = valid()
	o.Tenants, o.ChaosRate, o.ChaosPerm = "redis,web-search", 0.3, 0.5
	if err := validate(o); err != nil {
		t.Fatalf("tenant fleet with chaos rejected: %v", err)
	}
}

// TestTiersRunWritesExports pins that an N-tier run honors the telemetry
// flags: -tiers goes through the same run translation as the two-tier
// path, so the collector attaches, records per-epoch snapshots, and both
// export files are written.
func TestTiersRunWritesExports(t *testing.T) {
	dir := t.TempDir()
	o := valid()
	o.Duration, o.Seed, o.LogFormat = 2, 1, "text"
	o.Tiers = "dram,cxl,nvm"
	o.Trace = filepath.Join(dir, "t.json")
	o.Metrics = filepath.Join(dir, "t.jsonl")
	if err := validate(o); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := runSingle(&out, o.config(), nil); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{o.Trace, o.Metrics} {
		if fi, err := os.Stat(path); err != nil || fi.Size() == 0 {
			t.Errorf("%s missing or empty (err %v)", path, err)
		}
	}
	// One JSONL line per epoch snapshot.
	jsonl, err := os.ReadFile(o.Metrics)
	if err != nil {
		t.Fatal(err)
	}
	if n := bytes.Count(jsonl, []byte(`{"epoch":`)); n == 0 {
		t.Errorf("metrics file has no epoch snapshots:\n%s", jsonl)
	}
	if !strings.Contains(out.String(), "per-tier-pair migration traffic") {
		t.Errorf("N-tier report missing:\n%s", out.String())
	}
}
