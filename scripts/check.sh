#!/bin/sh
# Pre-merge gate: build everything, vet, run the tests with the race
# detector. Run from the repository root (or via `make check`).
#
# SHORT=1 runs the fast tier only (go test -short): the scaled harness
# integration runs are skipped, so the whole gate finishes in well under
# a minute. The default (full) tier runs every test.
set -eu

cd "$(dirname "$0")/.."

echo "== go build ./..."
go build ./...

echo "== go vet ./..."
go vet ./...

if [ "${SHORT:-0}" = "1" ]; then
	echo "== go test -short -race ./..."
	go test -short -race -timeout 10m ./...
	echo "== hot-path benchmarks (smoke)"
	# One quick pass over the hot-path micro-benchmarks: catches bit-rot in
	# the flat leaf index and batched access engine without the full
	# results/bench-hotpath-*.txt measurement runs.
	go test -run=NONE -bench 'BenchmarkPT' -benchtime=100x ./internal/pagetable
	go test -run=NONE -bench 'BenchmarkAccess' -benchtime=100x .
else
	echo "== go test -race ./..."
	# The harness package runs full scaled experiments; under the race
	# detector it needs well over go test's default 10m budget.
	go test -race -timeout 45m ./...
fi

echo "== trace determinism gate"
# Telemetry is recorded in virtual time, so the same seeded run must export
# byte-identical traces and metrics no matter how many workers fan the
# baseline+policy pair out. Run the short simulation serially and with 8
# workers and compare byte-for-byte.
tracedir="$(mktemp -d)"
trap 'rm -rf "$tracedir"' EXIT
go run ./cmd/thermostat-sim -app redis -scale tiny -duration 4 -workers 1 \
	-trace "$tracedir/w1.trace.json" -metrics "$tracedir/w1.metrics.jsonl" >/dev/null
go run ./cmd/thermostat-sim -app redis -scale tiny -duration 4 -workers 8 \
	-trace "$tracedir/w8.trace.json" -metrics "$tracedir/w8.metrics.jsonl" >/dev/null
cmp "$tracedir/w1.trace.json" "$tracedir/w8.trace.json"
cmp "$tracedir/w1.metrics.jsonl" "$tracedir/w8.metrics.jsonl"
echo "traces byte-identical at -workers 1 and -workers 8"

echo "== policy matrix smoke gate"
# One abbreviated run per tracker × policy cell (TestMatrixSmoke at its
# short-mode duration), then the golden byte-identity pins: the composed
# poison+threshold engine must still replay the seed Thermostat's trace and
# metrics exports byte-for-byte.
go test -short -count=1 -run 'TestMatrixSmoke' ./internal/harness
go test -count=1 -run 'TestRunAllTelemetryWorkerInvariance|TestComposedThermostatMatchesSeedEngine' \
	./internal/harness
echo "matrix: all tracker x policy cells run; seed composition byte-identical"

echo "== chaos gates"
# Inertness: -chaos-rate 0 must be byte-identical to a run without any
# chaos flags, even with a seed and permanent fraction configured — the
# zero-rate config installs no injector at all.
go run ./cmd/thermostat-sim -app redis -scale tiny -duration 4 -workers 1 \
	-chaos-rate 0 -chaos-seed 7 -chaos-permanent 1 \
	-trace "$tracedir/c0.trace.json" -metrics "$tracedir/c0.metrics.jsonl" >/dev/null
cmp "$tracedir/w1.trace.json" "$tracedir/c0.trace.json"
cmp "$tracedir/w1.metrics.jsonl" "$tracedir/c0.metrics.jsonl"
# Survival + reproducibility: a seeded run with permanent migration
# failures must complete under the race detector and export byte-identical
# files at any worker count.
go run -race ./cmd/thermostat-sim -app cassandra -scale tiny -duration 6 -workers 1 \
	-chaos-rate 0.3 -chaos-permanent 0.5 -chaos-seed 7 \
	-trace "$tracedir/cw1.trace.json" -metrics "$tracedir/cw1.metrics.jsonl" >/dev/null
go run -race ./cmd/thermostat-sim -app cassandra -scale tiny -duration 6 -workers 8 \
	-chaos-rate 0.3 -chaos-permanent 0.5 -chaos-seed 7 \
	-trace "$tracedir/cw8.trace.json" -metrics "$tracedir/cw8.metrics.jsonl" >/dev/null
cmp "$tracedir/cw1.trace.json" "$tracedir/cw8.trace.json"
cmp "$tracedir/cw1.metrics.jsonl" "$tracedir/cw8.metrics.jsonl"
echo "chaos: rate-0 inert, seeded faults survive and reproduce at any worker count"

echo "== fleet smoke gate"
# Multi-tenant arbitration: the arbiter's property tests (grants sum
# exactly to the pool, floors honored, oversubscription rejected), the
# degenerate differential (a single-tenant fleet replays the solo run
# bit-for-bit, traces included), and one two-tenant CLI run end-to-end.
go test -count=1 -run 'TestArbitrate' ./internal/fleet
go test -count=1 -run 'TestFleetSingleTenantMatchesRunComposed' ./internal/harness
go run ./cmd/thermostat-sim -tenants redis,web-search -scale tiny -duration 4 \
	-slowdown 5 >/dev/null
echo "fleet: arbiter invariants hold; single-tenant fleet is bit-identical to solo"

echo "== scaling gate"
# Sparse region-grain state + sharded scans: state bytes per simulated GB
# shrink as the footprint grows, and the same seeded run is byte-identical
# at any -shard-workers count, test- and CLI-level (see
# scripts/scale_gate.sh; the full 1 GB -> 1 TB sweep is `repro -exp scale`).
./scripts/scale_gate.sh

echo "== observability gate"
# Live plane: mid-run /metrics satisfies the strict parser, /status and
# /healthz answer in flight, json logs are machine-parseable, and exports
# stay byte-identical with -serve attached (see scripts/obsv_gate.sh).
go test -count=1 -run 'TestServeScrapeMidRun|TestMetricsGoldenScrape|TestTeeForwardsExactly' ./internal/obsv
./scripts/obsv_gate.sh

echo "== daemon gate"
# Supervised lifecycle: reload-vs-cold-start, checkpoint/restore and
# daemon-vs-harness.Run differentials at test level, then thermostatd against real processes and
# signals — SIGHUP reload mid-run, /status walking the degradation ladder
# under forced chaos, SIGTERM exit 0, kill -9 + restart restoring exports
# byte-identical to an uninterrupted run (see scripts/daemon_gate.sh).
go test -count=1 -run 'TestReloadVsColdStart|TestCheckpointRestoreBitIdentity|TestQuarantineOnlyUnderChaos|TestHaltLadder|TestDaemonMatchesHarnessRun' \
	./internal/daemon
./scripts/daemon_gate.sh

echo "== benchmark smoke"
# perfbench (its own module) must build against the tree, and one short
# redis-tiny run must match its pinned per-op digest.
bash perfbench/run.sh --workload redis-tiny --seed 1 --seconds 1 >"$tracedir/perfbench.json"
grep -q '"correct":true' "$tracedir/perfbench.json"
echo "benchmark: builds and matches its pinned digest"

echo "check: OK"
