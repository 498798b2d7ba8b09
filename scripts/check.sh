#!/usr/bin/env bash
# Tier-1 verification for this repository: build, vet, the dudelint
# persist-ordering/concurrency suite, the full test suite, and the race
# detector over the pipeline-critical packages. CI and pre-merge checks
# run exactly this script; it must exit 0.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== go build"
go build ./...
go build ./cmd/dudesrv

echo "== go vet"
go vet ./...

echo "== dudelint"
go run ./cmd/dudelint ./...

echo "== dudelint -json (schema + per-analyzer counts)"
# Hold the machine-readable report to its contract: it parses, carries
# the schema version CI consumers pin against, and zero-fills a count
# for every analyzer (so a check silently disappearing is loud).
go run ./cmd/dudelint -json ./... >/tmp/dudelint.check.json
python3 - <<'EOF'
import json, sys
rep = json.load(open("/tmp/dudelint.check.json"))
if rep.get("schema") != 1:
    sys.exit(f"dudelint -json schema {rep.get('schema')!r}, want 1")
counts = rep.get("counts")
if not isinstance(counts, dict) or not counts:
    sys.exit("dudelint -json lacks per-analyzer counts")
for name in ("persistorder", "fencepair", "fencebudget", "noalloc", "unlockpath",
             "crashcover", "tracestamp", "atomicmix"):
    if name not in counts:
        sys.exit(f"dudelint -json counts lack analyzer {name!r}")
if not isinstance(rep.get("diagnostics"), list):
    sys.exit("dudelint -json diagnostics is not a list")
summary = ", ".join(f"{k} {v}" for k, v in sorted(counts.items()))
print(f"dudelint report: schema {rep['schema']}, {rep['suppressed']} suppressed; {summary}")
EOF
rm -f /tmp/dudelint.check.json

echo "== go test"
go test ./...

echo "== go test -race (pmem, stm, redolog, dudetm, server, obs, repl; tracing on)"
# DUDETM_TRACE_SAMPLE=4 turns the lifecycle tracer on underneath every
# test that does not pin its own sampling, so the race pass exercises
# the pipeline with trace stamps and stat scrapes racing it — not the
# tracing-off degenerate case. internal/pmem because every stage stores
# into the device and its line locks guard the persisted image against
# concurrent first touches, write-backs and snapshots; internal/obs
# rides along for the concurrent histogram-merge and sample-row reuse
# tests (readers racing a writer that laps the table); internal/repl
# because its sender/receiver goroutines race real
# TCP reconnects.
DUDETM_TRACE_SAMPLE=4 go test -race -count=1 ./internal/pmem ./internal/stm ./internal/redolog ./internal/dudetm ./internal/server ./internal/obs ./internal/repl

echo "== park/wake: coordinator, park.Frontier, Crash on a full log, fence budget (GOMAXPROCS=1, -race)"
# One processor: a coordinator that spins instead of parking starves
# its committers, and a lost wakeup hangs a WaitDurable or a
# park.Frontier handoff; a coordinator parked in an append on log space
# must not hang Close or Crash (each wait is bounded at 5 s inside the
# tests). TestCritpathFenceBudget's replay-fence bound must hold however
# one processor interleaves the stages.
GOMAXPROCS=1 go test -race -count=3 -run 'TestIdleCoordinatorNoWakes|TestNoLostWakeup|TestStopWhileParked|TestHeldAppendJoinsOneGroup|TestCrashWithFullLog|TestCritpathFenceBudget' ./internal/dudetm
GOMAXPROCS=1 go test -race -count=3 ./internal/park

echo "== no sleep-polling in internal/"
# Every wait in the internal packages parks on the state it waits for
# (park.Frontier, coordWake, durNotifier, channels, timers); a
# time.Sleep call in non-test code is a polling loop coming back.
if grep -rn 'time\.Sleep(' --include=*.go internal | grep -v '_test\.go:'; then
    echo "time.Sleep in non-test internal code (park on the awaited state instead)"
    exit 1
fi

echo "== dudebench -list (experiment registry)"
# The registry is scriptable surface: stable order, one line per
# experiment (the full list and order are pinned by TestRegistryNames).
go run ./cmd/dudebench -list | tee /tmp/dudebench.list.txt
grep -q '^fig2 ' /tmp/dudebench.list.txt || { echo "dudebench -list lost the fig2 experiment"; exit 1; }
rm -f /tmp/dudebench.list.txt

echo "== dudesrv /metrics smoke (live scrape gate)"
# Boot a real dudesrv with the observability endpoint, drive load
# through the wire protocol, then hold the endpoint to its own
# declarations: dudectl top -check fails on any family a # TYPE line
# declares without a sample, any NaN or Inf sample, any series the
# top or critpath view reads that the scrape lacks, and any bad
# counter rate.
# The notifier counters' load-dependent bound (0 < wakeups <= released)
# is asserted by TestMetricsEndpoint.
SRV_ADDR=127.0.0.1:17070
MET_ADDR=127.0.0.1:17071
go build -o /tmp/dudesrv.check ./cmd/dudesrv
go build -o /tmp/dudectl.check ./cmd/dudectl
/tmp/dudesrv.check -addr "$SRV_ADDR" -metrics "$MET_ADDR" -trace-sample 8 \
    >/tmp/dudesrv.check.log 2>&1 &
SRV_PID=$!
trap 'kill "$SRV_PID" 2>/dev/null || true' EXIT
for i in $(seq 1 50); do
    if /tmp/dudectl.check top -addr "$MET_ADDR" -check >/dev/null 2>&1; then break; fi
    if [ "$i" = 50 ]; then echo "dudesrv metrics endpoint never came up"; cat /tmp/dudesrv.check.log; exit 1; fi
    sleep 0.1
done
go run ./examples/netbank -addr "$SRV_ADDR" >/dev/null
/tmp/dudectl.check top -addr "$MET_ADDR" -n 1
/tmp/dudectl.check top -addr "$MET_ADDR" -check

kill -TERM "$SRV_PID"
wait "$SRV_PID"
trap - EXIT

echo "== crash forensics gate (netbank drill + dudectl forensics)"
# Run the netbank kill -9 drill (which itself audits recovery with
# AuditRecovery), keep its pre-recovery crash image, and hold the
# forensic decoder to its contract: the report pretty-prints, the -json
# form parses, and its durable frontier exactly matches what recovery
# restores from the same image (-verify recovers a scratch copy and
# compares). The recorder holds only the stamps the log cannot supply
# (boot / stall): per-group evidence and the durable and reproduced
# frontiers come from the log, so a per-group stamp reappearing fails
# here.
CRASH_IMG=/tmp/dude.check.crash.img
rm -f "$CRASH_IMG"
go run ./examples/netbank -crash-image "$CRASH_IMG" >/dev/null
test -s "$CRASH_IMG" || { echo "netbank drill wrote no crash image"; exit 1; }
/tmp/dudectl.check forensics "$CRASH_IMG" | grep -q "log frontier" \
    || { echo "forensics report missing the frontier line"; exit 1; }
/tmp/dudectl.check forensics -json -verify "$CRASH_IMG" >/tmp/dude.check.report.json
python3 - "$CRASH_IMG" <<'EOF'
import json, subprocess, sys
rep = json.load(open("/tmp/dude.check.report.json"))
for key in ("log_frontier", "events"):
    if key not in rep:
        sys.exit(f"forensics -json lacks {key!r}")
if rep["log_frontier"] <= 0:
    sys.exit(f"forensics frontier {rep['log_frontier']} not positive after a loaded drill")
for gone in ("sealed_unpersisted", "last_durable_stamp"):
    if gone in rep:
        sys.exit(f"forensics -json still carries the deleted {gone} field")
kinds = {e["kind"] for e in rep["events"]}
if not kinds or kinds - {"boot", "stall"}:
    sys.exit(f"recorder event kinds {sorted(kinds)}, want a non-empty subset of boot/stall")
print(f"forensics gate: frontier {rep['log_frontier']}, "
      f"{len(rep['events'])} recorder events, verified against recovery")
EOF
rm -f "$CRASH_IMG" /tmp/dude.check.report.json

echo "== replicated failover gate (1 primary / 2 replicas, primary killed mid-load)"
# The replicated netbank drill: client acks gate on a 2/2 replica
# quorum, the primary is killed mid-load (pool, server and sender all
# die), and the drill itself checks AuditRecovery plus conservation and
# acknowledged-generation presence on the promoted replica's crash
# image. The forensic decoder then independently verifies that image:
# its reported frontier must match what recovery restores from it.
REPL_IMG=/tmp/dude.check.repl.img
rm -f "$REPL_IMG"
go run ./examples/netbank -replicas 2 -crash-image "$REPL_IMG"
test -s "$REPL_IMG" || { echo "replicated drill wrote no crash image"; exit 1; }
/tmp/dudectl.check forensics -json -verify "$REPL_IMG" >/dev/null \
    || { echo "promoted replica image failed forensic verification"; exit 1; }
rm -f "$REPL_IMG"

echo "== repository benchmark smoke (all workloads + drills at -quick scale)"
# The yardstick itself, at smoke scale: all four workloads, then the
# recovery, power-failure and replica drills with their full audits. It
# exits non-zero on any failed operation, lost acknowledged write or
# unmeasured metric, so a log-format or replay change is audited
# end to end on every PR (numbers at this scale are not a verdict).
go run ./benchmark -seed 7 -quick >/tmp/dude.check.benchmark.txt 2>&1 \
    || { tail -n 40 /tmp/dude.check.benchmark.txt; echo "benchmark -quick failed"; exit 1; }
tail -n 1 /tmp/dude.check.benchmark.txt | cut -c1-200
rm -f /tmp/dude.check.benchmark.txt

echo "ok: all tier-1 checks passed"
