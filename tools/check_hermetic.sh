#!/usr/bin/env bash
# Verify the workspace builds and tests hermetically — no network, no
# external crates — and that no source file outside crates/bench imports
# an external dependency.
#
# The seed of this repo failed to build offline because workspace crates
# pulled parking_lot / crossbeam_channel / rand / proptest / criterion
# from a registry that is empty in the build environment. Everything now
# runs on the in-tree `substrate` crate; this script is the regression
# gate for that property. Run it from the repo root:
#
#   tools/check_hermetic.sh
set -euo pipefail

cd "$(dirname "$0")/.."

echo "== hermetic build (offline, release) =="
cargo build --release --offline

echo "== clippy (offline, warnings are errors) =="
cargo clippy --workspace --offline --all-targets -- -D warnings

echo "== hermetic tests (offline, tier-1 root package) =="
cargo test -q --offline

echo "== hermetic tests (offline, full workspace incl. stress suites) =="
cargo test -q --offline --workspace

echo "== repo benchmark (own workspace: offline build + quick correctness run) =="
# benchmark/ is its own workspace, so no step above compiles it: a core
# API removal that breaks it would otherwise pass this gate. One native
# and one coop workload cover both admission policies of the wall fabric.
cargo build --release --offline --manifest-path benchmark/Cargo.toml
for w in rma_native coll_hier256; do
    cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- \
        --workload "$w" --seed 1 --quick --trace 0 | tail -n 1 | W="$w" python3 -c '
import json, os, sys
r = json.loads(sys.stdin.read())
if not (r["failed"] == 0 and r["correct"] is True and r["attempted"] > 0):
    sys.exit("FAIL: benchmark workload %s: %s" % (os.environ["W"], r))
print("OK: %s correct, %d attempted, 0 failed" % (os.environ["W"], r["attempted"]))
'
done

echo "== stress harness replay demo (seeded, watchdog armed) =="
cargo run -q --offline -p stress -- --seed 0x2 --pes 4 --depth 2

echo "== fault matrix (3 canned plans x four engines, watchdog armed) =="
# Every seeded fault plan must either be tolerated (exit 0: the run
# converges to the oracle) or be caught by the watchdog with a diagnosis
# (exit 2). Any other exit — especially a hang — fails the gate. The
# coop rows run 4 PEs on 2 workers, so injected delays also cross the
# gate-release-around-sleep path.
for plan in 0x11 0x21 0x31; do
    for engine in native timed multichip coop; do
        echo "-- fault plan $plan on $engine --"
        rc=0
        cargo run -q --offline -p stress -- \
            --seed 0x5 --pes 4 --depth 2 --engine "$engine" \
            --fault-plan "$plan" || rc=$?
        if [ "$rc" -ne 0 ] && [ "$rc" -ne 2 ]; then
            echo "FAIL: fault plan $plan on $engine exited $rc (want 0 or 2)" >&2
            exit 1
        fi
    done
done

echo "== perf smoke (native suite, hermetic, schema-checked) =="
# The perf gate must *run* and emit well-formed JSON on every commit;
# thresholds are reported (vs BENCH_native_baseline.json, when present)
# but not enforced until a bench trajectory exists. --quick keeps the
# smoke under a minute; full numbers come from the un-flagged run
# documented in EXPERIMENTS.md.
cargo build -q --release --offline -p microbench
./target/release/microbench --native-suite --quick --out BENCH_native_smoke.json
python3 - <<'PYEOF'
import json, sys
with open("BENCH_native_smoke.json") as f:
    doc = json.load(f)
for key in ("suite", "npes", "benchmarks", "traced_over_untraced"):
    assert key in doc, f"BENCH_native_smoke.json missing key: {key}"
assert doc["benchmarks"], "BENCH_native_smoke.json has no benchmarks"
for name, b in doc["benchmarks"].items():
    assert b.get("ns_per_op", 0) > 0, f"{name}: non-positive ns_per_op"
try:
    with open("BENCH_native.json") as f:
        ref = json.load(f)["benchmarks"]
    for name, b in doc["benchmarks"].items():
        if name in ref and ref[name]["ns_per_op"] > 0:
            r = b["ns_per_op"] / ref[name]["ns_per_op"]
            print(f"  {name:24s} {b['ns_per_op']:12.1f} ns/op  ({r:5.2f}x of committed)")
except FileNotFoundError:
    print("  (no committed BENCH_native.json to compare against)")
print("perf smoke: schema OK")
PYEOF
rm -f BENCH_native_smoke.json

echo "== locality equivalence suite (coop fast paths on vs off) =="
# The same-worker fast paths are transport substitutions: flipping
# `fault::set_coop_locality` must not change final state (sequential
# oracle) or API-level Stats on seeded gen-v4 programs. Runs inside the
# workspace pass too; this named step keeps the ablation gate visible.
cargo test -q --offline -p stress --test locality_equivalence

echo "== scaling smoke (coop suite, 64/256/1024 PEs, schema-checked) =="
# The M:N scaling suite must run to completion (a 1024-PE barrier
# finishing at all is part of the check) and emit well-formed JSON with
# both barrier algorithms plus the locality-on ablation rows measured
# at every scale, and the resolved worker count recorded (never the
# raw `0` auto-size request). Speed ratios against the committed
# BENCH_coop.json are reported, not enforced; one ratio *inside* the
# run is: at 256 PEs a shard-aligned 8-word reduce rides the same
# counter-cell pass as the barrier, so it may cost at most two of them
# whatever the host's speed (it cost 4.5 before the fused pass, 18 at
# 1024 PEs).
./target/release/microbench --coop-suite --quick --out BENCH_coop_smoke.json
python3 - <<'PYEOF'
import json
with open("BENCH_coop_smoke.json") as f:
    doc = json.load(f)
for key in ("suite", "workers", "workers_requested", "entries"):
    assert key in doc, f"BENCH_coop_smoke.json missing key: {key}"
assert doc["suite"] == "coop"
assert doc["workers"] > 0, "top-level workers not resolved (auto-size bug)"
scales = sorted(e["npes"] for e in doc["entries"])
assert scales == [64, 256, 1024], f"unexpected scales: {scales}"
for e in doc["entries"]:
    assert e["workers"] > 0, f"{e['npes']} PEs: unresolved workers"
    for name in ("barrier_flat_dissemination", "barrier_hier",
                 "barrier_hier_local", "reduce_hier", "reduce_hier_local"):
        ns = e["benchmarks"][name]["ns_per_op"]
        assert ns > 0, f"{e['npes']} PEs {name}: non-positive ns_per_op"
    rob = e["reduce_over_barrier_local"]
    print(f"  {e['npes']:5d} PEs  hier/flat {e['hier_over_flat']:.3f}  "
          f"locality speedup {e['local_speedup']:.2f}x  reduce/barrier {rob:.2f}")
    if e["npes"] == 256:
        assert rob <= 2.0, (
            f"256 PEs: reduce_hier_local is {rob:.2f}x barrier_hier_local (gate: <= 2) — "
            "the reduce has left the counter-cell pass or grown a second synchronization")
print("coop scaling smoke: schema + reduce/barrier gate OK")
PYEOF
rm -f BENCH_coop_smoke.json

echo "== nbi overlap smoke (put trains + FFT transpose ablation, schema-checked) =="
# The nbi ablation must run and emit well-formed JSON with both arms of
# each pair measured. The blocking-vs-nbi ratios are reported, not
# enforced in the smoke (quick mode on a loaded CI box is noisy) — the
# committed BENCH_nbi.json is the reference trajectory showing the
# overlapped transpose beating the blocking one.
./target/release/microbench --nbi-suite --quick --out BENCH_nbi_smoke.json
python3 - <<'PYEOF'
import json
with open("BENCH_nbi_smoke.json") as f:
    doc = json.load(f)
for key in ("suite", "npes", "fft_n", "benchmarks",
            "nbi_over_blocking", "train_nbi_over_blocking"):
    assert key in doc, f"BENCH_nbi_smoke.json missing key: {key}"
assert doc["suite"] == "nbi"
for name in ("static_put_train_blocking", "static_put_train_nbi",
             "fft_transpose_blocking", "fft_transpose_nbi",
             "fft_transpose_direct"):
    ns = doc["benchmarks"][name]["ns_per_op"]
    assert ns > 0, f"{name}: non-positive ns_per_op"
print(f"  fft nbi/blocking {doc['nbi_over_blocking']:.3f}  "
      f"train nbi/blocking {doc['train_nbi_over_blocking']:.3f}")
print("nbi overlap smoke: schema OK")
PYEOF
rm -f BENCH_nbi_smoke.json

echo "== server suite smoke (pool throughput, schema-checked) =="
# The multi-tenant server suite must run fault-free to completion on
# both schedulers and emit well-formed JSON. Absolute jobs/sec is
# box-dependent and reported vs the committed BENCH_server.json, not
# enforced.
./target/release/microbench --server-suite --quick --out BENCH_server_smoke.json
python3 - <<'PYEOF'
import json
with open("BENCH_server_smoke.json") as f:
    doc = json.load(f)
for key in ("suite", "jobs", "pool_workers", "entries"):
    assert key in doc, f"BENCH_server_smoke.json missing key: {key}"
assert doc["suite"] == "server"
scheds = sorted(e["scheduler"] for e in doc["entries"])
assert scheds == ["fair", "round_robin"], f"unexpected schedulers: {scheds}"
for e in doc["entries"]:
    assert e["jobs_per_sec"] > 0, f"{e['scheduler']}: non-positive jobs/sec"
    assert 0 < e["p50_ns"] <= e["p99_ns"], f"{e['scheduler']}: bad latency quantiles"
try:
    with open("BENCH_server.json") as f:
        ref = {e["scheduler"]: e for e in json.load(f)["entries"]}
    for e in doc["entries"]:
        r = ref.get(e["scheduler"])
        if r and r["jobs_per_sec"] > 0:
            x = e["jobs_per_sec"] / r["jobs_per_sec"]
            print(f"  {e['scheduler']:12s} {e['jobs_per_sec']:8.1f} jobs/sec  "
                  f"({x:5.2f}x of committed)")
except FileNotFoundError:
    print("  (no committed BENCH_server.json to compare against)")
print("server suite smoke: schema OK")
PYEOF
rm -f BENCH_server_smoke.json

echo "== timed suite smoke (event core + virtual-time barriers, schema-checked) =="
# The timed-engine suite must run to completion — a 1024-PE (2048-LP)
# timed barrier finishing in both scheduling disciplines is part of the
# check — and emit well-formed JSON with both event cores and both
# disciplines measured. Ratios are reported vs the committed
# BENCH_timed.json and the hand-measured pre-refactor baseline in
# BENCH_timed_baseline.json, not enforced in the smoke.
./target/release/microbench --timed-suite --quick --out BENCH_timed_smoke.json
python3 - <<'PYEOF'
import json
with open("BENCH_timed_smoke.json") as f:
    doc = json.load(f)
for key in ("suite", "quick", "event_core", "barriers"):
    assert key in doc, f"BENCH_timed_smoke.json missing key: {key}"
assert doc["suite"] == "timed"
chains = sorted(e["chains"] for e in doc["event_core"]["entries"])
assert chains == [256, 1024, 16384], f"unexpected chain scales: {chains}"
for e in doc["event_core"]["entries"]:
    for k in ("calendar_events_per_sec", "heap_events_per_sec"):
        assert e[k] > 0, f"{e['chains']} chains: non-positive {k}"
scales = sorted(e["npes"] for e in doc["barriers"]["entries"])
assert scales == [64, 256, 1024], f"unexpected barrier scales: {scales}"
for e in doc["barriers"]["entries"]:
    for k in ("event_driven_ns_per_op", "cycle_box_ns_per_op"):
        assert e[k] > 0, f"{e['npes']} PEs: non-positive {k}"
    print(f"  {e['npes']:5d} PEs  cb/ed {e['cycle_box_over_event_driven']:.3f}")
try:
    with open("BENCH_timed_baseline.json") as f:
        base = json.load(f)["barrier_ns_per_op"]
    for e in doc["barriers"]["entries"]:
        b = base.get(str(e["npes"]), 0)
        if b > 0:
            print(f"  {e['npes']:5d} PEs  engine speedup vs pre-refactor: "
                  f"ed {b / e['event_driven_ns_per_op']:.2f}x  "
                  f"cb {b / e['cycle_box_ns_per_op']:.2f}x")
except FileNotFoundError:
    print("  (no BENCH_timed_baseline.json to compare against)")
print("timed suite smoke: schema OK")
PYEOF
rm -f BENCH_timed_smoke.json

echo "== server fault-mix smoke (open-loop serve, seeded hostile tenants) =="
# A short serve run with seeded panics and wedges: every healthy job
# must complete oracle-clean and every hostile one must resolve in its
# expected outcome class (Faulted / Evicted with diagnosis) — a pool
# stall or misclassified job exits non-zero and fails the gate.
cargo run -q --offline --release -p stress -- \
    --serve --jobs 60 --fault-frac 0.1 --seed 0x51

echo "== server PanicPe canary (one-shot caught-class fault) =="
# The injected PE panic must surface as exactly one Faulted job while
# the rest of the stream completes — the pool survives a crashing
# tenant without damage.
cargo run -q --offline --release -p stress -- \
    --serve --jobs 8 --panic-pe 1 --seed 0x55

echo "== hot-path allocation allowlist (rma / barrier / wall + coop / hier / server / desim) =="
# The RMA and barrier hot paths are allocation-free by design, and the
# wall fabric, its M:N admission gate, hierarchical collectives, and the
# timed-engine event core stay on that diet: any `to_vec()` or `vec![` there must carry a
# `// cold:` justification on the same line or one of the two lines
# above it.
python3 - <<'PYEOF'
import re, sys
bad = []
for path in ("crates/core/src/rma.rs", "crates/core/src/sync/barrier.rs",
             "crates/core/src/engine/wall.rs", "crates/core/src/engine/coop.rs",
             "crates/core/src/collectives/hier.rs",
             "crates/core/src/server/pool.rs",
             "crates/desim/src/events.rs", "crates/desim/src/coop.rs"):
    lines = open(path).read().splitlines()
    # The diet covers runtime code only: stop at the unit-test module.
    for i, line in enumerate(lines):
        if line.lstrip().startswith("#[cfg(test)]"):
            lines = lines[:i]
            break
    for i, line in enumerate(lines):
        if re.search(r'\.to_vec\(\)|vec!\[', line) and "// cold:" not in line:
            context = lines[max(0, i - 2) : i]
            if not any("// cold:" in c for c in context):
                bad.append(f"{path}:{i + 1}: {line.strip()}")
if bad:
    print("FAIL: unjustified allocation in a hot path (add a `// cold:` comment):",
          file=sys.stderr)
    for b in bad:
        print("  " + b, file=sys.stderr)
    sys.exit(1)
print("OK: hot-path allocations all carry `// cold:` justifications")
PYEOF

echo "== external-import scan (everything outside crates/bench) =="
# crates/bench is excluded from the workspace and holds the only
# permitted external dependency (criterion, behind --features
# bench-external); every other source tree must be std + substrate only.
pattern='use (parking_lot|crossbeam|rand|proptest|criterion)'
scan_dirs=()
for d in crates src tests examples; do
    [ -d "$d" ] && scan_dirs+=("$d")
done
hits=$(grep -rnE "$pattern" "${scan_dirs[@]}" --include='*.rs' | grep -v '^crates/bench/' || true)
if [ -n "$hits" ]; then
    echo "FAIL: external dependency imports outside crates/bench:" >&2
    echo "$hits" >&2
    exit 1
fi
echo "OK: no external imports outside crates/bench"

echo "hermetic check passed"
