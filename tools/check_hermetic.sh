#!/usr/bin/env bash
# Verify the workspace builds and tests hermetically — no network, no
# external crates — that no source file imports an external dependency,
# and that the paper artifacts and the counted work are what is committed.
#
# The seed of this repo failed to build offline because workspace crates
# pulled external crates (the import scan's deny pattern, last step)
# from a registry that is empty in the build environment. Everything now
# runs on the in-tree `substrate` crate; this script is the regression
# gate for that property. Run it from the repo root:
#
#   tools/check_hermetic.sh
#
# Nothing here judges wall-clock: a committed host-time baseline passes
# or fails on which of its speed levels the host is at (benchmark/NOISE.md),
# so `tshmem-benchmark compare` lives in tools/bench.sh. The two
# measurement steps gate what repeats exactly: the simulated figures and
# the counted work. On the 2-vCPU host the figure gate takes about two
# minutes (102-130 s measured) and the counted-work gate 11-16 s.
set -euo pipefail

cd "$(dirname "$0")/.."

echo "== hermetic build (offline, release) =="
cargo build --release --offline

echo "== clippy (offline, warnings are errors) =="
cargo clippy --workspace --offline --all-targets -- -D warnings

echo "== rustdoc (offline, warnings are errors) =="
# A doc link to a deleted or private item would otherwise rot silently.
# benchmark/ is its own workspace and stays out of this step.
RUSTDOCFLAGS='-D warnings' cargo doc --workspace --no-deps --offline

echo "== hermetic tests (offline, tier-1 root package) =="
cargo test -q --offline

echo "== hermetic tests (offline, full workspace incl. stress suites) =="
cargo test -q --offline --workspace

echo "== repo benchmark (own workspace: offline build + quick correctness run of every workload) =="
# benchmark/ is its own workspace, so no step above compiles it: a core
# API removal that breaks it would otherwise pass this gate.
cargo build --release --offline --manifest-path benchmark/Cargo.toml
bench=benchmark/target/release/tshmem-benchmark
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
for w in rma_native coll_flat32 coll_hier256 fft2d_app timed_paper server_jobs; do
    "$bench" --workload "$w" --seed 1 --quick --trace 0 | tail -n 1 | W="$w" python3 -c '
import json, os, sys
r = json.loads(sys.stdin.read())
if not (r["failed"] == 0 and r["correct"] is True and r["attempted"] > 0):
    sys.exit("FAIL: benchmark workload %s: %s" % (os.environ["W"], r))
print("OK: %s correct, %d attempted, 0 failed" % (os.environ["W"], r["attempted"]))
'
done

echo "== stress harness replay demo (seeded, supervised launch) =="
cargo run -q --offline -p stress -- --seed 0x2 --pes 4 --depth 2

echo "== fault matrix (3 canned plans x four engines, supervised launches) =="
# Every seeded fault plan must either be tolerated (exit 0: the run
# converges to the oracle) or be caught by the launch's supervision with
# a diagnosis (exit 2). Any other exit — especially a hang — fails the gate. The
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

echo "== locality equivalence suite (coop fast paths on vs off) =="
# The same-worker fast paths are transport substitutions: flipping
# `fault::set_coop_locality` must not change final state (sequential
# oracle) or API-level Stats on seeded programs, and a flip while a
# launch runs must not reach it. Runs inside the workspace pass too;
# this named step keeps the ablation gate visible.
cargo test -q --offline -p stress --test locality_equivalence

echo "== equivalence suites (RMA fast paths, nbi completion, admission geometry, virtual-time disciplines, native vs timed) =="
# Each suite runs one seeded program two ways — a per-launch reference
# arm (`[Fault::GeneralRmaPaths]`, `[Fault::EagerNbi]`) or another
# config or backend — and requires the oracle's final state on both and
# equal Stats. Native vs timed is its own binary: it turns the
# process-wide locality knob off. Also inside the workspace pass; named
# here like the locality step.
cargo test -q --offline -p stress --test equivalence --test native_timed_equivalence

echo "== figure gate (regenerate Tables I-III, Figs. 3-14 and the ablations; any changed byte fails) =="
# Every artifact is computed under virtual time, so it is a pure function
# of the source: a cost-model or algorithm change that moves a simulated
# number shows here as a diff, and is committed with figures/ or not at all.
cargo run -q --release --offline -p microbench -- --out "$tmp/figures" > /dev/null
diff -r figures "$tmp/figures"
echo "OK: $(ls figures | wc -l) artifacts reproduce figures/ byte for byte"

echo "== counted-work gate (one full-size traced run against the traced line of BENCH.jsonl) =="
# These twelve per-layer metrics are counts or simulated times, not host
# times: they must equal the committed ones exactly. Two of them pin the
# coop engine's transport selection (`ShmemCtx::select`):
# `sync.udn_sends_per_barrier_32` is 0 — the default `barrier_all` of 32
# PEs behind one gate is one counter-cell pass inside the one shard and
# sends no channel token at all (it was the ring's 2n = 64 while the
# pass was fenced in past 64 PEs) — and `sync.udn_sends_per_barrier_256`
# is 0 too: the four shard leaders meet on a root cell, not by channel
# tokens (it was 8, their dissemination). The one ratio gate is
# host time over host time inside one run: at 256 PEs an 8-word reduce
# rides the same counter-cell pass as the barrier, so it may cost at
# most two of them whatever the host's speed (it cost 4.5 before the
# fused pass).
python3 - "$bench" "$tmp" <<'PYEOF'
import json, subprocess, sys
EXACT = """rma.redirected_frac rma.locality_hit_frac sync.udn_sends_per_barrier_32
sync.udn_sends_per_barrier_256 timed.sim_makespan_ps timed.sim_clock_hash trace.sim_copy_s
trace.sim_wait_s trace.sim_udn_send_s server.arena_recycled_frac server.rejected_frac
server.retries""".split()
def runs(lines):
    docs = [json.loads(l) for l in lines if l.startswith("{")]
    return [(p["provenance"], r) for p, r in zip(docs[::2], docs[1::2])]
prov, want = next(run for run in runs(open("BENCH.jsonl")) if run[0]["trace"] == 1)
out = subprocess.run([sys.argv[1], "--workload", prov["workload"], "--seed", str(prov["seed"]),
                      "--trace", "1", "--out-dir", sys.argv[2]],
                     check=True, stdout=subprocess.PIPE, text=True).stdout
got = runs(out.splitlines())[0][1]
if not (got["correct"] is True and got["failed"] == 0):
    sys.exit("FAIL: traced run: %s" % {k: got[k] for k in ("correct", "attempted", "failed")})
moved = [m for m in EXACT if got["metrics"][m]["value"] != want["metrics"][m]["value"]]
for m in moved:
    print("FAIL: %s = %r, BENCH.jsonl has %r" % (m, got["metrics"][m]["value"], want["metrics"][m]["value"]),
          file=sys.stderr)
rob = got["metrics"]["collectives.reduce_over_barrier_256"]["value"]
if rob > 2.0:
    print("FAIL: collectives.reduce_over_barrier_256 = %.2f (gate: <= 2): the reduce has left "
          "the counter-cell pass or grown a second synchronization" % rob, file=sys.stderr)
if moved or rob > 2.0:
    sys.exit(1)
print("OK: %d counted metrics equal BENCH.jsonl; reduce/barrier at 256 PEs %.2f" % (len(EXACT), rob))
PYEOF

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

echo "== hot-path allocation allowlist (rma / barrier / wall + coop / timed / fabric / collectives / server + arena + supervisor / lanes / desim / handoff core + stacks / cachesim) =="
# The RMA and barrier hot paths are allocation-free by design, and the
# wall fabric, its M:N admission gate, the virtual-time fabric with
# the send/recv path every simulated message crosses (engine/timed.rs),
# the progress hook every fabric op of either fabric runs (fabric.rs),
# the cell pass, the collectives that run on it and off it (reduce
# with its per-chunk fold, broadcast, collect, alltoall), the
# timed-engine event core and scheduler, the handoff core both the
# admission gate and that scheduler run on (substrate/src/baton.rs:
# every grant, park and yield), the stacks that scheduler's LPs run
# on (substrate/src/stack.rs: every ready, suspend and switch), and the
# cache simulator every
# simulated copy runs through (cachesim: the tile caches, the copy-cost
# model, the DDC directory and the memory system) stay on that diet: any `to_vec()`, `vec![` or
# `Vec::resize` (`.resize(` with arguments — a buffer grown per call, as
# the nbi stage once grew one per op in rma.rs unseen) there must carry a
# `// cold:` justification on the same line or one of the two lines
# above it. A warm server job attaches to resident lanes and a recycled
# segment set, so the two places that pay for a cold one — spawning a
# lane thread (tmc/src/task.rs) and allocating a fresh set
# (server/arena.rs) — are held to the same rule: a `thread::Builder` or
# `CommonMemory::new(` there needs its `// cold:` too. So are the server
# pool and the supervisor every server job runs under (core/src/watch.rs:
# `Launcher::run_watched` detaches the launch onto a lane and polls it),
# so that a thread spawned per job there must say why.
python3 - <<'PYEOF'
import re, sys
bad = []
for path in ("crates/core/src/rma.rs", "crates/core/src/sync/barrier.rs",
             "crates/core/src/engine/wall.rs", "crates/core/src/engine/coop.rs",
             "crates/core/src/engine/timed.rs", "crates/core/src/fabric.rs",
             "crates/core/src/collectives/hier.rs", "crates/core/src/collectives/reduce.rs",
             "crates/core/src/collectives/alltoall.rs", "crates/core/src/collectives/collect.rs",
             "crates/core/src/collectives/broadcast.rs",
             "crates/core/src/server/pool.rs", "crates/core/src/server/arena.rs",
             "crates/core/src/watch.rs", "crates/tmc/src/task.rs",
             "crates/desim/src/events.rs", "crates/desim/src/coop.rs",
             "crates/substrate/src/baton.rs", "crates/substrate/src/stack.rs",
             "crates/cachesim/src/cache.rs", "crates/cachesim/src/copymodel.rs",
             "crates/cachesim/src/ddc.rs", "crates/cachesim/src/memsys.rs"):
    lines = open(path).read().splitlines()
    # The diet covers runtime code only: stop at the unit-test module.
    for i, line in enumerate(lines):
        if line.lstrip().startswith("#[cfg(test)]"):
            lines = lines[:i]
            break
    for i, line in enumerate(lines):
        pattern = r'\.to_vec\(\)|vec!\[|\.resize\([^)]'
        if path.endswith(("server/arena.rs", "tmc/src/task.rs", "server/pool.rs", "core/src/watch.rs")):
            pattern += r'|thread::Builder|CommonMemory::new\('
        if re.search(pattern, line) and "// cold:" not in line:
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

echo "== one wait (wall + coop + baton: every wall-clock wait is a baton park) =="
# A wall-clock context waits in exactly one way: parked on its grant
# flag in the gates' handoff core (substrate/src/baton.rs), woken by the
# grant that admits it or by an abort's `wake_all`. Every context is a
# stack on its gate's carrier thread (substrate/src/stack.rs), and a park
# suspends the stack: a stack that blocked its carrier thread would stop
# every sibling on it, and an abort reaches only the waits it can grant.
# So the runtime code of the wall fabric, its gate and the handoff core
# may not block a thread any other way: no channel receive with a
# timeout, no sleep, no timed park at all (an injected delay suspends
# until a deadline; the one timed wait left is the carrier's idle park,
# bounded by the earliest such deadline, in stack.rs), no blocking
# endpoint send or receive. Fails naming file:line.
python3 - <<'PYEOF'
import re, sys
WAITS = re.compile(r'recv_timeout\(|thread::sleep|park_timeout\(|\.(send|recv)\(')
bad = []
for path in ("crates/core/src/engine/wall.rs", "crates/core/src/engine/coop.rs", "crates/substrate/src/baton.rs"):
    lines = open(path).read().splitlines()
    for i, line in enumerate(lines):
        if line.lstrip().startswith("#[cfg(test)]"):
            lines = lines[:i]
            break
    for i, line in enumerate(lines):
        if WAITS.search(line.split("//")[0]):
            bad.append(f"{path}:{i + 1}: {line.strip()}")
if bad:
    print("FAIL: a wall-clock wait that is not a baton park:", file=sys.stderr)
    for b in bad:
        print("  " + b, file=sys.stderr)
    sys.exit(1)
print("OK: every wall-clock wait is a baton park")
PYEOF

echo "== external-import scan (every source tree) =="
# Every source tree must be std + substrate only.
pattern='use (parking_lot|crossbeam|rand|proptest|criterion)'
scan_dirs=()
for d in crates src tests examples benchmark/src benchmark/tests; do
    [ -d "$d" ] && scan_dirs+=("$d")
done
hits=$(grep -rnE "$pattern" "${scan_dirs[@]}" --include='*.rs' || true)
if [ -n "$hits" ]; then
    echo "FAIL: external dependency imports:" >&2
    echo "$hits" >&2
    exit 1
fi
echo "OK: no external imports"

echo "== FFI allowlist (every extern block declares only the libc symbols std already links) =="
# "std + in-tree only" stays reviewable with foreign declarations in the
# tree: common memory and context stacks map their pages (one shim,
# substrate/src/pages.rs), the benchmark pins CPUs and reads its peak
# RSS. Any other symbol in an `extern` block fails, named with
# its file:line.
python3 - <<'PYEOF'
import os, re, sys
ALLOWED = {"mmap", "munmap", "sched_setaffinity", "sched_getaffinity", "getrusage"}
bad, seen = [], 0
for root in ("crates", "src", "tests", "examples", "benchmark/src"):
    for dirpath, _, files in os.walk(root):
        for f in sorted(files):
            if not f.endswith(".rs"):
                continue
            path = os.path.join(dirpath, f)
            lines = [l.split("//")[0] for l in open(path).read().splitlines()]
            depth = 0  # brace depth inside an extern block; 0 = outside
            for i, line in enumerate(lines, 1):
                if depth == 0:
                    m = re.search(r'\bextern\s*(?:"[^"]*")?\s*\{', line)
                    if not m:
                        continue
                    line = line[m.end():]
                    depth = 1
                for item in re.finditer(r'\b(?:fn|static(?:\s+mut)?|type)\s+(\w+)', line):
                    seen += 1
                    if item.group(1) not in ALLOWED:
                        bad.append(f"{path}:{i}: {item.group(1)}")
                depth += line.count("{") - line.count("}")
if bad:
    print("FAIL: foreign symbols outside the allowlist (%s):" % ", ".join(sorted(ALLOWED)), file=sys.stderr)
    for b in bad:
        print("  " + b, file=sys.stderr)
    sys.exit(1)
print("OK: %d foreign declarations, all on the allowlist" % seen)
PYEOF

echo "hermetic check passed"
