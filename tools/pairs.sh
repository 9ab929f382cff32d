#!/usr/bin/env bash
# Paired benchmark runs of this checkout against a parent commit:
#
#   tools/pairs.sh PARENT PAIRS [WORKLOAD...]
#
# builds PARENT's benchmark from a `git archive` export under
# target/pairs/ and this checkout's in place, then runs PAIRS pairs of
# each WORKLOAD (default: every workload BENCHMARK.json names) through
# the manifest's command, `--workload W --seed S` appended: pair i runs
# both sides at seed i, and which side runs first alternates pair by
# pair. Every run's provenance and result lines go to $OUT (default
# runs/pairs.jsonl), one JSON object per run tagged with its side, seed
# and order (0 = ran first in its pair).
#
# The table printed last gives, per workload and end-to-end metric: the
# median of the per-pair ratios change/parent, the pairs on which the
# change is ahead, the two-sided sign-test p-value over the pairs that
# differ, the parent's quartile distance as a share of its median, and
# the verdict of `tshmem-benchmark compare PARENT CHANGE`. Exit 1 when a
# run is not `correct`, has a failed operation, or does not attempt as
# many operations as its pair partner. Wall-clock only means something
# on an otherwise idle machine (benchmark/NOISE.md).
set -euo pipefail
parent=${1:?usage: tools/pairs.sh PARENT PAIRS [WORKLOAD...]}
pairs=${2:?usage: tools/pairs.sh PARENT PAIRS [WORKLOAD...]}
shift 2
cd "$(dirname "$0")/.."
here=$(pwd)
out=$(realpath -m "${OUT:-runs/pairs.jsonl}")
sha=$(git rev-parse --verify "$parent^{commit}")
workloads=("$@")
if [ ${#workloads[@]} -eq 0 ]; then
    mapfile -t workloads < <(python3 -c '
import json
for w in json.load(open("BENCHMARK.json"))["workloads"]:
    print(w["name"])')
fi
mapfile -t cmd < <(python3 -c '
import json
print("\n".join(json.load(open("BENCHMARK.json"))["command"]))')

base=target/pairs/$sha
if [ ! -d "$base" ]; then
    mkdir -p "$base.tmp"
    git archive "$sha" | tar -x -C "$base.tmp"
    mv "$base.tmp" "$base"
fi
for root in "$base" "$here"; do
    (cd "$root" && cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml)
done

raw=$(mktemp -d)
trap 'rm -rf "$raw"' EXIT
mkdir -p "$raw/parent" "$raw/change" "$(dirname "$out")"
: > "$out"
run() { # SIDE ROOT WORKLOAD SEED ORDER
    local file="$raw/$1/$3-$4.out"
    (cd "$2" && "${cmd[@]}" --workload "$3" --seed "$4") > "$file"
    SIDE=$1 SEED=$4 ORDER=$5 python3 -c '
import json, os, sys
docs = [json.loads(l) for l in open(sys.argv[1]) if l.startswith("{")]
print(json.dumps({"side": os.environ["SIDE"], "seed": int(os.environ["SEED"]),
                  "order": int(os.environ["ORDER"]), "provenance": docs[0]["provenance"],
                  "result": docs[-1]}))' "$file" >> "$out"
}
for w in "${workloads[@]}"; do
    for seed in $(seq 1 "$pairs"); do
        echo "pair $seed/$pairs of $w" >&2
        if [ $((seed % 2)) -eq 1 ]; then
            run parent "$base" "$w" "$seed" 0
            run change "$here" "$w" "$seed" 1
        else
            run change "$here" "$w" "$seed" 0
            run parent "$base" "$w" "$seed" 1
        fi
    done
done

verdicts=$(benchmark/target/release/tshmem-benchmark compare "$raw/parent" "$raw/change" || true)
VERDICTS=$verdicts python3 - "$out" <<'PYEOF'
import json, math, os, statistics, sys
from collections import defaultdict

manifest = json.load(open("BENCHMARK.json"))
verdict = {}
for line in os.environ["VERDICTS"].splitlines()[1:]:
    t = line.split()
    if "(bound" in t:
        verdict[(t[0], t[1])] = t[t.index("(bound") - 1]

runs = defaultdict(dict)  # (workload, seed) -> side -> result
for line in open(sys.argv[1]):
    r = json.loads(line)
    runs[(r["provenance"]["workload"], r["seed"])][r["side"]] = r["result"]

bad = []
for (w, seed), sides in sorted(runs.items()):
    for side, r in sides.items():
        if r["correct"] is not True or r["failed"] != 0:
            bad.append("%s seed %d %s: correct %s, failed %s" % (w, seed, side, r["correct"], r["failed"]))
    if len({r["attempted"] for r in sides.values()}) != 1:
        bad.append("%s seed %d: attempted differs: %s" % (w, seed, {s: r["attempted"] for s, r in sides.items()}))

def sign_p(k, n):
    """Two-sided sign test: P(a split at least as uneven as k of n)."""
    if n == 0:
        return 1.0
    tail = sum(math.comb(n, i) for i in range(min(k, n - k) + 1)) / 2 ** n
    return min(1.0, 2 * tail)

print("%-13s %-8s %5s %8s %6s %7s %10s  %s" % ("workload", "metric", "pairs", "ratio", "ahead", "p", "parent iqr", "compare"))
workloads = [w["name"] for w in manifest["workloads"]]
for w in workloads:
    seeds = sorted(s for (x, s) in runs if x == w)
    for m in manifest["end_to_end"]:
        name, lower = m["name"], m["better"] == "lower"
        pairs = [(runs[(w, s)]["parent"]["metrics"][name]["value"],
                  runs[(w, s)]["change"]["metrics"][name]["value"])
                 for s in seeds if name in runs[(w, s)]["parent"]["metrics"]]
        if not pairs:
            continue
        ratio = statistics.median(c / p for p, c in pairs)
        ahead = sum((c < p) if lower else (c > p) for p, c in pairs)
        differ = sum(c != p for p, c in pairs)
        par = [p for p, _ in pairs]
        iqr = float("nan")
        if len(par) >= 2:
            q1, q2, q3 = statistics.quantiles(par, n=4)
            iqr = (q3 - q1) / q2
        print("%-13s %-8s %5d %8.4f %6s %7.3f %10.4f  %s" % (
            w, name, len(pairs), ratio, "%d/%d" % (ahead, differ), sign_p(ahead, differ), iqr,
            verdict.get((w, name), "-")))
for b in bad:
    print("FAIL: " + b, file=sys.stderr)
sys.exit(1 if bad else 0)
PYEOF
