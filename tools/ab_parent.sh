#!/usr/bin/env bash
# A/B the working tree against a parent commit with the repo benchmark.
#
# Automates the "On a parent commit" recipe of benchmark/README.md and the
# pairing rule of the choosing-metrics guide (§8): the benchmark of the tree
# under test measures both sides, each side is built once into its own
# CARGO_TARGET_DIR, and the two binaries run in alternating pairs (odd pairs
# parent first, even pairs change first) with the same --seed/--seconds.
#
#   tools/ab_parent.sh --seed N [--parent REV] [--pairs 10] [--seconds S]
#                      [--workloads "a b"] [--trace 0|1] [--out DIR]
#                      [--json FILE]
#
#   --seed       required: use one that was not used while the change was
#                written (the claim has to hold on an unseen seed)
#   --parent     commit to compare against (default HEAD: A/B of uncommitted
#                work; use HEAD~1 after committing)
#   --seconds    measured seconds per run (default: BENCHMARK.json run_seconds)
#   --workloads  subset of the BENCHMARK.json workloads (default: all)
#   --trace 1    traced runs: prints the per-layer metrics instead
#   --out        scratch directory for the parent checkout, both target
#                directories and runs.tsv (default $TMPDIR/rdg-ab); reusing
#                it skips the rebuilds
#   --json       also write the table as one JSON document (the per-PR
#                `BENCH_<pr>.json` snapshot): per workload and metric both
#                sides' q1/median/q3, pairs won/lost and the verdict, with
#                the machine fingerprint, seed and pair count
#
# Prints, per workload and metric: each side's median and quartiles, the
# relative change of the medians, and the pairs the change won / lost.
# A gain is claimed only with >= 9/10 of the pairs won and medians apart by
# more than the parent's own interquartile distance; the verdict column
# applies exactly that rule, and the BENCHMARK.json bound for regressions.
set -euo pipefail

repo=$(cd "$(dirname "$0")/.." && pwd)
parent=HEAD pairs=10 seed= seconds= workloads= trace=0 out=${TMPDIR:-/tmp}/rdg-ab json_out=
while [ $# -gt 0 ]; do
    case $1 in
        --parent) parent=$2 ;;
        --pairs) pairs=$2 ;;
        --seed) seed=$2 ;;
        --seconds) seconds=$2 ;;
        --workloads) workloads=$2 ;;
        --trace) trace=$2 ;;
        --out) out=$2 ;;
        --json) json_out=$2 ;;
        *) sed -n '2,32p' "$0" >&2; exit 2 ;;
    esac
    shift 2
done
[ -n "$seed" ] || { echo "--seed is required (one not used during development)" >&2; exit 2; }

json() { python3 -c "import json,sys; d=json.load(open('$repo/BENCHMARK.json')); print($1)"; }
[ -n "$seconds" ] || seconds=$(json "d['run_seconds']")
[ -n "$workloads" ] || workloads=$(json "' '.join(w['name'] for w in d['workloads'])")

# The parent's program, measured by this tree's benchmark.
rev=$(git -C "$repo" rev-parse "$parent")
mkdir -p "$out"
if [ "$(cat "$out/parent.rev" 2>/dev/null)" != "$rev" ]; then
    rm -rf "$out/parent" "$out/tgt-parent"
    mkdir -p "$out/parent"
    git -C "$repo" archive "$rev" | tar -x -C "$out/parent"
    echo "$rev" > "$out/parent.rev"
fi
rm -rf "$out/parent/benchmark"
tar -C "$repo" --exclude=benchmark/target --exclude=benchmark/out -c benchmark BENCHMARK.json |
    tar -x -C "$out/parent"

build() { # <checkout> <target dir>
    (cd "$1" && CARGO_TARGET_DIR=$2 cargo build --release --offline --quiet \
        --manifest-path benchmark/Cargo.toml)
}
build "$out/parent" "$out/tgt-parent"
build "$repo" "$out/tgt-change"

run() { # <side> <workload> <pair>: appends "workload pair side metric value" rows
    local dir=$out/parent
    [ "$1" = change ] && dir=$out/cwd-change && mkdir -p "$dir"
    local text line status=0
    text=$(cd "$dir" && "$out/tgt-$1/release/rdg_benchmark" --workload "$2" \
        --seed "$seed" --seconds "$seconds" --trace "$trace") || status=$?
    line=${text##*$'\n'}
    [ -s "$out/fingerprint" ] || grep -m 1 '^fingerprint:' <<<"$text" > "$out/fingerprint" || true
    [ $status -eq 0 ] || echo "  !! $1 $2 pair $3: exit $status (mismatch, failure or refusal)" >&2
    python3 - "$2" "$3" "$1" "$line" >> "$out/runs.tsv" <<'EOF'
import json, sys
w, pair, side, line = sys.argv[1:5]
d = json.loads(line)
print(w, pair, side, "failed_frac", d["failed"] / max(d["attempted"], 1), sep="\t")
for name, m in d["metrics"].items():
    print(w, pair, side, name, m["value"], sep="\t")
EOF
}

: > "$out/runs.tsv"
: > "$out/fingerprint"
echo "parent $rev vs working tree; seed $seed, $seconds s, $pairs pairs, trace $trace, nproc $(nproc)"
for w in $workloads; do
    for p in $(seq 1 "$pairs"); do
        if [ $((p % 2)) -eq 1 ]; then run parent "$w" "$p"; run change "$w" "$p"
        else run change "$w" "$p"; run parent "$w" "$p"; fi
        echo "  $w pair $p/$pairs done" >&2
    done
done

python3 - "$repo/BENCHMARK.json" "$out/runs.tsv" "$json_out" "$rev" "$seed" "$seconds" "$trace" \
    "$(cat "$out/fingerprint")" <<'EOF'
import collections, json, statistics, sys
bench = json.load(open(sys.argv[1]))
spec = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}
runs = collections.defaultdict(dict)  # (workload, metric) -> pair -> side -> value
order = []
for row in open(sys.argv[2]):
    w, pair, side, metric, value = row.rstrip("\n").split("\t")
    if (w, metric) not in runs:
        order.append((w, metric))
    runs[w, metric].setdefault(pair, {})[side] = float(value)

def q(xs):  # quartiles the way benchmark/src/stats.rs takes them (exclusive method)
    return tuple(statistics.quantiles(xs, n=4)) if len(xs) > 1 else (xs[0],) * 3

last = None
doc = dict(zip(("parent", "seed", "seconds", "trace", "fingerprint"), sys.argv[4:9]), workloads={})
for w, metric in order:
    pairs = [p for p in runs[w, metric].values() if len(p) == 2]
    a = [p["parent"] for p in pairs]
    b = [p["change"] for p in pairs]
    if not pairs or (max(a + b) == 0 and metric != "failed_frac"):
        continue  # a per-layer metric that does not apply to this workload
    if w != last:
        print(f"\n== {w} ({len(pairs)} pairs)")
        print(f"{'metric':30} {'parent q1/med/q3':>34} {'change q1/med/q3':>34} {'change':>8} {'won/lost':>8}  verdict")
        last = w
    higher = spec.get(metric, {}).get("better", "lower") == "higher"
    won = sum((y > x) if higher else (y < x) for x, y in zip(a, b))
    lost = sum((y < x) if higher else (y > x) for x, y in zip(a, b))
    (a1, am, a3), (b1, bm, b3) = q(a), q(b)
    rel = (bm - am) / am if am else 0.0
    gain = rel if higher else -rel
    bound = spec.get(metric, {}).get("bound")
    if metric == "failed_frac":
        verdict = "ok" if bm <= am else "MORE FAILURES"
    elif won >= 0.9 * len(pairs) and abs(bm - am) > (a3 - a1):
        verdict = "better"
    elif bound is not None and -gain > bound:
        verdict = "WORSE THAN BOUND"
    elif bound is not None and (a3 - a1) > bound * am:
        verdict = "unresolved (spread > bound)"
    else:
        verdict = "within bound" if bound is not None else ""
    fmt = lambda x: f"{x:.4g}"  # the table and the JSON carry the same digits
    print(f"{metric:30} {'/'.join(map(fmt, (a1, am, a3))):>34} {'/'.join(map(fmt, (b1, bm, b3))):>34} "
          f"{rel:>+8.1%} {f'{won}/{lost}':>8}  {verdict}")
    side = lambda q1, med, q3: {k: float(fmt(v)) for k, v in (("q1", q1), ("median", med), ("q3", q3))}
    doc["workloads"].setdefault(w, {"pairs": len(pairs), "metrics": {}})["metrics"][metric] = {
        "parent": side(a1, am, a3), "change": side(b1, bm, b3),
        "rel_change": round(rel, 4), "won": won, "lost": lost, "verdict": verdict}
if sys.argv[3]:
    with open(sys.argv[3], "w") as f:
        json.dump(doc, f, indent=1)
        f.write("\n")
EOF
