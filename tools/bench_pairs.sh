#!/usr/bin/env bash
# Paired A/B runs of one perfbench workload: a parent revision against the
# current checkout, alternating which side runs first from seed to seed so
# that machine-speed drift hits both sides alike.
#
# usage: tools/bench_pairs.sh <parent-rev> <workload> [pairs] [seconds] [out]
#
#   parent-rev  any git revision (HEAD compares the checkout with itself)
#   workload    a workload named in BENCHMARK.json
#   pairs       seeds 1..pairs, one run per side each (default 10)
#   seconds     --seconds of every run (default 5)
#   out         result file (default BENCH_<workload>.json)
#
# The parent is exported with `git archive` into .bench_build/pairs/<sha>/
# and built there with its own target directory, so repeated calls reuse
# the build and the repository's git metadata is never touched; the
# checkout's side is perfbench's own build. Every run is untraced. The
# result file holds, for every end-to-end metric of BENCHMARK.json, each
# side's median and quartiles, the median ratio head/parent, and in how
# many pairs the checkout was better, plus both sides' failed operations
# and every run's metrics. Needs git, cargo and python3.
set -euo pipefail

if [ $# -lt 2 ]; then
    sed -n '2,21p' "$0" | sed 's/^# \{0,1\}//'
    exit 2
fi
parent_rev=$1
workload=$2
pairs=${3:-10}
seconds=${4:-5}
root=$(git rev-parse --show-toplevel)
out=${5:-$root/BENCH_$workload.json}

parent_sha=$(git -C "$root" rev-parse --verify "$parent_rev^{commit}")
head_sha=$(git -C "$root" rev-parse HEAD)
if [ -n "$(git -C "$root" status --porcelain --untracked-files=no)" ]; then
    head_sha="$head_sha+modified"
fi

parent_dir=$root/.bench_build/pairs/$parent_sha
if [ ! -f "$parent_dir/src/BENCHMARK.json" ]; then
    rm -rf "$parent_dir/src"
    mkdir -p "$parent_dir/src"
    git -C "$root" archive "$parent_sha" | tar -x -C "$parent_dir/src"
fi

build() { # <tree> <target dir>
    CARGO_TARGET_DIR=$2 cargo build --release --quiet --offline \
        --manifest-path "$1/perfbench/Cargo.toml"
}
echo "building parent $parent_sha" >&2
build "$parent_dir/src" "$parent_dir/target"
echo "building checkout $head_sha" >&2
build "$root" "$root/perfbench/target"
parent_bin=$parent_dir/target/release/perfbench
head_bin=$root/perfbench/target/release/perfbench

runs=$(mktemp)
trap 'rm -f "$runs"' EXIT
run() { # <side> <seed>
    local tree=$root bin=$head_bin
    if [ "$1" = parent ]; then
        tree=$parent_dir/src bin=$parent_bin
    fi
    local line
    line=$(cd "$tree" && "$bin" --workload "$workload" --seed "$2" \
        --seconds "$seconds" --trace 0 | tail -n 1)
    printf '%s\t%s\t%s\n' "$1" "$2" "$line" >>"$runs"
    echo "seed $2 $1: $line" >&2
}
for seed in $(seq 1 "$pairs"); do
    if [ $((seed % 2)) -eq 1 ]; then
        run parent "$seed"
        run head "$seed"
    else
        run head "$seed"
        run parent "$seed"
    fi
done

python3 - "$root/BENCHMARK.json" "$runs" "$out" "$workload" "$parent_sha" \
    "$head_sha" "$pairs" "$seconds" <<'EOF'
import json
import statistics
import sys

bench, runs_path, out, workload, parent, head, pairs, seconds = sys.argv[1:]
metrics = json.load(open(bench))["end_to_end"]
runs = {}
for line in open(runs_path):
    side, seed, result = line.rstrip("\n").split("\t", 2)
    runs.setdefault(int(seed), {})[side] = json.loads(result)


def summary(values):
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3}


seeds = sorted(runs)
result = {
    "workload": workload,
    "parent": parent,
    "head": head,
    "pairs": int(pairs),
    "seconds": float(seconds),
    "order": "parent first on odd seeds, head first on even seeds",
    "metrics": {},
    "failed": {
        side: sum(runs[s][side]["failed"] for s in seeds) for side in ("parent", "head")
    },
    "correct": {
        side: all(runs[s][side].get("correct", True) for s in seeds)
        for side in ("parent", "head")
    },
}
for m in metrics:
    name = m["name"]
    value = {
        side: [runs[s][side]["metrics"][name]["value"] for s in seeds]
        for side in ("parent", "head")
    }
    lower = m["better"] == "lower"
    better = sum(
        (h < p) if lower else (h > p) for p, h in zip(value["parent"], value["head"])
    )
    p, h = summary(value["parent"]), summary(value["head"])
    result["metrics"][name] = {
        "unit": m["unit"],
        "better": m["better"],
        "parent": p,
        "head": h,
        "ratio": h["median"] / p["median"] if p["median"] else None,
        "pairs_better": better,
    }
result["runs"] = [
    {
        "seed": s,
        "parent": {k: v["value"] for k, v in runs[s]["parent"]["metrics"].items()},
        "head": {k: v["value"] for k, v in runs[s]["head"]["metrics"].items()},
    }
    for s in seeds
]
with open(out, "w") as f:
    json.dump(result, f, indent=2)
    f.write("\n")
for name, m in result["metrics"].items():
    print(
        f"{name:10} parent {m['parent']['median']:.6g} head {m['head']['median']:.6g} "
        f"ratio {m['ratio'] or float('nan'):.3f} better {m['pairs_better']}/{len(seeds)}"
    )
print(f"failed parent {result['failed']['parent']} head {result['failed']['head']}")
EOF
