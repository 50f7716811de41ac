#!/usr/bin/env bash
# Alternating parent/change pairs of the benchmark — the section-8
# procedure benchmark/README.md asks everyone claiming a gain to follow.
#
#   scripts/bench_pairs.sh <workload> [pairs=10] [parent-ref=HEAD~1]
#
# Builds the parent (`git archive` of <parent-ref>, unpacked once per
# commit into the git-ignored .bench_build/parent-<sha> and kept there
# with its build for later calls) and the change (this tree, as it is on
# disk, into its own benchmark/target), then runs <pairs> pairs of the
# unmodified BENCHMARK.json command, each tree from its own root. The
# two sides of a pair share a fresh --seed, and the side that runs first
# alternates.
# Runs the disturbed-run guard marked (the `window CPI/s [...] -> ...`
# line says anything but `valid`) are dropped and counted. Prints, per
# end-to-end metric: both medians, both quartile distances
# (statistics.quantiles(values, n=4)), and how many pairs the change won;
# "unresolved" marks a metric whose parent quartile distance is wider than
# its BENCHMARK.json bound, so that run-to-run spread alone can cross it.
# Then, per side over every run that printed a result, dropped or not,
# the median of `harness.gen_lag_p95_ms`: how late the load generator
# submitted, the usual reason a paced run is marked disturbed.
#
# A gain is claimed only when the change wins at least nine tenths of the
# pairs and the medians differ by more than the parent's own quartile
# distance; anything else is "not shown".
set -euo pipefail
cd "$(dirname "$0")/.."

workload="${1:?usage: scripts/bench_pairs.sh <workload> [pairs=10] [parent-ref=HEAD~1]}"
pairs="${2:-10}"
parent_ref="${3:-HEAD~1}"
change_root="$PWD"

tmp="$(mktemp -d "${TMPDIR:-/tmp}/bench_pairs.XXXXXX")"
trap 'rm -rf "$tmp"' EXIT

parent_root="$change_root/.bench_build/parent-$(git rev-parse "$parent_ref^{commit}")"
if [ ! -d "$parent_root" ]; then
  # Unpacked beside its final name and renamed, so an interrupted
  # unpack is never mistaken for a complete tree.
  mkdir -p .bench_build
  unpack="$(mktemp -d .bench_build/unpack.XXXXXX)"
  git archive "$parent_ref" | tar -x -C "$unpack"
  mv "$unpack" "$parent_root"
fi
echo "parent $(git rev-parse --short "$parent_ref") in $parent_root, change = working tree of $change_root"

# The BENCHMARK.json command, word by word (no workload arguments yet).
mapfile -t bench_cmd < <(python3 - <<'PY'
import json
for word in json.load(open("BENCHMARK.json"))["command"]:
    print(word)
PY
)

# in_tree <parent|change> <command...>: runs the command from that
# tree's root, which builds into its own benchmark/target.
in_tree() {
  local side="$1" root="$change_root"
  shift
  [ "$side" = parent ] && root="$parent_root"
  (cd "$root" && env -u CARGO_TARGET_DIR "$@")
}

for side in parent change; do
  echo "building $side ..."
  in_tree "$side" cargo build --release --quiet --offline --manifest-path benchmark/Cargo.toml
done

# Seeds no other document uses, fresh per invocation and per pair.
seed0=$(( ($(date +%s) % 100000) * 100 ))
for i in $(seq 1 "$pairs"); do
  seed=$((seed0 + i))
  if [ $((i % 2)) -eq 1 ]; then order="parent change"; else order="change parent"; fi
  for side in $order; do
    in_tree "$side" "${bench_cmd[@]}" --workload "$workload" --seed "$seed" \
      >"$tmp/${side}_$i.log" 2>&1 ||
      echo "  $side seed $seed: benchmark exited non-zero (its failed CPIs are tallied below)"
  done
  echo "pair $i/$pairs (seed $seed, order: $order) done"
done

python3 - "$tmp" "$pairs" <<'PY'
import json, statistics, sys

tmp, pairs = sys.argv[1], int(sys.argv[2])
spec = json.load(open("BENCHMARK.json"))

def read(side, i):
    """(metrics, failed CPIs) of one run, or None when it must be dropped."""
    lines = open(f"{tmp}/{side}_{i}.log").read().splitlines()
    window = [l for l in lines if l.startswith("window CPI/s")]
    if not window or not window[-1].rstrip().endswith("-> valid"):
        return None
    result = [l for l in lines if l.startswith('{"correct"')]
    if not result:
        return None
    result = json.loads(result[-1])
    return {k: v["value"] for k, v in result["metrics"].items()}, result["failed"]

runs = {"parent": [], "change": []}
dropped = {"parent": 0, "change": 0}
failed = {"parent": 0, "change": 0}
for i in range(1, pairs + 1):
    pair = {}
    for side in runs:
        r = read(side, i)
        if r is None:
            dropped[side] += 1
        else:
            pair[side] = r[0]
            failed[side] += r[1]
    for side in runs:
        # A pair counts only when both of its runs are valid.
        runs[side].append(pair[side] if len(pair) == 2 else None)

kept = [i for i in range(pairs) if runs["parent"][i] is not None]
print(f"\n{len(kept)} of {pairs} pairs kept; disturbed or broken runs dropped: "
      f"parent {dropped['parent']}, change {dropped['change']}; "
      f"failed CPIs: parent {failed['parent']}, change {failed['change']}")
if len(kept) < 2:
    sys.exit("too few valid pairs to say anything")

def iqr(values):
    q = statistics.quantiles(values, n=4)
    return q[2] - q[0]

print(f"{'metric':<18} {'parent median':>14} {'(IQR)':>9} {'change median':>14} {'(IQR)':>9} "
      f"{'change/parent':>13} {'wins':>7}  verdict")
for m in spec["end_to_end"]:
    name, higher = m["name"], m["better"] == "higher"
    a = [runs["parent"][i][name] for i in kept]
    b = [runs["change"][i][name] for i in kept]
    wins = sum((y > x) if higher else (y < x) for x, y in zip(a, b))
    ma, mb = statistics.median(a), statistics.median(b)
    better_by = ((mb - ma) if higher else (ma - mb)) / ma if ma else 0.0
    if wins >= 0.9 * len(kept) and better_by * ma > iqr(a):
        verdict = "gain"
    elif -better_by > m["bound"]:
        verdict = f"REGRESSION beyond the {m['bound']:.0%} bound"
    else:
        verdict = "not shown"
    if ma and iqr(a) / ma > m["bound"]:
        verdict += f", unresolved (parent IQR {iqr(a) / ma:.0%} of its median)"
    print(f"{name:<18} {ma:>14.4g} {iqr(a):>9.3g} {mb:>14.4g} {iqr(b):>9.3g} "
          f"{mb / ma if ma else float('nan'):>13.3f} {wins:>4}/{len(kept):<2}  {verdict}")

# The per-layer rows are ledger lines: "<name> <value> <unit>".
lag = "harness.gen_lag_p95_ms"
for side in runs:
    values = [float(l.split()[1]) for i in range(1, pairs + 1)
              for l in open(f"{tmp}/{side}_{i}.log").read().splitlines() if l.startswith(lag + " ")]
    if values:
        print(f"{side}: {lag} median {statistics.median(values):.3g} over {len(values)} runs "
              f"(max {max(values):.3g})")
PY
