#!/usr/bin/env bash
# Where the CPU of a benchmark run goes, thread by thread.
#
#   scripts/thread_cpu.sh <workload> [seconds=6] [nodes]
#
# Runs the unmodified BENCHMARK.json command on <workload>, waits for the
# rank threads (`stap-r<rank>`, named by stap-mp::world) to appear and
# warm up, then diffs utime+stime of every task in
# /proc/<pid>/task/*/stat across <seconds> of the measured period and
# prints milliseconds of CPU per CPI per thread name (CPIs = the run's
# own throughput_cpi_s times the sampled seconds) with the thread's nice
# value beside it: the resident weight ranks run at nice 19, background
# to the latency path. Beside the CPU go the thread's wake-ups per CPI,
# diffed the same way from /proc/<pid>/task/*/status: `vol` counts the
# sleeps it ended (a blocked receive that woke), `invol` the times the
# scheduler took its core away.
#
# Ranks are the workload's node assignment laid out task by task —
# Doppler, easy weight, hard weight, easy BF, hard BF, pulse compression,
# CFAR — followed by the driver, so which task `stap-r2` is depends on
# the assignment: hard weight with one node per task (`paper_closed`),
# easy weight under `red_multi_closed`'s 2,1,2,1,1,2,1. Give the
# assignment as [nodes] (seven comma-separated counts, as in
# benchmark/src/workload.rs) and every rank is printed with its task's
# name, followed by the sum per task. `ResidentSummary.busy` is
# wall-clock on a host with fewer cores than rank threads and counts
# waiting for a core; this does not.
set -euo pipefail
cd "$(dirname "$0")/.."

workload="${1:?usage: scripts/thread_cpu.sh <workload> [seconds=6] [nodes]}"
seconds="${2:-6}"
nodes="${3:-}"

mapfile -t bench_cmd < <(python3 - <<'PY'
import json
for word in json.load(open("BENCHMARK.json"))["command"]:
    print(word)
PY
)

tmp="$(mktemp -d "${TMPDIR:-/tmp}/thread_cpu.XXXXXX")"
trap 'kill "$run" 2>/dev/null || true; rm -rf "$tmp"' EXIT

# Build first so the sampled process is the benchmark, not cargo.
cargo build --release --quiet --offline --manifest-path benchmark/Cargo.toml
"${bench_cmd[@]}" --workload "$workload" >"$tmp/run.log" 2>&1 &
run=$!

# `cargo run` execs the benchmark where it can (same pid) and spawns it
# as a child where it cannot.
bench_pid() {
  if [ "$(cat /proc/"$run"/comm 2>/dev/null)" = stap-benchmark ]; then
    echo "$run"
  else
    pgrep -P "$run" -x stap-benchmark | head -n 1
  fi
}

# utime+stime ticks, nice value and voluntary and involuntary context
# switches per task, as "<ticks> <nice> <vol> <invol> <tid>:<comm>"
# lines. The comm field is parenthesised and may hold spaces; counted
# from after it the ticks are fields 12 and 13 and nice is field 17.
sample() {
  python3 - "$1" <<'PY'
import glob, sys
for stat in glob.glob(f"/proc/{sys.argv[1]}/task/*/stat"):
    try:
        text = open(stat).read()
        status = open(stat[:-len("stat")] + "status").read()
    except OSError:
        continue  # the task ended
    switches = dict(l.split(":") for l in status.splitlines() if "ctxt_switches" in l)
    comm = text[text.index("(") + 1:text.rindex(")")]
    rest = text[text.rindex(")") + 2:].split()
    print(int(rest[11]) + int(rest[12]), rest[16], int(switches["voluntary_ctxt_switches"]),
          int(switches["nonvoluntary_ctxt_switches"]), f"{stat.split('/')[4]}:{comm}")
PY
}

pid=""
for _ in $(seq 1 600); do
  pid="$(bench_pid || true)"
  if [ -n "$pid" ] && grep -qs '^stap-r' /proc/"$pid"/task/*/comm; then break; fi
  kill -0 "$run" 2>/dev/null || { cat "$tmp/run.log"; echo "benchmark exited before its ranks started" >&2; exit 1; }
  sleep 0.1
done
[ -n "$pid" ] || { echo "no benchmark process" >&2; exit 1; }
sleep 2 # set-up and warm-up CPIs
sample "$pid" >"$tmp/before"
sleep "$seconds"
sample "$pid" >"$tmp/after"
wait "$run" || true
trap 'rm -rf "$tmp"' EXIT

python3 - "$tmp" "$seconds" "$(getconf CLK_TCK)" "$nodes" <<'PY'
import collections, json, sys
tmp, seconds, hz = sys.argv[1], float(sys.argv[2]), float(sys.argv[3])
TASKS = ["doppler", "easy weight", "hard weight", "easy BF", "hard BF", "pulse compr.", "CFAR"]
task_of = {}
if sys.argv[4]:
    counts = [int(n) for n in sys.argv[4].split(",")]
    if len(counts) != len(TASKS):
        sys.exit(f"nodes: want {len(TASKS)} comma-separated counts, got {sys.argv[4]!r}")
    rank = 0
    for task, count in zip(TASKS, counts):
        for _ in range(count):
            task_of[f"stap-r{rank}"] = task
            rank += 1
    task_of[f"stap-r{rank}"] = "driver"
result = [l for l in open(f"{tmp}/run.log").read().splitlines() if l.startswith('{"correct"')]
if not result:
    sys.exit(open(f"{tmp}/run.log").read() + "\nno result line")
rate = json.loads(result[-1])["metrics"]["throughput_cpi_s"]["value"]
def read(name):
    out = {}
    for line in open(f"{tmp}/{name}").read().splitlines():
        ticks, nice, vol, invol, task = line.split(" ", 4)
        out[task] = (nice, (int(ticks), int(vol), int(invol)))
    return out
before, after = read("before"), read("after")
# Per thread name: [CPU ticks, voluntary, involuntary] over the sample.
per_name = collections.defaultdict(lambda: [0, 0, 0])
nice_of = {}
for task, (nice, counts) in after.items():
    name = task.split(":", 1)[1]
    start = before.get(task, (nice, (0, 0, 0)))[1]
    for i in range(3):
        per_name[name][i] += counts[i] - start[i]
    nice_of[name] = nice
cpis = rate * seconds
print(f"{rate:.1f} CPI/s, {seconds:g} s sampled = {cpis:.0f} CPIs")
print(f"{'thread':<16} {'ms/CPI':>8} {'vol/CPI':>8} {'invol/CPI':>9}")
def row(label, ticks, vol, invol, tail=""):
    ms = ticks * 1000.0 / hz / cpis
    print(f"{label:<16} {ms:8.2f} {vol / cpis:8.2f} {invol / cpis:9.2f}  {tail}".rstrip())
total, ranks = [0, 0, 0], [0, 0, 0]
per_task = collections.defaultdict(lambda: [0, 0, 0])
for name, counts in sorted(per_name.items(), key=lambda kv: -kv[1][0]):
    for i in range(3):
        total[i] += counts[i]
        if name.startswith("stap-r"):
            ranks[i] += counts[i]
        if name in task_of:
            per_task[task_of[name]][i] += counts[i]
    if any(counts):
        row(name, *counts, f"nice {nice_of[name]:>2}  {task_of.get(name, '')}")
row("rank threads", *ranks)
row("all threads", *total)
for task, counts in sorted(per_task.items(), key=lambda kv: -kv[1][0]):
    row(f"  {task}", *counts)
PY
