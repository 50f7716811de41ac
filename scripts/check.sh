#!/usr/bin/env bash
# Tier-1 gate: format, build, test — everything the CI acceptance check
# runs, in one command. Fully offline (the workspace has no external
# dependencies, so no registry access is ever needed).
#
# Usage:
#   scripts/check.sh              # run every stage in order
#   scripts/check.sh --stage 4    # run a single stage (used by CI jobs)
#   scripts/check.sh --stage 5 --repeat 10   # run it 10 times: "k/10 passed"
#   scripts/check.sh --list       # list stage numbers and names
#
# On failure the script exits non-zero and names the failing stage, so a
# CI log (or a human) sees *which* gate broke without scrolling.
set -uo pipefail
cd "$(dirname "$0")/.."

NUM_STAGES=12
# Smoke stages honor STAP_TRANSPORT (inproc|tcp, default inproc) so the
# CI transport entry reruns them with ranks as TCP processes, and keep
# their JSON artifacts when the matching *_OUT env var names a path.
stage_name() {
  case "$1" in
    1) echo "rustfmt + shell syntax" ;;
    2) echo "lint (clippy deny warnings and undocumented unsafe, every target; rustdoc deny warnings)" ;;
    3) echo "release build" ;;
    4) echo "tests (includes the zero-allocation regression)" ;;
    5) echo "fault smoke (deterministic campaign: stall + drop over 10 CPIs)" ;;
    6) echo "benchmark smoke (benchmark/ builds; one quick run in-process and one over TCP are correct; plumbing only, not timing)" ;;
    7) echo "trace smoke (Chrome trace + measured-vs-modeled reconciliation)" ;;
    8) echo "scalar fallback (STAP_SIMD=off: the non-AVX2 path stays green)" ;;
    9) echo "serve smoke (small loadgen: SLO fields present, zero pool misses)" ;;
    10) echo "assign smoke (lattice explore: frontier sanity + paper case dominated)" ;;
    11) echo "chaos smoke (seeded campaign: recovery, rank shift, quarantine, lost-CPI bound)" ;;
    12) echo "transport parity (bit-identical detections on inproc and tcp + byte reconciliation)" ;;
    *) echo "unknown" ;;
  esac
}

run_stage() {
  case "$1" in
    1)
      cargo fmt --all -- --check || return 1
      for f in scripts/*.sh; do bash -n "$f" || return 1; done
      ;;
    2)
      # Every `unsafe` block or impl carries a `// SAFETY:` comment, and
      # the docs build without a warning (private items included), so a
      # deleted item cannot leave a dead intra-doc link behind.
      cargo clippy --workspace --all-targets -- -D warnings \
        -D clippy::undocumented_unsafe_blocks || return 1
      RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --document-private-items
      ;;
    3)
      cargo build --release --workspace
      ;;
    4)
      cargo test -q --workspace
      ;;
    5)
      # One weight-rank stall plus one dropped data message must classify
      # exactly [..X....ddd] — 6 ok, 3 degraded (stale weights), 1 dropped
      # — on whichever transport STAP_TRANSPORT selects: the fault rules
      # live above the fabric, so the classification is transport-blind.
      # The JSON artifact is kept when FAULTS_SMOKE_OUT is set.
      local faults_out
      faults_out="${FAULTS_SMOKE_OUT:-$(mktemp "${TMPDIR:-/tmp}"/FAULTS_smoke.XXXXXX.json)}"
      [ -n "${FAULTS_SMOKE_OUT:-}" ] || trap 'rm -f "$faults_out"' RETURN
      cargo run --release -q -p stap-bench --bin stapctl -- faults \
        --transport "${STAP_TRANSPORT:-inproc}" \
        --expect degraded=3,dropped=1 --out "$faults_out"
      ;;
    6)
      # benchmark/ is a workspace of its own, so stages 2-4 never
      # compile it: build the package every PR is judged by against
      # this tree and check that one quick run of the serve path
      # (red_open, in-process fabric) and one of the batch engine over
      # loopback TCP (red_tcp_batch) each end in a result line whose
      # oracle agrees and no CPI failed — so a hang or a digest break on
      # the TCP path fails here, not only in the perf pipeline. The
      # result lines (one JSON line per workload) are kept when
      # BENCHMARK_SMOKE_OUT is set.
      local smoke_out w
      smoke_out="${BENCHMARK_SMOKE_OUT:-$(mktemp "${TMPDIR:-/tmp}"/BENCHMARK_smoke.XXXXXX.json)}"
      [ -n "${BENCHMARK_SMOKE_OUT:-}" ] || trap 'rm -f "$smoke_out"' RETURN
      : >"$smoke_out"
      cargo build --release --offline --manifest-path benchmark/Cargo.toml || return 1
      for w in red_open red_tcp_batch; do
        cargo run --release --quiet --offline --manifest-path benchmark/Cargo.toml -- \
          --workload "$w" --quick --seed 1 | tail -n 1 >>"$smoke_out" || return 1
        python3 - "$smoke_out" "$w" <<'PY' || return 1
import json, sys
doc = json.loads(open(sys.argv[1]).read().splitlines()[-1])
assert doc["correct"] is True and doc["failed"] == 0, f"{sys.argv[2]} run not clean: {doc}"
print("benchmark smoke ok: %s, %d CPIs attempted, oracle agrees, none failed"
      % (sys.argv[2], doc["attempted"]))
PY
      done
      ;;
    7)
      # Traced run of the canonical 2-azimuth reduced config: must emit a
      # parseable Chrome trace artifact, the model's timeline beside it
      # (X.json -> X.model.json), the measured Gantt chart (one row per
      # task) and the reconciliation table — over the wire when
      # STAP_TRANSPORT says so. Kept when TRACE_SMOKE_OUT is set.
      local trace_out model_out text rows
      trace_out="${TRACE_SMOKE_OUT:-$(mktemp "${TMPDIR:-/tmp}"/TRACE_pipeline_smoke.XXXXXX.json)}"
      model_out="${trace_out%.json}.model.json"
      [ -n "${TRACE_SMOKE_OUT:-}" ] || trap 'rm -f "$trace_out" "$model_out"' RETURN
      text="$(cargo run --release -q -p stap-bench --bin stapctl -- trace --cpis 6 \
        --transport "${STAP_TRANSPORT:-inproc}" --out "$trace_out")" || return 1
      printf '%s\n' "$text"
      rows="$(printf '%s\n' "$text" \
        | grep -cE '^(Doppler filter|easy weight|hard weight|easy BF|hard BF|pulse compr|CFAR) *\|' || true)"
      [ "$rows" -eq 7 ] || { echo "expected 7 Gantt task rows, got $rows" >&2; return 1; }
      grep -q '"traceEvents"' "$trace_out" && grep -q '"traceEvents"' "$model_out"
      ;;
    8)
      # The runtime SIMD dispatch must leave the scalar path fully
      # working (and bit-identical — the property tests run either way):
      # the whole test suite with the backend forced off.
      STAP_SIMD=off cargo test -q --workspace
      ;;
    9)
      # Multi-stream ingestion smoke: a small loadgen session through the
      # resident server must report the SLO latency fields and a steady
      # state that never missed the pre-warmed pools. The JSON artifact
      # is kept (CI uploads it) unless SERVE_SMOKE_OUT is unset.
      local serve_out
      serve_out="${SERVE_SMOKE_OUT:-$(mktemp "${TMPDIR:-/tmp}"/SERVE_smoke.XXXXXX.json)}"
      [ -n "${SERVE_SMOKE_OUT:-}" ] || trap 'rm -f "$serve_out"' RETURN
      cargo run --release -q -p stap-bench --bin stapctl -- \
        serve --streams 4 --cpis 6 --group 4 --json >"$serve_out" \
        && python3 - "$serve_out" <<'PY'
import json, sys
doc = json.load(open(sys.argv[1]))
lat = doc["latency"]
assert lat["p50_ms"] > 0 and lat["p99_ms"] >= lat["p50_ms"], f"SLO fields wrong: {lat}"
assert all("latency" in s for s in doc["streams"]), "per-stream SLO missing"
assert doc["cpis"] == 24, f"expected 24 CPIs, got {doc['cpis']}"
pool = doc["pool"]
assert pool["cx_misses"] == 0 and pool["real_misses"] == 0, f"pool missed: {pool}"
assert not doc["health"]["faults"], f"faults: {doc['health']}"
assert doc["rejected"] == 0, f"happy path rejected submissions: {doc['rejected']}"
assert doc["quarantines"] == 0, "happy path quarantined a stream"
for h in doc["stream_health"]:
    assert h["ok"] == 6 and h["rejects"]["total"] == 0, f"unhealthy stream: {h}"
print("serve smoke ok: p50 %.2fms p99 %.2fms, %d pool hits, zero misses, zero rejects"
      % (lat["p50_ms"], lat["p99_ms"], pool["cx_hits"] + pool["real_hits"]))
PY
      ;;
    10)
      # Assignment-optimizer smoke: exhaustively sweep a small budget's
      # lattice through the DES and check the frontier's invariants
      # (non-empty, best points on it, exhaustive coverage accounting,
      # no member strictly dominating another). Fully deterministic —
      # the DES is a timestamp propagation, so this never flakes on a
      # loaded CI host. The JSON artifact is kept when ASSIGN_SMOKE_OUT
      # is set (CI uploads it).
      local assign_out
      assign_out="${ASSIGN_SMOKE_OUT:-$(mktemp "${TMPDIR:-/tmp}"/ASSIGN_smoke.XXXXXX.json)}"
      [ -n "${ASSIGN_SMOKE_OUT:-}" ] || trap 'rm -f "$assign_out"' RETURN
      cargo run --release -q -p stap-bench --bin stapctl -- \
        assign --budget 10 --cpis 12 --expect sane --out "$assign_out" \
        && grep -q '"frontier"' "$assign_out" \
        && cargo run --release -q -p stap-bench --bin stapctl -- \
          assign --budget 59 --cpis 12 --evals 120 --expect sane,paper-case
      ;;
    11)
      # Seeded chaos campaign on the supervised serve runtime: a
      # scheduled rank kill must recover from checkpoint, a degradation
      # after it must shift a rank in the same session, the corrupt
      # tenant must be quarantined, lost CPIs must stay within the
      # checkpoint bound and healthy streams must finish. The campaign
      # gates itself; --expect re-asserts the headline invariants from
      # the JSON. Deterministic by seed. The artifact is kept when
      # CHAOS_SMOKE_OUT is set (CI uploads it).
      local chaos_out
      chaos_out="${CHAOS_SMOKE_OUT:-$(mktemp "${TMPDIR:-/tmp}"/CHAOS_smoke.XXXXXX.json)}"
      [ -n "${CHAOS_SMOKE_OUT:-}" ] || trap 'rm -f "$chaos_out"' RETURN
      cargo run --release -q -p stap-bench --bin stapctl -- \
        chaos --seed 7 --cpis 8 --out "$chaos_out" \
        --expect "recovered>=1,rebalanced>=1,quarantined=1,deadlock=0,passed=1" \
        && python3 - "$chaos_out" <<'PY'
import json, sys
doc = json.load(open(sys.argv[1]))
assert doc["passed"] == 1, f"campaign failed gates: {doc['failures']}"
assert doc["lost_cpis"] <= doc["lost_bound"], f"lost-CPI bound broken: {doc}"
assert doc["reconnect_ok"] == 1, "churned tenant never completed after reconnect"
print("chaos smoke ok: %d recoveries, %d rebalances, %d checkpoints, %d/%d lost CPIs, %d quarantine(s)"
      % (doc["recovered"], doc["rebalanced"], doc["checkpoints"], doc["lost_cpis"],
         doc["lost_bound"], doc["quarantine_events"]))
PY
      ;;
    12)
      # Transport parity: the canonical reduced config must produce
      # bit-identical detections (same FNV-1a digest over the float bit
      # patterns) whether the ranks are threads over channels (inproc) or
      # processes over a loopback TCP mesh (tcp) — and on both the
      # per-edge measured bytes must equal the DES model's on every
      # modeled edge: the loops and the model read one schedule.
      local par_dir
      par_dir="$(mktemp -d "${TMPDIR:-/tmp}"/stap_parity.XXXXXX)"
      trap 'rm -rf "$par_dir"' RETURN
      local t
      for t in inproc tcp; do
        cargo run --release -q -p stap-bench --bin stapctl -- trace \
          --transport "$t" --json --out "$par_dir/trace_$t.json" \
          > "$par_dir/$t.out" || return 1
      done
      python3 - "$par_dir" <<'PY'
import json, sys, pathlib
d = pathlib.Path(sys.argv[1])
docs = {}
for t in ("inproc", "tcp"):
    text = (d / f"{t}.out").read_text()
    docs[t] = json.loads(text[text.index("{"):text.rindex("}") + 1])
digests = {t: doc["detections_digest"] for t, doc in docs.items()}
assert len(set(digests.values())) == 1, f"transport parity broken: {digests}"
for t, doc in docs.items():
    edges = doc["reconciliation"]["edges"]
    modeled = [e for e in edges if e["modeled"]]
    assert modeled, f"{t} reconciliation modeled no edges"
    bad = [e for e in modeled if e["measured"] != e["modeled"] or e["flagged"]]
    assert not bad, f"{t} per-edge bytes differ from the model: {bad}"
print("transport parity ok: digest %s on inproc and tcp, %d/%d edges exact on both"
      % (digests["tcp"], len(modeled), len(edges)))
PY
      ;;
    *)
      echo "error: unknown stage $1 (valid: 1..$NUM_STAGES)" >&2
      return 2
      ;;
  esac
}

stages=$(seq 1 "$NUM_STAGES")
repeat=1
while [ $# -gt 0 ]; do
  case "$1" in
    --stage)
      stages="${2:?--stage needs a number}"
      shift 2
      ;;
    --repeat)
      repeat="${2:?--repeat needs a count}"
      shift 2
      ;;
    --list)
      for i in $(seq 1 "$NUM_STAGES"); do
        echo "$i $(stage_name "$i")"
      done
      exit 0
      ;;
    *)
      echo "usage: $0 [--stage N] [--repeat N] | --list" >&2
      exit 2
      ;;
  esac
done

# --repeat N is the flake gate: every run goes to the end, then the
# tally decides.
passed=0
for run in $(seq 1 "$repeat"); do
  [ "$repeat" -eq 1 ] || echo "== run $run/$repeat =="
  ok=1
  for i in $stages; do
    echo "== $i/$NUM_STAGES $(stage_name "$i") =="
    run_stage "$i"
    status=$?
    trap - RETURN # a stage's temp-file cleanup must not outlive it
    if [ "$status" -ne 0 ]; then
      echo
      echo "FAILED at stage $i/$NUM_STAGES: $(stage_name "$i")" >&2
      ok=0
      break
    fi
  done
  passed=$((passed + ok))
done
[ "$repeat" -eq 1 ] || echo "$passed/$repeat passed"
[ "$passed" -eq "$repeat" ] || exit 1
echo "check passed."
