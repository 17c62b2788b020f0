#!/usr/bin/env bash
# Gate script: the tree must build and pass ctest twice — a plain
# RelWithDebInfo build, then an UndefinedBehaviorSanitizer build
# (PGASQ_SANITIZE=undefined). Run from anywhere; builds live in
# build-check/ and build-check-ubsan/ at the repo root.
#
# Usage: tools/check.sh [--asan]
#   --asan  additionally run an AddressSanitizer pass (slower; fiber
#           switches are ASan-annotated via sim/fiber.hpp).
set -euo pipefail

repo="$(cd "$(dirname "$0")/.." && pwd)"
jobs="$(nproc 2>/dev/null || echo 4)"
run_asan=0
[[ "${1:-}" == "--asan" ]] && run_asan=1

pass() {
  local dir="$1"; shift
  echo "=== configure+build+test: ${dir} ($*)" >&2
  cmake -B "${repo}/${dir}" -S "${repo}" "$@" >/dev/null
  cmake --build "${repo}/${dir}" -j "${jobs}"
  ctest --test-dir "${repo}/${dir}" --output-on-failure -j "${jobs}"
}

obs_gate() {
  # Observability gate: a traced SCF run must produce a trace whose
  # flows pair up (with cross-track put/get/coll-hop/ack arrows) and a
  # schema-valid machine-readable report, and two benches must emit
  # BENCH_*.json. Artifacts land in the build dir.
  local dir="$1" out="${repo}/$1/obs-gate"
  echo "=== observability gate: ${dir}" >&2
  mkdir -p "${out}"
  # --distributed_guess routes the initial density through ga_put
  # (put/ack flows); pinning a software allreduce gives the energy
  # reduction per-hop messages (the hw model has none to trace).
  "${repo}/${dir}/examples/scf_walkthrough" --ranks=8 --nbf=24 --block=8 \
    --task_us=50 --distributed_guess=1 --coll.algo.allreduce=recdbl \
    "--trace.json_path=${out}/scf_trace.json" \
    "--report.json_path=${out}/scf_report.json" --obs.links=1 >/dev/null
  python3 "${repo}/tools/validate_trace.py" --require-ops \
    --trace "${out}/scf_trace.json" --report "${out}/scf_report.json"
  "${repo}/${dir}/bench/bench_fig3_latency" \
    "--report.json_path=${out}/BENCH_fig3.json" >/dev/null
  "${repo}/${dir}/bench/bench_fig4_bandwidth" --obs.links=1 \
    "--report.json_path=${out}/BENCH_fig4.json" >/dev/null
  python3 "${repo}/tools/validate_trace.py" --report "${out}/BENCH_fig3.json"
  python3 "${repo}/tools/validate_trace.py" --report "${out}/BENCH_fig4.json"
  # Hierarchical-collective gate: the same SCF at 8 ranks/node with the
  # allreduce pinned to the two-level schedule must emit coll-hop flows
  # on the per-group 'grp/...' tracks (node + leaders stages).
  "${repo}/${dir}/examples/scf_walkthrough" --ranks=16 --ranks_per_node=8 \
    --nbf=24 --block=8 --task_us=50 --distributed_guess=1 \
    --coll.algo.allreduce=hier \
    "--trace.json_path=${out}/scf_hier_trace.json" \
    "--report.json_path=${out}/scf_hier_report.json" >/dev/null
  python3 "${repo}/tools/validate_trace.py" --require-grp \
    --trace "${out}/scf_hier_trace.json" \
    --report "${out}/scf_hier_report.json"
  # End-to-end integrity gate (docs/faults.md): the chaos soak must
  # converge bit-for-bit under randomized combined fault plans, and a
  # traced corrupt run must pair every planted flip ('packet corrupt'
  # instant) with a transport-CRC catch ('corruption nack' instant)
  # while the report agrees (flips_detected == flips_injected).
  python3 "${repo}/tools/chaos_soak.py" --quick \
    --bin "${repo}/${dir}/examples/scf_walkthrough" --outdir "${out}"
  "${repo}/${dir}/examples/scf_walkthrough" --ranks=16 --ranks_per_node=8 \
    --nbf=24 --block=8 --task_us=50 --iterations=3 --distributed_guess=1 \
    --coll.algo.allreduce=hier --fault.seed=3 --fault.corrupt_prob=0.1 \
    "--trace.json_path=${out}/scf_corrupt_trace.json" \
    "--report.json_path=${out}/scf_corrupt_report.json" >/dev/null
  python3 "${repo}/tools/validate_trace.py" --require-integrity \
    --trace "${out}/scf_corrupt_trace.json" \
    --report "${out}/scf_corrupt_report.json"
}

kvs_gate() {
  # KV durability + determinism gate (docs/kvs.md): the sharded KV
  # bench must survive a soak with packet loss, corruption, AND a
  # mid-run node death (the bench exits 1 on any lost acked write or a
  # faa exactly-once mismatch), with every injected flip caught by the
  # transport CRC; and two identical runs must emit bitwise-identical
  # reports (every metric, not only kvs.*).
  local dir="$1" out="${repo}/$1/kvs-gate"
  echo "=== kvs gate: ${dir}" >&2
  mkdir -p "${out}"
  "${repo}/${dir}/bench/bench_abl_kvs" --ranks=32 --kvs.requests=16 \
    --failstop_ranks=32 --fault.seed=5 --fault.drop_prob=0.005 \
    --fault.corrupt_prob=0.005 \
    "--report.json_path=${out}/BENCH_kvs_soak.json" >/dev/null
  python3 - "${out}/BENCH_kvs_soak.json" <<'PY'
import json, sys
doc = json.load(open(sys.argv[1]))
m = {}
for e in doc["metrics"]:
    m.setdefault(e["name"], []).append(e)
for name in ("kvs.lost_acked_writes", "kvs.torn_reads"):
    for e in m[name]:
        assert e.get("value", 0) == 0, (name, e)
inj = sum(e.get("value", 0) for e in m["integrity.flips_injected"])
det = sum(e.get("value", 0) for e in m["integrity.flips_detected"])
assert inj > 0 and inj == det, (inj, det)
mixes = {(e.get("labels") or {}).get("mix") for e in m["kvs.acked_ops"]}
assert {"zipfian", "uniform", "failstop"} <= mixes, mixes
print(f"kvs soak OK: flips {det}/{inj} caught, mixes {sorted(mixes)}")
PY
  "${repo}/${dir}/bench/bench_abl_kvs" --ranks=24 --kvs.requests=16 \
    --failstop=0 "--report.json_path=${out}/BENCH_kvs_a.json" >/dev/null
  "${repo}/${dir}/bench/bench_abl_kvs" --ranks=24 --kvs.requests=16 \
    --failstop=0 "--report.json_path=${out}/BENCH_kvs_b.json" >/dev/null
  python3 "${repo}/tools/bench_diff.py" --fail-over 0 \
    "${out}/BENCH_kvs_a.json" "${out}/BENCH_kvs_b.json"
}

overload_gate() {
  # Overload-control gate (docs/overload.md): past saturation the
  # flow-on arm must hold its goodput plateau (>= 85% of the on-arm
  # peak at 2x load) while the uncontrolled arm collapses (< 50% of
  # its own peak); the metastability soak must recover with the
  # controls on (>= 90% of pre-stall goodput) and stay degraded with
  # them off; and two identical runs must emit bitwise-identical
  # reports (every metric).
  local dir="$1" out="${repo}/$1/overload-gate"
  echo "=== overload gate: ${dir}" >&2
  mkdir -p "${out}"
  "${repo}/${dir}/bench/bench_abl_overload" --hedge=0 \
    "--report.json_path=${out}/BENCH_overload.json" >/dev/null
  python3 - "${out}/BENCH_overload.json" <<'PY'
import json, sys
doc = json.load(open(sys.argv[1]))
goodput, soak = {}, {}
for e in doc["metrics"]:
    lab = e.get("labels") or {}
    if e["name"] == "kvs.goodput_mops" and "load" in lab:
        goodput[(lab["arm"], lab["load"])] = e["value"]
    if e["name"].startswith("overload.soak_"):
        soak[(e["name"], lab["arm"])] = e["value"]
peak = {arm: max(v for (a, l), v in goodput.items() if a == arm and l != "soak")
        for arm in ("on", "off")}
on2 = goodput[("on", "2.0")]
off2 = goodput[("off", "2.0")]
assert on2 >= 0.85 * peak["on"], (on2, peak["on"])
assert off2 < 0.50 * peak["off"], (off2, peak["off"])
pre_on = soak[("overload.soak_pre_goodput", "on")]
post_on = soak[("overload.soak_post_goodput", "on")]
pre_off = soak[("overload.soak_pre_goodput", "off")]
post_off = soak[("overload.soak_post_goodput", "off")]
assert post_on >= 0.90 * pre_on, (post_on, pre_on)
assert post_off < 0.50 * pre_off, (post_off, pre_off)
print(f"overload OK: on 2x holds {on2 / peak['on']:.0%} of peak "
      f"(off collapses to {off2 / peak['off']:.0%}), "
      f"soak recovers {post_on / pre_on:.0%} on / {post_off / pre_off:.0%} off")
PY
  "${repo}/${dir}/bench/bench_abl_overload" --factors=1.5 --soak=0 --hedge=0 \
    "--report.json_path=${out}/BENCH_overload_a.json" >/dev/null
  "${repo}/${dir}/bench/bench_abl_overload" --factors=1.5 --soak=0 --hedge=0 \
    "--report.json_path=${out}/BENCH_overload_b.json" >/dev/null
  python3 "${repo}/tools/bench_diff.py" --fail-over 0 \
    "${out}/BENCH_overload_a.json" "${out}/BENCH_overload_b.json"
}

timeline_gate() {
  # Continuous-telemetry gate (docs/observability.md): a traced
  # overload run with obs.timeline + obs.critpath on must emit a
  # schema-valid pgasq.timeline section whose counter totals reconcile
  # with the run's own metrics, a critical-path section whose segment
  # sums hold the attribution identity, and the timeline CSV; and the
  # same run with every obs.* knob unset must print byte-identical
  # stdout (zero-cost-off guarantee).
  local dir="$1" out="${repo}/$1/timeline-gate"
  echo "=== timeline gate: ${dir}" >&2
  mkdir -p "${out}"
  "${repo}/${dir}/bench/bench_abl_overload" --factors=1.5 --soak=0 \
    --hedge=0 --obs.timeline=1 --obs.critpath=1 \
    "--obs.timeline_csv=${out}/timeline.csv" \
    "--report.json_path=${out}/BENCH_overload_tl.json" \
    > "${out}/stdout_tl.txt"
  python3 "${repo}/tools/validate_trace.py" --require-timeline \
    --report "${out}/BENCH_overload_tl.json"
  python3 "${repo}/tools/critical_path.py" \
    "${out}/BENCH_overload_tl.json" >/dev/null
  [[ -s "${out}/timeline.csv" ]] || {
    echo "timeline gate: empty/missing ${out}/timeline.csv" >&2; exit 1; }
  "${repo}/${dir}/bench/bench_abl_overload" --factors=1.5 --soak=0 \
    --hedge=0 > "${out}/stdout_off.txt"
  "${repo}/${dir}/bench/bench_abl_overload" --factors=1.5 --soak=0 \
    --hedge=0 --obs.timeline=1 --obs.critpath=1 \
    > "${out}/stdout_on.txt"
  # The obs-on run must leave every pre-existing line untouched: its
  # stdout minus the timeline/critpath sections == the obs-off stdout
  # (virtual time unchanged — observation never perturbs the run).
  python3 - "${out}/stdout_off.txt" "${out}/stdout_on.txt" <<'PY'
import sys
off = open(sys.argv[1]).read()
on = open(sys.argv[2]).read()
for line in off.splitlines():
    assert line in on, f"obs-on run lost line: {line!r}"
assert on != off, "obs.timeline=1 printed no timeline section"
print("timeline gate OK: obs-on stdout is a superset, timings unchanged")
PY
}

async_gate() {
  # Async-runtime gate (docs/async.md): a traced overlapped-SCF run
  # must emit cross-track nbc-hop flows with one-sided put/get traffic
  # interleaved inside their window (the energy iallreduce makes
  # incremental progress instead of blocking), plus the async.* gauge
  # series in the timeline; both arms of the overlap bench must agree
  # on the Fock checksum and energy (asserted in-binary), and two
  # identical bench runs must emit bitwise-identical reports (every
  # metric).
  local dir="$1" out="${repo}/$1/async-gate"
  echo "=== async gate: ${dir}" >&2
  mkdir -p "${out}"
  "${repo}/${dir}/examples/scf_walkthrough" --ranks=8 --nbf=24 --block=8 \
    --task_us=50 --distributed_guess=1 --iterations=3 \
    --coll.algo.allreduce=recdbl --overlap=1 --obs.timeline=1 \
    "--trace.json_path=${out}/scf_async_trace.json" \
    "--report.json_path=${out}/scf_async_report.json" >/dev/null
  python3 "${repo}/tools/validate_trace.py" --require-nbc \
    --trace "${out}/scf_async_trace.json" \
    --report "${out}/scf_async_report.json"
  python3 - "${out}/scf_async_report.json" <<'PY'
import json, sys
doc = json.load(open(sys.argv[1]))
names = {s["name"] for s in doc.get("timeline", {}).get("series", [])}
want = {"async.pending_futures", "async.cont_queue_depth"}
assert want <= names, f"missing async timeline series: {want - names}"
print(f"async timeline OK: {sorted(want)} present")
PY
  "${repo}/${dir}/bench/bench_abl_async" --ranks=64 --ranks_per_node=16 \
    --nbf=128 --block=8 --iterations=2 --task_us=500 \
    "--report.json_path=${out}/BENCH_async_a.json" >/dev/null
  "${repo}/${dir}/bench/bench_abl_async" --ranks=64 --ranks_per_node=16 \
    --nbf=128 --block=8 --iterations=2 --task_us=500 \
    "--report.json_path=${out}/BENCH_async_b.json" >/dev/null
  python3 "${repo}/tools/bench_diff.py" --fail-over 0 \
    "${out}/BENCH_async_a.json" "${out}/BENCH_async_b.json"
}

typo_gate() {
  # Typo gate: a command line key that nothing reads (a typo) must fail
  # the run with a suggestion instead of silently running the default
  # design point (Config::reject_unused).
  local dir="$1"
  echo "=== typo gate: ${dir}" >&2
  expect_typo "${repo}/${dir}/bench/bench_fig3_latency" --rnaks=4
  # A sweep bench: must fail before its first World, not after the sweep.
  expect_typo timeout 10 "${repo}/${dir}/bench/bench_abl_collectives" --rnaks=4
  expect_typo timeout 10 "${repo}/${dir}/bench/bench_fig9_rmw" --max_rank=16
  expect_typo "${repo}/${dir}/examples/scf_walkthrough" --ranks=8 --overlp=1
}

expect_typo() {
  local out
  if out="$("$@" 2>&1)"; then
    echo "typo gate: '$*' exited 0" >&2
    exit 1
  fi
  grep -q "did you mean" <<<"${out}" || {
    echo "typo gate: '$*' printed no suggestion:" >&2
    echo "${out}" >&2
    exit 1
  }
}

# Every knob-table row (src/util/knobs.hpp) must have a docs mention.
python3 "${repo}/tools/check_knob_docs.py" "${repo}"
pass build-check
typo_gate build-check
obs_gate build-check
async_gate build-check
kvs_gate build-check
overload_gate build-check
timeline_gate build-check
pass build-check-ubsan -DPGASQ_SANITIZE=undefined \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo
if [[ "${run_asan}" == 1 ]]; then
  # Validation tests abort mid-run by throwing out of an SPMD body;
  # abandoned fibers' heap is unreachable by design (see lsan.supp).
  export LSAN_OPTIONS="suppressions=${repo}/tools/lsan.supp:print_suppressions=0"
  pass build-check-asan -DPGASQ_SANITIZE=address
fi

echo "=== all checks passed" >&2
