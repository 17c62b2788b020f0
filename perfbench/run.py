#!/usr/bin/env python3
"""pgasq benchmark: builds the driver, runs one workload, prints metrics.

    python3 perfbench/run.py --workload scf-at|coll-sw|kvs-zipf \
        --seed N --seconds S --trace 0|1

Run from the repository root. The first run configures and builds
perfbench/ (which compiles ../src) into $CARGO_TARGET_DIR, default
.bench_build. Every measured repetition is a fresh pgasq_perf process
with the same seeds; the run repeats them until --seconds have passed
and reports medians. --trace 0 prints the end-to-end metrics; --trace 1
alternates untraced and traced repetitions, runs the isolated layer
drivers and prints the per-layer ledger. The last stdout line is the
result object; see perfbench/README.md for every metric.
"""

import argparse
import hashlib
import json
import os
import re
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BENCHMARK_JSON = os.path.join(ROOT, "BENCHMARK.json")
REFERENCE_JSON = os.path.join(HERE, "reference.json")

WORKLOADS = ("scf-at", "coll-sw", "kvs-zipf")
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

# Untraced repetitions per run at least; traced runs need at least one
# of each kind.
MIN_REPS = 3
MIN_TRACE_REPS = 2
# Isolated drivers must leave at least this many samples beyond the p90.
MIN_BEYOND_P90 = 10
# Host speed the host metrics are put on: the cost of one kernel entry
# (a no-op sigprocmask), in ns. It is the median measured on the 4-core
# x86-64 VM the benchmark was tuned on; see README.md, "Noise".
REF_KERNEL_ENTRY_NS = 200.0
# How far a repetition's own timed region may lie from its markers, as
# a share of the region's length (see windows_match).
WINDOW_TOLERANCE = 1e-4
# Hard cap on one run, below the 180 s a run may take.
RUN_DEADLINE_S = 150.0
REP_TIMEOUT_S = 90.0

# Per-layer values derived from host time: the median over untraced
# repetitions. Every other ledger value is virtual or a count, identical
# in every repetition of one configuration (see ledger()).
HOST_LAYER = ("sim.host_ns_per_event", "sim.sys_frac")


class BenchError(Exception):
    """The benchmark could not produce a result."""


# ---------------------------------------------------------------------------
# Helpers covered by test_run.py


def valid_name(name):
    """Metric and workload names: [A-Za-z0-9_.-], leading letter or digit."""
    return bool(NAME_RE.match(name))


def valid_unit(unit):
    return bool(UNIT_RE.match(unit))


def percentile(values, q):
    """Nearest-rank percentile, q in [0, 100]."""
    if not values:
        raise ValueError("percentile of no values")
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))  # ceil(n * q / 100)
    return ordered[min(int(rank), len(ordered)) - 1]


def summarize_samples(name, samples):
    """Median and p90 of an isolated driver's samples, with the count.

    Raises BenchError when fewer than MIN_BEYOND_P90 samples lie beyond
    the p90: the p90 would then rest on too few observations.
    """
    p90 = percentile(samples, 90)
    beyond = sum(1 for s in samples if s > p90)
    if beyond < MIN_BEYOND_P90:
        raise BenchError(
            f"{name}: only {beyond} of {len(samples)} samples beyond the p90 "
            f"(need {MIN_BEYOND_P90})")
    return {"p50": statistics.median(samples), "p90": p90,
            "samples": len(samples), "beyond_p90": beyond}


def account(reps):
    """Op accounting over repetitions.

    Returns (attempted, failed, failed_checks): a failed check counts
    the ops it names as failed, and failed_checks lists every failed
    check by name with its detail.
    """
    attempted = sum(int(r["attempted"]) for r in reps)
    failed = sum(int(r["failed"]) for r in reps)
    failed_checks = [(c["name"], c["detail"]) for r in reps
                     for c in r["checks"] if not c["ok"]]
    return attempted, failed, failed_checks


def error_rate(attempted, failed):
    return failed / attempted if attempted else 1.0


def _differing(reps, keys):
    out = []
    for key in keys:
        vals = {repr(r["virt_ms"] if key == "virt_ms" else r["det"].get(key))
                for r in reps}
        if len(vals) > 1:
            out.append((key, sorted(vals)))
    return out


def determinism_violations(reps):
    """Determinism guard, as (key, sorted distinct values) per violation.

    Repetitions of one configuration (all untraced, or all traced) must
    agree bit for bit on virt_ms and every deterministic count, and
    tracing must not move virt_ms. Counts may differ between the two
    configurations: tracing changes the host heap layout, and scf-at's
    event count depends on it (see README.md, "Determinism guard");
    tracing_shifts reports those.
    """
    keys = ["virt_ms"] + sorted({k for r in reps for k in r["det"]})
    out = []
    for traced in (False, True):
        out += _differing([r for r in reps if r["traced"] == traced], keys)
    if not any(key == "virt_ms" for key, _ in out):
        out += _differing(reps, ["virt_ms"])
    return out


def tracing_shifts(reps):
    """Deterministic counts that differ between untraced and traced
    repetitions, as (key, untraced value, traced value)."""
    untraced = [r for r in reps if not r["traced"]]
    traced = [r for r in reps if r["traced"]]
    if not untraced or not traced:
        return []
    return [(k, v, traced[0]["det"].get(k)) for k, v in untraced[0]["det"].items()
            if traced[0]["det"].get(k) != v]


def determinism_digest(rep):
    """Short hash of a repetition's virtual result and counts: equal
    digests for one workload and seed mean bit-identical values."""
    items = [("virt_ms", repr(rep["virt_ms"]))]
    items += sorted((k, repr(v)) for k, v in rep["det"].items())
    return hashlib.sha256(json.dumps(items).encode()).hexdigest()[:16]


def result_line(correct, attempted, failed, metrics):
    """The final stdout line; validates the schema before printing."""
    if not isinstance(correct, bool):
        raise BenchError("correct must be a bool")
    if not (isinstance(attempted, int) and attempted >= 1):
        raise BenchError("attempted must be an integer >= 1")
    if not (isinstance(failed, int) and 0 <= failed):
        raise BenchError("failed must be a non-negative integer")
    for name, m in metrics.items():
        if not valid_name(name):
            raise BenchError(f"bad metric name {name!r}")
        if set(m) != {"value", "unit"} or not valid_unit(m["unit"]):
            raise BenchError(f"bad metric entry for {name}: {m!r}")
        if not isinstance(m["value"], (int, float)) or isinstance(m["value"], bool):
            raise BenchError(f"metric {name} is not a number")
    return json.dumps({"correct": correct, "attempted": attempted,
                       "failed": failed, "metrics": metrics})


# Ledger values on the host clock, and ratios of two counts; every
# other ratio or time is virtual (modelled BG/Q time).
HOST_CLOCK = {"sim.host_ns_per_event", "sim.sys_frac", "host.kernel_entry_ns",
              "coll.round_host_ms.p50",
              "coll.round_host_ms.p90", "obs.trace_overhead_frac"}
COUNT_RATIOS = {"sim.events_per_msg", "pami.useful_advance_ratio",
                "armci.region_cache_hit_ratio", "kvs.cas_success_ratio"}
ISO_DRIVERS = ("sim.event_ns", "sim.switch_ns", "noc.transfer_ns",
               "armci.get_host_ns", "armci.put_host_ns", "armci.fetch_add_host_ns")


def clock_of(name, unit):
    """Which clock a ledger value is measured on: host, virtual or count."""
    if unit in ("count", "bytes") or name in COUNT_RATIOS:
        return "count"
    if name in HOST_CLOCK or name.rsplit(".", 1)[0] in ISO_DRIVERS:
        return "host"
    return "virtual"


def check_windows(windows):
    """Calibrated timed regions: begin, end pairs, each non-empty."""
    if not windows or len(windows) % 2:
        raise BenchError(f"calibration gave {windows!r}, not begin, end pairs")
    for begin, end in zip(windows[::2], windows[1::2]):
        if end <= begin:
            raise BenchError(f"empty timed region {begin}..{end} ps")
    return windows


def windows_match(seen, windows):
    """Whether a repetition's own timed regions are the ones its markers
    were put at, each end within WINDOW_TOLERANCE of its region's length.

    Exact for coll-sw and kvs-zipf. A marker is an event the engine
    allocates and frees, and scf-at's virtual times depend on the host
    heap layout (README.md, "Determinism guard"), so its marked
    repetitions see the Fock loop start a few virtual microseconds off
    the unmarked calibration (and repeat that exactly)."""
    if not isinstance(seen, list) or len(seen) != len(windows):
        return False
    for i in range(0, len(windows), 2):
        slack = WINDOW_TOLERANCE * (windows[i + 1] - windows[i])
        if abs(seen[i] - windows[i]) > slack or abs(seen[i + 1] - windows[i + 1]) > slack:
            return False
    return True


def window_check(rep, windows):
    """Adds the markers.window check: the repetition's own timed
    regions are the ones its markers were put at (windows_match); else
    its host times cover other work and all its ops fail."""
    ok = windows_match(rep.get("windows_ps"), windows)
    rep["checks"].append({"name": "markers.window", "ok": ok,
                          "failed_ops": 0 if ok else rep["attempted"],
                          "detail": f"own regions {rep.get('windows_ps')} ps, "
                                    f"markers at {windows} ps"})
    if not ok:
        rep["failed"] = rep["attempted"]


def host_speed(rep):
    """How much slower than the reference host speed the host ran this
    repetition: its kernel-entry cost over REF_KERNEL_ENTRY_NS."""
    return rep["kernel_entry_ns"] / REF_KERNEL_ENTRY_NS


def ops_per_s(rep):
    """Ops per host CPU second of the timed region, at the reference
    host speed."""
    return rep["attempted"] / rep["timed_s"] * host_speed(rep)


def setup_s(rep):
    """Host CPU seconds of set-up, at the reference host speed."""
    return rep["setup_s"] / host_speed(rep)


def derive_seeds(seed):
    """Machine and application seeds (unsigned) from the run's --seed."""
    app = (seed * 0x9E3779B1 + 0x7F4A7C15) % (1 << 31)
    return seed % (1 << 63), app


# ---------------------------------------------------------------------------
# Build and run


def load_spec():
    with open(BENCHMARK_JSON) as f:
        spec = json.load(f)
    for m in spec["end_to_end"] + spec["per_layer"]:
        if not valid_name(m["name"]) or not valid_unit(m["unit"]):
            raise BenchError(f"BENCHMARK.json: bad metric {m}")
    return spec


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise BenchError("pgasq sources (src/) not found beside perfbench/")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", build_dir, "--target", "pgasq_perf",
                    "-j", jobs], check=True, stdout=sys.stderr)
    return os.path.join(build_dir, "pgasq_perf")


def run_driver(exe, args, timeout):
    """Runs pgasq_perf; returns its @rec records."""
    proc = subprocess.run([exe] + args, capture_output=True, text=True,
                          timeout=timeout)
    if proc.stderr:
        sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise BenchError(f"pgasq_perf {' '.join(args)} exited {proc.returncode}")
    return [json.loads(line[5:]) for line in proc.stdout.splitlines()
            if line.startswith("@rec ")]


def measure(exe, workload, seed, seconds, trace, spans_dir):
    machine_seed, app_seed = derive_seeds(seed)
    base = ["--workload", workload, "--machine-seed", str(machine_seed),
            "--app-seed", str(app_seed)]
    start = time.monotonic()
    deadline = start + RUN_DEADLINE_S
    windows = []
    for rec in run_driver(exe, base + ["--mode", "calibrate"], REP_TIMEOUT_S):
        if rec["kind"] == "calibration":
            windows = check_windows(rec["windows_ps"])

    reps, rss, spans = [], [], []
    min_reps = MIN_TRACE_REPS if trace else MIN_REPS
    n = 0
    # Repeat while the next repetition, at the mean length so far, still
    # ends within the budget, calibration included (and at least
    # min_reps times).
    t_reps = time.monotonic()
    while n < min_reps or (time.monotonic() - start
                           + (time.monotonic() - t_reps) / n) <= seconds:
        if time.monotonic() > deadline:
            raise BenchError("run deadline passed before the minimum repetitions")
        traced = trace and n % 2 == 1
        args = base + ["--mode", "rep", "--traced", "1" if traced else "0"]
        if traced:
            path = os.path.join(spans_dir, f"{workload}-seed{seed}-rep{n}.json")
            args += ["--spans", path]
        recs = run_driver(exe, args + ["--windows", ",".join(map(str, windows))],
                          REP_TIMEOUT_S)
        rep = next((r for r in recs if r["kind"] == "rep"), None)
        if rep is None:
            raise BenchError("pgasq_perf printed no repetition record")
        window_check(rep, windows)
        reps.append(rep)
        for rec in recs:
            if rec["kind"] == "process" and not traced:
                rss.append(rec["peak_rss_mb"])
            elif rec["kind"] == "spans":
                spans.append(rec)
        n += 1
    iso = []
    if trace:
        iso = [r for r in run_driver(exe, base + ["--mode", "iso"], REP_TIMEOUT_S)
               if r["kind"] == "iso"]
    return reps, rss, spans, iso


def reference_checks(reference, reps):
    """Adds one named check per stored reference output to every
    repetition; a mismatch fails all of that repetition's ops."""
    for rep in reps:
        for key, want in reference.items():
            got = rep["outputs"].get(key)
            ok = got == want
            rep["checks"].append({"name": f"reference.{key}", "ok": ok,
                                  "failed_ops": 0 if ok else rep["attempted"],
                                  "detail": f"got {got!r} expected {want!r}"})
            if not ok:
                rep["failed"] = rep["attempted"]


def end_to_end(spec, untraced, rss):
    values = {
        "setup_s": statistics.median(setup_s(r) for r in untraced),
        "ops_per_s": statistics.median(ops_per_s(r) for r in untraced),
        "peak_rss_mb": statistics.median(rss),
        "virt_ms": untraced[0]["virt_ms"],
    }
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in spec["end_to_end"]}


def ledger(untraced, traced, iso):
    """Every per-layer value: name -> (value, unit).

    Counts and virtual values come from an untraced repetition, except
    those only tracing records (critpath, timeline, links), which come
    from a traced one; host values are medians over untraced ones.
    """
    out = {name: (m["value"], m["unit"]) for name, m in traced[0]["layer"].items()}
    out.update({name: (m["value"], m["unit"]) for name, m in untraced[0]["layer"].items()})
    for name in HOST_LAYER:
        unit = out[name][1]
        out[name] = (statistics.median(r["layer"][name]["value"] for r in untraced), unit)
    for rec in iso:
        s = summarize_samples(rec["name"], rec["samples_ns"])
        out[rec["name"] + ".p50"] = (s["p50"], "ns")
        out[rec["name"] + ".p90"] = (s["p90"], "ns")
        out[rec["name"] + ".samples"] = (s["samples"], "count")
    out["host.kernel_entry_ns"] = (
        statistics.median(r["kernel_entry_ns"] for r in untraced), "ns")
    untraced_ops = statistics.median(ops_per_s(r) for r in untraced)
    traced_ops = statistics.median(ops_per_s(r) for r in traced)
    out["obs.trace_overhead_frac"] = (1.0 - traced_ops / untraced_ops, "ratio")
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)

    try:
        spec = load_spec()
        build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
        exe = build(build_dir)
        spans_dir = os.path.join(build_dir, "spans")
        os.makedirs(spans_dir, exist_ok=True)
        reps, rss, spans, iso = measure(exe, args.workload, args.seed,
                                        args.seconds, bool(args.trace), spans_dir)
    except (BenchError, OSError, subprocess.SubprocessError, KeyError,
            ValueError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2

    with open(REFERENCE_JSON) as f:
        reference_checks(json.load(f).get(args.workload, {}), reps)
    # A repetition that threw has no timings; it still counts its ops
    # as failed, but takes no part in the metrics.
    untraced = [r for r in reps if not r["traced"] and r["timed_s"] > 0]
    traced = [r for r in reps if r["traced"] and r["timed_s"] > 0]
    machine_seed, app_seed = derive_seeds(args.seed)
    print(f"workload {args.workload}: seed {args.seed} (machine {machine_seed}, "
          f"app {app_seed}), {len(untraced)} untraced + {len(traced)} traced "
          f"repetitions, one process each")
    for i, r in enumerate(reps):
        print(f"  rep {i} {'traced  ' if r['traced'] else 'untraced'}: "
              f"setup {r['setup_s']:.4f} s, timed {r['timed_s']:.4f} s host cpu "
              f"({r['setup_wall_s']:.4f}, {r['timed_wall_s']:.4f} s wall), "
              f"kernel entry {r['kernel_entry_ns']:.1f} ns, "
              f"{r['attempted']} ops ({r['attempted'] / r['timed_s']:.1f} ops/s measured, "
              f"{ops_per_s(r):.1f} at reference speed), "
              f"virt {r['virt_ms']!r} ms virtual, digest {determinism_digest(r)}")

    attempted, failed, failed_checks = account(reps)
    for name, detail in failed_checks:
        print(f"CHECK FAILED {name}: {detail}")
    drift = determinism_violations(reps)
    for key, vals in drift:
        print(f"DETERMINISM FAILURE {key}: values differ across repetitions: "
              f"{', '.join(vals)}")
    if not drift and untraced:
        print(f"determinism: virt_ms and {len(reps[0]['det'])} counts bit-identical "
              f"across the {len(untraced)} untraced repetitions (digest "
              f"{determinism_digest(untraced[0])})"
              + (f" and across the {len(traced)} traced ones" if traced else ""))
    for key, plain, with_trace in tracing_shifts(reps):
        print(f"note: tracing moved {key} from {plain!r} to {with_trace!r} "
              f"(heap-layout dependence, see README.md)")
    rate = error_rate(attempted, failed)
    print(f"error_rate {rate!r} ({failed} failed of {attempted} attempted ops)")
    correct = not failed_checks and not drift and failed == 0

    try:
        if args.trace:
            values = ledger(untraced, traced, iso)
            print("per-layer ledger (untraced repetition; critpath, timeline and "
                  "link values from a traced one; host values are medians over "
                  "untraced ones; iso = isolated driver):")
            for name in sorted(values):
                value, unit = values[name]
                print(f"  {name:34s} {value!r:>24} {unit:6s} {clock_of(name, unit)}")
            for rec in spans[:1]:
                print(f"spans written to {rec['path']} (host span totals include "
                      f"every fiber the scheduler ran meanwhile):")
                for name, s in sorted(rec["by_name"].items()):
                    print(f"  span {name:28s} x{int(s['count']):<6d} "
                          f"{s['host_ms']:12.3f} ms host {s['virt_us']:14.3f} us virtual")
            metrics = {m["name"]: {"value": values[m["name"]][0], "unit": m["unit"]}
                       for m in spec["per_layer"]}
        else:
            metrics = end_to_end(spec, untraced, rss)
            for name, m in metrics.items():
                print(f"{name} {m['value']!r} {m['unit']}")
        line = result_line(correct, attempted, failed, metrics)
    except (BenchError, KeyError, IndexError, ValueError, statistics.StatisticsError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2
    print(line)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
