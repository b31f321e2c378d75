#!/usr/bin/env python3
"""lrbench runner: builds the lrbench binary, runs the benchmark workloads
one process at a time, checks their outputs and prints every metric that
BENCHMARK.json declares. See benchmark/README.md.

  python3 benchmark/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]
      One workload: the correctness pass, then untraced reps in fresh
      processes for S seconds, plus one traced rep with --trace 1. The last
      line of stdout is one JSON object with the keys correct, attempted,
      failed and metrics: the end-to-end metrics with --trace 0, the
      per-layer metrics with --trace 1.

  python3 benchmark/run.py [--seed N] [--reps R] [--out results.json]
      Every workload: the correctness pass, R rounds going round-robin over
      the workloads, then one traced rep each. Prints every metric;
      --out also writes them, with host context, for compare.py.

  python3 benchmark/run.py --quick
      Self-test: the correctness pass and 2 rounds of every workload shrunk
      10x. Fails unless the metrics printed for each workload are exactly
      the ones BENCHMARK.json declares, with valid names and units.

Exits non-zero on any failure: a build error, a debug build, an invariant
violation, a rep that hits the watchdog or completes fewer ops than it
was given, or two reps of one seed that disagree on cycles or Stats.
"""

import argparse
import datetime
import json
import os
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ROOT / "benchmark" / "workloads"
BUILD = ROOT / "build-bench"
LRBENCH = BUILD / "lrbench"

# Rep i of a run simulates seed + (i % SUBSEEDS) * SUBSEED_STRIDE, so the
# simulated metrics of one --seed average SUBSEEDS independent inputs. One
# input alone moves them by up to 3% from seed to seed (README, "Noise").
SUBSEEDS = 4
SUBSEED_STRIDE = 1_000_003
# A one-workload run measures at least two reps of every sub-seed, so each
# is checked for determinism.
MIN_REPS = 2 * SUBSEEDS
# Host times are corrected for neighbours on a shared host by lrbench's
# probe kernel (README, "Noise"): a time t measured while the probe ran at
# p ns per step is reported as t * (PROBE_REF_NS / p) ** ELASTICITY.
# PROBE_REF_NS is the probe's speed on a quiet host of the recorded class
# (4-vCPU Xeon). In three sessions of about 600 reps each, at p = 104..184
# ns, log(run time) rose with log(p) at a slope of 1.4-1.8, depending on
# workload and session; 1.5 gave the steadiest host metrics in all three.
PROBE_REF_NS = 110.0
ELASTICITY = 1.5
# A p99 read off fewer samples than this is noise, so it is reported as 0.
MIN_P99_SAMPLES = 1000
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


class BenchError(Exception):
    """A failure that makes the run's numbers unusable."""


def build():
    """Configures (once) and builds lrbench in Release. Build output goes to
    stderr so stdout stays the result."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise BenchError(f"no library sources at {ROOT / 'src'}; run from a full checkout")
    if not (BUILD / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(ROOT / "benchmark"), "-B", str(BUILD),
               "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            raise BenchError("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", str(BUILD), "--target", "lrbench", "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
        raise BenchError("build failed")


def workload_names():
    return sorted(p.stem for p in WORKLOADS.glob("*.toml"))


def subseed(seed, i):
    return seed + (i % SUBSEEDS) * SUBSEED_STRIDE


def lrbench(name, seed, *flags):
    """Runs one rep in a fresh process and returns its raw measurements."""
    cmd = [str(LRBENCH), str(WORKLOADS / f"{name}.toml"), "--seed", str(seed), *flags]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    if proc.returncode != 0:
        raise BenchError(f"{name} seed {seed} {' '.join(flags)}: {proc.stderr.strip()}")
    rep = json.loads(proc.stdout)
    if rep["build_type"] != "release":
        raise BenchError("lrbench is a debug build (NDEBUG unset); host times would be "
                         f"meaningless. Delete {BUILD} and rerun.")
    return rep


def check_pass(name, seed):
    """The shrunk runs under the invariant checker, one per sub-seed."""
    return [lrbench(name, subseed(seed, k), "--check") for k in range(SUBSEEDS)]


def shortfall(rep):
    return rep["expected_ops"] - rep["stats"]["ops_completed"]


def problems(name, checks, reps, traced):
    """Correctness of one workload's reps; an empty list means correct."""
    found = []
    labelled = [(f"check seed {r['seed']}", r) for r in checks] + \
        [(f"rep {i} (seed {r['seed']})", r) for i, r in enumerate(reps)] + \
        ([("traced", traced)] if traced else [])
    for label, rep in labelled:
        if not rep["finished"]:
            found.append(f"{name} {label}: hit the watchdog")
        if shortfall(rep) != 0:
            found.append(f"{name} {label}: completed {rep['stats']['ops_completed']} of "
                         f"{rep['expected_ops']} ops")
    first = first_per_seed(reps)
    for label, rep in labelled[len(checks):]:
        ref = first.get(rep["seed"])
        if ref is not None and (rep["cycles"], rep["stats"]) != (ref["cycles"], ref["stats"]):
            found.append(f"{name} {label}: cycles or Stats differ from an earlier rep of "
                         "the same seed")
    return found


def first_per_seed(reps):
    first = {}
    for r in reps:
        first.setdefault(r["seed"], r)
    return first


def correction(rep, phase):
    """Factor that scales a host time of the rep's `phase` ("setup" or
    "run") to the quiet reference host."""
    probe_ns = rep[f"probe_{phase}_s"] * 1e9 / rep[f"probe_{phase}_steps"]
    return (PROBE_REF_NS / probe_ns) ** ELASTICITY


def run_s(rep):
    return rep["run_s"] * correction(rep, "run")


def host_kops(rep):
    return rep["stats"]["ops_completed"] / run_s(rep) / 1e3


def setup_s(rep):
    return (rep["machine_ctor_s"] + rep["build_s"]) * correction(rep, "setup")


def quantile_rep(reps, key, q):
    """The rep at quantile q by `key` (rounded down), so every metric read
    off it comes from one rep."""
    return sorted(reps, key=key)[int(q * (len(reps) - 1))]


def host_rep(reps):
    """The rep that sets the host-speed metrics: the upper quartile by
    throughput. Neighbours only ever slow a rep, so the faster reps are the
    less disturbed ones; the quartile, unlike the best rep, ignores the odd
    rep whose probe alone was slowed."""
    return quantile_rep(reps, host_kops, 0.75)


def end_to_end(reps):
    """User-visible metrics over the untraced reps of one workload. The
    simulated metrics pool one rep of each sub-seed."""
    sims = first_per_seed(reps).values()
    ops = sum(r["stats"]["ops_completed"] for r in sims)
    return {
        "host_kops_per_s": (host_kops(host_rep(reps)), "kops/s"),
        "setup_s": (setup_s(quantile_rep(reps, setup_s, 0.5)), "s"),
        "peak_rss_mb": (max(r["peak_rss_kb"] for r in reps) / 1024, "MB"),
        # 1 cycle == 1 ns at the modeled 1 GHz clock.
        "sim_mops": (ops * 1e3 / sum(r["cycles"] for r in sims), "Mops/s"),
        "sim_msgs_per_op": (sum(r["messages"] for r in sims) / ops, "msgs/op"),
        "sim_nj_per_op": (sum(r["energy_nj"] for r in sims) / ops, "nJ/op"),
    }


def percentile(counts, q, min_samples=1):
    """Upper bound of the log2 bucket holding quantile q; 0 when the
    histogram has fewer than min_samples samples."""
    total = sum(counts)
    if total == 0 or total < min_samples:
        return 0.0
    acc = 0
    for bucket, count in enumerate(counts):
        acc += count
        if acc >= q * total:
            return float(2 ** bucket)


def per_layer(reps, traced):
    """Per-layer metrics: simulated counts from the traced rep, host times
    from the untraced rep that sets host_kops_per_s. Layers are the src/
    module names."""
    fast = host_rep(reps)
    s = traced["stats"]
    ops = s["ops_completed"]

    def per_op(v):
        return v / ops

    def per_kop(v):
        return 1e3 * v / ops

    def ratio(a, b):
        return a / b if b else 0.0

    m = {
        "sim.events_per_op": (per_op(traced["events"]), "events/op"),
        "sim.host_ns_per_event": (run_s(fast) * 1e9 / fast["events"], "ns"),
        "sim.host_mcycles_per_s": (fast["cycles"] / run_s(fast) / 1e6, "Mcycles/s"),
        "coherence.l1_hit_rate": (ratio(s["l1_hits"], s["l1_hits"] + s["l1_misses"]), "ratio"),
        "coherence.l1_misses_per_op": (per_op(s["l1_misses"]), "count/op"),
        "coherence.l1_evictions_per_op": (per_op(s["l1_evictions"]), "count/op"),
        "coherence.l2_accesses_per_op": (per_op(s["l2_accesses"]), "count/op"),
    }
    for kind in ("gets", "getx", "inv", "downgrade", "data", "ack", "wb", "nack"):
        m[f"coherence.{kind}_per_op"] = (per_op(s[f"msgs_{kind}"]), "msgs/op")
    m["coherence.probes_coarse_per_op"] = (per_op(s["probes_coarse"]), "msgs/op")
    m["coherence.dir_peak_queue"] = (float(traced["dir_peak_queue"]), "entries")
    m["mem.dram_per_op"] = (per_op(s["dram_accesses"]), "count/op")
    m["core.leases_per_op"] = (per_op(s["leases_taken"]), "count/op")
    m["core.lease_voluntary_frac"] = (ratio(s["releases_voluntary"], s["leases_taken"]), "ratio")
    for name, field in (("involuntary", "releases_involuntary"), ("evicted", "releases_evicted"),
                        ("broken", "releases_broken"), ("suppressed", "leases_suppressed"),
                        ("adapt_grow", "lease_adapt_grow"), ("adapt_shrink", "lease_adapt_shrink")):
        m[f"core.{name}_per_kop"] = (per_kop(s[field]), "count/kop")
    m["core.probes_parked_per_op"] = (per_op(s["probes_queued"]), "count/op")
    m["core.park_cycles_per_op"] = (per_op(s["probe_queued_cycles"]), "cycles/op")
    for name, hist in (("park", "park_hist"), ("lease_hold", "lease_hold_hist")):
        m[f"core.{name}_p50_cycles"] = (percentile(traced[hist], 0.5), "cycles")
        m[f"core.{name}_p99_cycles"] = (percentile(traced[hist], 0.99, MIN_P99_SAMPLES), "cycles")
    m["core.granted_lease_p50_cycles"] = (percentile(traced["granted_lease_hist"], 0.5), "cycles")
    m["ds.cas_per_op"] = (per_op(s["cas_attempts"]), "count/op")
    m["ds.cas_failure_rate"] = (ratio(s["cas_failures"], s["cas_attempts"]), "ratio")
    m["sync.lock_acquisitions_per_op"] = (per_op(s["lock_acquisitions"]), "count/op")
    m["sync.failed_trylocks_per_op"] = (per_op(s["lock_failed_trylocks"]), "count/op")
    setup = quantile_rep(reps, setup_s, 0.5)
    fix = correction(setup, "setup")
    m["workload.machine_ctor_s"] = (setup["machine_ctor_s"] * fix, "s")
    m["workload.build_s"] = (setup["build_s"] * fix, "s")
    m["workload.host_ns_per_key_sample"] = (traced["host_ns_per_key_sample"], "ns")
    m["workload.host_ns_per_wheel_op"] = (traced["host_ns_per_wheel_op"], "ns")
    m["obs.trace_overhead"] = (run_s(traced) / run_s(fast), "ratio")
    return m


def as_json_metrics(metrics):
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


def run_one_workload(args):
    """The one-workload mode: prints the result object as the last line."""
    name = args.workload
    if name not in workload_names():
        raise BenchError(f"unknown workload {name!r} (have: {', '.join(workload_names())})")
    build()
    checks = check_pass(name, args.seed)
    reps = []
    start = time.monotonic()
    while True:
        t0 = time.monotonic()
        reps.append(lrbench(name, subseed(args.seed, len(reps))))
        rep_wall = time.monotonic() - t0
        # Stop before a rep that would overrun the time budget.
        if len(reps) >= MIN_REPS and time.monotonic() - start + rep_wall > args.seconds:
            break
    traced = lrbench(name, args.seed, "--trace") if args.trace else None
    found = problems(name, checks, reps, traced)
    for p in found:
        print(f"FAIL: {p}", file=sys.stderr)
    all_reps = checks + reps + ([traced] if traced else [])
    metrics = per_layer(reps, traced) if args.trace else end_to_end(reps)
    print(json.dumps({
        "correct": not found,
        "attempted": sum(r["expected_ops"] for r in all_reps),
        "failed": sum(max(0, shortfall(r)) for r in all_reps),
        "metrics": as_json_metrics(metrics),
    }))
    return 0 if not found else 1


def host_context():
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        sha = subprocess.run(["git", "describe", "--always", "--dirty", "--abbrev=40"],
                             cwd=ROOT, capture_output=True, text=True).stdout.strip() or "unknown"
    except OSError:
        sha = "unknown"
    return {"nproc": os.cpu_count(), "cpu_model": cpu,
            "date": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
            "build_type": "Release", "git_sha": sha}


def host_info(reps):
    """Spread of per-rep host throughput, for information only."""
    kops = [host_kops(r) for r in reps]
    q1, q2, q3 = statistics.quantiles(kops, n=4)
    raw = statistics.median(r["stats"]["ops_completed"] / r["run_s"] / 1e3 for r in reps)
    return {"host_kops_per_s_q1": q1, "host_kops_per_s_median": q2, "host_kops_per_s_q3": q3,
            "host_kops_per_s_uncorrected_median": raw, "reps": len(reps)}


def declared_metrics():
    with open(ROOT / "BENCHMARK.json") as f:
        spec = json.load(f)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def self_test(results):
    """--quick: the printed metrics must be exactly the declared ones."""
    e2e, layer = declared_metrics()
    found = []
    for name, res in results.items():
        for kind, declared in (("end_to_end", e2e), ("per_layer", layer)):
            printed = res[kind]
            for metric in sorted(set(declared) - set(printed)):
                found.append(f"{name}: declared {kind} metric {metric} not printed")
            for metric in sorted(set(printed) - set(declared)):
                found.append(f"{name}: printed {kind} metric {metric} not declared")
            for metric, m in printed.items():
                if not NAME_RE.match(metric):
                    found.append(f"{name}: bad metric name {metric!r}")
                if not UNIT_RE.match(m["unit"]):
                    found.append(f"{name}: {metric} has a bad unit {m['unit']!r}")
                elif metric in declared and m["unit"] != declared[metric]:
                    found.append(f"{name}: {metric} unit {m['unit']} != declared "
                                 f"{declared[metric]}")
    return found


def run_all(args):
    """The every-workload mode: round-robin reps, table, optional --out."""
    build()
    names = workload_names()
    mode = ["--quick"] if args.quick else []
    rounds = 2 if args.quick else args.reps
    checks = {n: check_pass(n, args.seed) for n in names}
    reps = {n: [] for n in names}
    for r in range(rounds):
        for n in names:
            reps[n].append(lrbench(n, subseed(args.seed, r), *mode))
    traced = {n: lrbench(n, args.seed, "--trace", *mode) for n in names}

    found, results = [], {}
    for n in names:
        found += problems(n, checks[n], reps[n], traced[n])
        results[n] = {"end_to_end": as_json_metrics(end_to_end(reps[n])),
                      "per_layer": as_json_metrics(per_layer(reps[n], traced[n])),
                      "info": host_info(reps[n])}
        print(f"== {n} ({rounds} reps, seed {args.seed})")
        for kind in ("end_to_end", "per_layer"):
            for metric, m in results[n][kind].items():
                print(f"  {metric:36s} {m['value']:>16.6g} {m['unit']}")
        info = results[n]["info"]
        print(f"  (info) host_kops_per_s quartiles {info['host_kops_per_s_q1']:.6g}.."
              f"{info['host_kops_per_s_q3']:.6g}; uncorrected median "
              f"{info['host_kops_per_s_uncorrected_median']:.6g}")
    if args.quick:
        found += self_test(results)
    if args.out:
        with open(args.out, "w") as f:
            json.dump({"context": host_context(), "seed": args.seed, "reps": rounds,
                       "workloads": results}, f, indent=1, sort_keys=True)
            f.write("\n")
    for p in found:
        print(f"FAIL: {p}", file=sys.stderr)
    print("correct" if not found else f"{len(found)} problem(s)")
    return 0 if not found else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", help="run one workload (the BENCHMARK.json contract)")
    ap.add_argument("--seed", type=int, default=1, help="overrides every workload's seed")
    ap.add_argument("--seconds", type=float, default=20.0,
                    help="one-workload mode: how long to measure")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="one-workload mode: 1 prints the per-layer metrics")
    ap.add_argument("--reps", type=int, default=9, help="every-workload mode: rounds")
    ap.add_argument("--out", help="every-workload mode: write results JSON here")
    ap.add_argument("--quick", action="store_true", help="self-test on shrunk workloads")
    args = ap.parse_args()
    if args.seed < 0 or args.reps < SUBSEEDS or args.seconds <= 0:
        ap.error(f"--seed must be >= 0, --reps >= {SUBSEEDS}, --seconds > 0")
    if args.quick and args.workload:
        ap.error("--quick runs every workload; drop --workload")
    try:
        return run_one_workload(args) if args.workload else run_all(args)
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
