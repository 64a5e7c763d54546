#!/usr/bin/env python3
"""Flat-engine stabilization benchmark: U∘SDR on the IR-compiled flat engine.

Run from the root of the repository:

    python3 perfbench/run.py --workload ring-faults-sync --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --trace 1     # every workload
    python3 perfbench/run.py --workload ring-faults-sync --wrong-pin   # negative check

It builds perfbench/bench.exe with dune, then runs one iteration per
process until --seconds have been spent.  Iteration i runs sub-input i of
the seed (a fresh graph / fault / daemon draw), so a run's medians average
over many inputs of the workload's distribution, and the same seed gives the
same inputs.  Every iteration's output is checked; a failed iteration counts
in `failed` and its numbers are dropped.

--trace 0 reports the end-to-end metrics of BENCHMARK.json from untraced
iterations.  --trace 1 alternates traced and untraced iterations on the same
sub-inputs and reports the per-layer metrics.  The last line of standard
output is one JSON object: correct, attempted, failed, metrics.
See perfbench/DESIGN.md for the workloads, metrics and layer map.
"""

import argparse
import json
import os
import subprocess
import sys
import time
from statistics import median

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "bench.exe")
DEFAULT_SEED = 1
# A healthy iteration takes about a second.  These caps keep a run within
# three minutes even when the program under test hangs.
ITERATION_TIMEOUT_S = 40
GRACE_S = 30
# Every traced run completes at least this many traced/untraced pairs; the
# count metrics come from exactly these sub-inputs, so they repeat exactly
# for a seed whatever the machine's speed.
MIN_PAIRS = 3
MIN_ITERATIONS = 5
COVERAGE_BAND = (0.90, 1.10)

COUNT_METRICS = {
    "flat.evals_per_move",
    "flat.touches_per_move",
    "flat.dedup_hit_ratio",
    "flat.movers_per_step_p50",
}
# Read from the untraced iterations of a traced run.
UNTRACED_LAYER_METRICS = {
    "csr.build_s",
    "flat.compile_s",
    "progs.init_s",
    "flat.checksum_s",
    "gc.minor_words_per_move",
    "gc.major_collections",
}
# Derived from the profiler's phase laps: reported only from traced
# iterations whose laps tile the wall time.
LAP_METRICS = {
    "flat.scan_share",
    "flat.select_share",
    "flat.select_ns_per_step",
    "flat.apply_share",
    "flat.apply_ns_per_move",
    "flat.refresh_share",
    "flat.ns_per_eval",
    "pool.barrier_share",
    "pool.barrier_wait_p90_ms",
    "pool.worker_imbalance",
    "flat.compute_share",
    "flat.replay_s",
}


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def load_json(path, what):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read %s (%s): %s" % (what, path, e))


def build():
    for rel in ("dune-project", "lib/sim/flat/flat.ml", "perfbench/dune"):
        if not os.path.exists(os.path.join(ROOT, rel)):
            fail("%s not found: run from the root of the repository" % rel)
    # --cache=disabled keeps dune from writing its shared cache outside
    # the checkout.
    cmd = ["dune", "build", "--root", ROOT, "--cache=disabled",
           "./perfbench/bench.exe"]
    try:
        p = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                           stderr=subprocess.STDOUT, timeout=840)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("build failed: %s" % e)
    if p.returncode != 0:
        sys.stderr.write(p.stdout.decode(errors="replace"))
        fail("build failed (dune exit %d)" % p.returncode)


def iterate(workload, seed, sub, mode):
    """One iteration in its own process; None when it crashed."""
    try:
        p = subprocess.run([EXE, workload, str(seed), str(sub), mode],
                           stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                           timeout=ITERATION_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None
    if p.returncode != 0:
        sys.stderr.write(p.stderr.decode(errors="replace"))
        return None
    try:
        return json.loads(p.stdout.decode().strip().splitlines()[-1])
    except (ValueError, IndexError):
        return None


def check(workload, it, seed, pins):
    """The reasons an iteration's output is wrong (empty when correct)."""
    errs = []
    if it["moves"] != it["moves_per_process_sum"]:
        errs.append("moves != sum of moves_per_process")
    if it["moves"] != it["moves_per_rule_sum"]:
        errs.append("moves != sum of moves_per_rule")
    if it["budget"] is not None:
        if it["outcome"] != "step-limit" or it["steps"] != it["budget"]:
            errs.append("did not execute exactly its step budget")
    elif it["outcome"] != "stabilized" or not it["legitimate"]:
        errs.append("did not stabilize to a legitimate configuration")
    if "reference_digest" in it and it["digest"] != it["reference_digest"]:
        errs.append("partitioned digest differs from the sequential run's")
    if seed == DEFAULT_SEED and it["sub"] == 0:
        if it["digest"] != pins[workload]:
            errs.append("digest differs from the pinned one")
    return errs


def covered(it):
    """Whether a traced iteration's phase laps tile its wall time, the
    condition `prof report --check` puts on a profile before trusting its
    shares."""
    lo, hi = COVERAGE_BAND
    return lo <= it["coverage"] <= hi


def end_to_end(ok):
    return {
        "run_s": median([it["run_s"] for it in ok]),
        "moves_per_s": median([it["moves"] / it["run_s"] for it in ok]),
        "setup_s": median([setup_s(it) for it in ok]),
        "total_s": median([setup_s(it) + it["run_s"] + it["flat.checksum_s"]
                           for it in ok]),
        "top_heap_mb": median([it["top_heap_mb"] for it in ok]),
    }


def setup_s(it):
    return it["csr.build_s"] + it["flat.compile_s"] + it["progs.init_s"]


def per_layer(workload, pairs, names):
    """pairs: (traced, untraced) iterations of one sub-input, both correct.
    None when the first pairs are missing or no traced iteration's laps
    tile its wall time."""
    traced = [t for t, _ in pairs]
    untraced = [u for _, u in pairs]
    tiled = [t for t in traced if covered(t)]
    counted = [t for t in traced if t["sub"] < MIN_PAIRS]
    for t in traced:
        if not covered(t):
            print("refused %s sub=%d: phase laps cover %.3f of the wall time"
                  % (workload, t["sub"], t["coverage"]), file=sys.stderr)
    if not tiled or len(counted) < MIN_PAIRS:
        return None
    out = {}
    for name in names:
        if name == "trace.overhead_pct":
            out[name] = median([100.0 * (t["run_s"] / u["run_s"] - 1.0)
                                for t, u in pairs])
        elif name in UNTRACED_LAYER_METRICS:
            out[name] = median([u[name] for u in untraced])
        elif name in COUNT_METRICS:
            out[name] = median([t[name] for t in counted])
        elif name in LAP_METRICS:
            out[name] = median([t[name] for t in tiled])
        else:
            out[name] = median([t[name] for t in traced])
    return out


def run_workload(workload, seed, seconds, trace, pins, names):
    tally = {"attempted": 0, "failed": 0}

    def attempt(sub, mode):
        """Run and check one iteration; the iteration when it is correct."""
        tally["attempted"] += 1
        it = iterate(workload, seed, sub, mode)
        errs = ["crashed"] if it is None else check(workload, it, seed, pins)
        if not errs:
            return it
        tally["failed"] += 1
        print("FAILED %s seed=%d sub=%d %s: %s"
              % (workload, seed, sub, mode, "; ".join(errs)), file=sys.stderr)
        return None

    # Warm-up, checked but not measured: the first runs after an idle
    # spell are measurably slower (the partitioned run by half on a 2-core
    # VM).
    attempt(0, "plain")
    deadline = time.monotonic() + seconds
    plain, pairs = [], []
    floor = MIN_PAIRS if trace else MIN_ITERATIONS
    sub, last = 0, 0.0
    while time.monotonic() < deadline + GRACE_S and (
            sub < floor or time.monotonic() + last <= deadline):
        started = time.monotonic()
        if not trace:
            it = attempt(sub, "plain")
            if it is not None:
                plain.append(it)
        else:
            # Alternate which of the pair runs first, so neither always
            # follows the other.
            order = ("traced", "plain") if sub % 2 == 0 else ("plain",
                                                               "traced")
            got = {mode: attempt(sub, mode) for mode in order}
            if None not in got.values():
                if got["traced"]["digest"] != got["plain"]["digest"]:
                    tally["failed"] += 1
                    print("FAILED %s seed=%d sub=%d: profiling changed the "
                          "digest" % (workload, seed, sub), file=sys.stderr)
                else:
                    pairs.append((got["traced"], got["plain"]))
        last = time.monotonic() - started
        sub += 1
    if trace:
        metrics = per_layer(workload, pairs, names)
        if metrics is None:
            tally["failed"] += 1
            metrics = {}
    else:
        metrics = end_to_end(plain) if plain else {}
    return tally["attempted"], tally["failed"], metrics


def report(workload, attempted, failed, metrics, units):
    print("%s: %d runs, %d failed, failed_frac %.4f"
          % (workload, attempted, failed, failed / max(1, attempted)))
    for name, value in metrics.items():
        print("  %-28s %14.6g %s" % (name, value, units[name]))


def main():
    spec = load_json(os.path.join(ROOT, "BENCHMARK.json"), "benchmark spec")
    workload_names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=workload_names + ["all"])
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--wrong-pin", action="store_true",
                    help="negative check: corrupt the pinned digests, so "
                         "the default seed's first iteration must fail")
    args = ap.parse_args()
    if args.wrong_pin and args.seed != DEFAULT_SEED:
        fail("--wrong-pin needs the default seed (%d)" % DEFAULT_SEED)
    pins = load_json(os.path.join(HERE, "pinned.json"), "pinned digests")
    if args.wrong_pin:
        pins = {w: d + "0" for w, d in pins.items()}
    build()
    metric_list = spec["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in metric_list}
    workloads = workload_names if args.workload == "all" else [args.workload]
    attempted = failed = 0
    metrics = {}
    for w in workloads:
        a, f, m = run_workload(w, args.seed, args.seconds, args.trace, pins,
                               list(units))
        report(w, a, f, m, units)
        attempted += a
        failed += f
        if len(workloads) == 1:
            metrics = m
        else:
            metrics.update({w + "/" + k: v for k, v in m.items()})
    result = {
        "correct": failed == 0 and bool(metrics),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k.split("/")[-1]]}
                    for k, v in metrics.items()},
    }
    print(json.dumps(result))


if __name__ == "__main__":
    main()
