"""bottcheck benchmark: verified checks per second, check latency and
set-up time on three workloads, plus a traced per-module run.

Run from the root of a checkout (bottcheck is imported from ``src``):

    python3 bench/run.py --workload divisor-grid --seed 1 --seconds 36 --trace 0
    python3 bench/run.py --workload all --seed 1        # every workload, one table
    python3 bench/run.py --self-test                    # the benchmark's own checks

A run is a closed loop of passes, one at a time, each in a fresh
interpreter (see worker.py), until ``--seconds`` have passed.  With
``--trace 0`` it reports the end-to-end metrics over the passes; with
``--trace 1`` it alternates untraced and traced passes on the same
inputs and reports per-module metrics.  Either way the last
line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
Generated case files and span dumps go to ``.bench_work/``, which each
run empties first.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path
from statistics import median, quantiles

BENCH = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
WORKDIR = ROOT / ".bench_work"
WORKLOADS = ("divisor-grid", "plane-grid", "registry")
LAYERS = ("exact", "chow", "chern", "rr", "theorems", "bottcases", "cli")
MIN_PASSES = 3
PASS_TIMEOUT_S = 120
TAIL_LADDER = (50, 90, 99, 99.9, 99.99)


def _env() -> dict:
    path = [str(SRC), str(BENCH)]
    if os.environ.get("PYTHONPATH"):
        path.append(os.environ["PYTHONPATH"])
    # A fixed hash seed keeps traced call counts identical between runs.
    return dict(os.environ, PYTHONPATH=os.pathsep.join(path), PYTHONHASHSEED="0")


def spawn_pass(workload: str, seed: int, index: int, mode: str) -> dict:
    """Run one pass in a fresh interpreter; set-up time is from spawning
    it to its READY line, which follows import and the first check."""
    argv = [sys.executable, str(BENCH / "worker.py"), workload, str(seed),
            str(index), mode, str(WORKDIR)]
    start = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, text=True, env=_env(), cwd=ROOT)
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - start
        rest = proc.stdout.read()
        code = proc.wait(timeout=PASS_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if code != 0 or ready.strip() != "READY":
        raise RuntimeError(f"{mode} pass {index} of {workload} exited with code {code}")
    result = json.loads(rest.splitlines()[-1])
    result["setup_s"] = setup_s
    return result


def tail_percentile(n: int) -> float:
    """The highest ladder percentile with at least ten samples beyond it."""
    return max(p for p in TAIL_LADDER if n - math.ceil(n * p / 100) >= 10)


def nearest_rank(sorted_values, p: float):
    return sorted_values[math.ceil(len(sorted_values) * p / 100) - 1]


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(passes: list) -> tuple:
    """Each pass gives its own throughput, median and tail; the run
    reports a quartile of each over its passes.  Every pass of a run
    checks the same inputs, so passes differ only in how fast the shared
    host ran them.  The host speeds passes up by as much as 2x for
    seconds to a minute, and slows some passes, or single checks, for
    shorter bursts.  Fast episodes move throughput and the median most,
    so they take the slow-side quartile: the lower quartile of pass
    throughputs and the upper quartile of pass medians.  The tail is a
    few checks per pass, so single slow bursts move it most, and it takes
    the lower quartile of pass tails, at the percentile the per-pass
    sample count supports.  Set-up and memory are medians over passes."""
    durations = [sorted(p["durations_ns"]) for p in passes]
    samples = min(len(d) for d in durations)
    tail = tail_percentile(samples)
    throughput = quantiles([len(d) * 1e9 / sum(d) for d in durations], n=4)[0]
    check_p50 = quantiles([median(d) for d in durations], n=4)[2]
    check_tail = quantiles([nearest_rank(d, tail) for d in durations], n=4)[0]
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    metrics = {
        "checks_per_s": metric(throughput, "1/s"),
        "check_p50_ms": metric(check_p50 / 1e6, "ms"),
        "check_tail_ms": metric(check_tail / 1e6, "ms"),
        "setup_s": metric(median(p["setup_s"] for p in passes), "s"),
        "peak_rss_mb": metric(median(p["peak_rss_kb"] for p in passes) / 1024, "MB"),
        "verified_share": metric(1 - failed / attempted, "share"),
    }
    info = {"tail_percentile": tail, "tail_samples_per_pass": samples,
            "failed_share": failed / attempted}
    return metrics, info, True


def per_layer(passes: list) -> tuple:
    """Per-check layer figures from the traced passes, the Fraction count
    from the profiled ones, and traced over untraced check time."""
    plain = [p for p in passes if p["mode"] == "plain"]
    traced = [p for p in passes if p["mode"] == "trace"]
    profiled = [p for p in passes if p["mode"] == "profile"]
    checks = len(traced[0]["durations_ns"])
    metrics = {}
    for layer in LAYERS:
        metrics[f"{layer}.calls"] = metric(traced[0]["layer_calls"][layer] / checks, "calls/check")
        metrics[f"{layer}.self_ms"] = metric(
            median(p["layer_self_ns"][layer] for p in traced) / checks / 1e6, "ms/check")
        metrics[f"{layer}.self_share"] = metric(
            median(p["layer_self_ns"][layer] / sum(p["durations_ns"]) for p in traced), "share")
    metrics["exact.fraction_new"] = metric(profiled[0]["fraction_new"] / checks, "new/check")
    metrics["theorems.chain_reuse"] = metric(traced[0]["chain_reuse"], "share")
    metrics["trace.overhead"] = metric(
        median(sum(p["durations_ns"]) for p in traced)
        / median(sum(p["durations_ns"]) for p in plain), "ratio")
    # Counts are a claim only if they repeat exactly on the same inputs.
    repeat = (
        all(p["layer_calls"] == traced[0]["layer_calls"] for p in traced)
        and all(p["fraction_new"] == profiled[0]["fraction_new"] for p in profiled)
    )
    return metrics, {"counts_repeat": repeat, "spans_per_pass": traced[0]["spans"]}, repeat


def run_workload(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    start = time.perf_counter()
    if trace:
        # All on one input set (pass 0): two profiled passes count Fraction
        # constructions, then untraced and traced passes alternate.
        passes = [spawn_pass(workload, seed, 0, "profile") for _ in range(2)]
        while len(passes) < 2 + 2 * 2 or time.perf_counter() - start < seconds:
            passes.append(spawn_pass(workload, seed, 0, "plain"))
            passes.append(spawn_pass(workload, seed, 0, "trace"))
        metrics, info, consistent = per_layer(passes)
    else:
        passes = []
        while len(passes) < MIN_PASSES or time.perf_counter() - start < seconds:
            passes.append(spawn_pass(workload, seed, len(passes), "plain"))
        metrics, info, consistent = end_to_end(passes)
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    info.update(
        workload=workload, seed=seed, trace=int(trace), python=platform.python_version(),
        nproc=os.cpu_count(), passes=len(passes), attempted=attempted, failed=failed,
        chain_reuse=passes[0]["chain_reuse"],
        pass_modes=[p["mode"] for p in passes],
        pass_check_s=[round(sum(p["durations_ns"]) / 1e9, 4) for p in passes],
        failures=[f for p in passes for f in p["failures"]][:5],
    )
    return {
        "info": info,
        "result": {
            "correct": failed == 0 and consistent,
            "attempted": attempted,
            "failed": failed,
            "metrics": metrics,
        },
    }


def print_table(workload: str, metrics: dict, info: dict):
    rows = [(name, m["value"], m["unit"]) for name, m in metrics.items()]
    if "failed_share" in info:
        # Not a result metric (it is 0 when all is well); shown beside them.
        rows.append(("failed_share", info["failed_share"], "share"))
    for name, value, unit in rows:
        print(f"{workload:<13} {name:<22} {value:>14.6g} {unit}")


def self_test(seed: int) -> int:
    """A wrong closed form must fail divisor-grid checks; a raising call
    must fail a registry check without stopping the pass."""
    sys.path[:0] = [str(SRC), str(BENCH)]
    import worker
    from bottcheck import bottcases, theorems

    outcomes = {}
    clean = worker.run_pass("divisor-grid", seed, 0, WORKDIR, limit=300)
    outcomes["clean divisor-grid pass has no failure"] = clean["failed"] == 0

    real_closed = theorems.thm2_closed
    theorems.thm2_closed = lambda inp: Fraction(-1)
    try:
        broken = worker.run_pass("divisor-grid", seed, 0, WORKDIR, limit=300)
    finally:
        theorems.thm2_closed = real_closed
    outcomes["wrong thm2_closed fails every check"] = broken["failed"] == broken["attempted"]

    def raising(case):
        raise RuntimeError("injected fault")

    real_evaluate = bottcases.evaluate_case
    bottcases.evaluate_case = raising
    try:
        raised = worker.run_pass("registry", seed, 0, WORKDIR, limit=5)
    finally:
        bottcases.evaluate_case = real_evaluate
    outcomes["raising registry checks count as failed"] = (
        raised["failed"] == raised["attempted"] == 6
        and "RuntimeError" in raised["failures"][0]
    )
    for name, ok in outcomes.items():
        print(f"{'PASS' if ok else 'FAIL'}  {name}")
    return 0 if all(outcomes.values()) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=36)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv)

    if not (SRC / "bottcheck" / "__init__.py").is_file():
        print(f"error: no bottcheck package under {SRC}; run from a checkout root",
              file=sys.stderr)
        return 2
    shutil.rmtree(WORKDIR, ignore_errors=True)
    WORKDIR.mkdir()
    # Compile bytecode once, untimed, as an installed package would have it.
    subprocess.run([sys.executable, "-c", "import workloads, spans"],
                   env=_env(), cwd=ROOT, check=True)
    if args.self_test:
        return self_test(args.seed)

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    runs = {name: run_workload(name, args.seed, args.seconds, bool(args.trace)) for name in names}
    for name, run in runs.items():
        print(json.dumps(run["info"]))
        print_table(name, run["result"]["metrics"], run["info"])
    if len(runs) == 1:
        final = runs[names[0]]["result"]
    else:
        final = {
            "correct": all(r["result"]["correct"] for r in runs.values()),
            "attempted": sum(r["result"]["attempted"] for r in runs.values()),
            "failed": sum(r["result"]["failed"] for r in runs.values()),
            "metrics": {f"{name}.{m}": v for name, r in runs.items()
                        for m, v in r["result"]["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
