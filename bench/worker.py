"""One benchmark pass in a fresh interpreter.

Usage: python worker.py WORKLOAD SEED PASS MODE WORKDIR

The parent starts this with ``src`` on PYTHONPATH.  The pass imports
bottcheck, runs one untimed check, prints ``READY`` (the parent's
set-up clock stops there), then runs and times the pass's checks one at
a time and prints one JSON result line.  MODE is ``plain`` (timing only),
``trace`` (spans around every public call of the seven modules) or
``profile`` (``Fraction`` constructions counted with cProfile).
"""

from __future__ import annotations

import functools
import json
import resource
import sys
import time
from pathlib import Path

import workloads


def _check(call, verify, inp, clock=time.perf_counter_ns):
    """Run and verify one check; returns (timed ns, error or None).  Only
    ``call`` is timed; ``verify`` compares with the reference."""
    start = clock()
    try:
        out = call(inp)
    except Exception as exc:  # a raising check counts as failed, the pass goes on
        end = clock()
        return end - start, f"{type(exc).__name__}: {exc}"
    end = clock()
    try:
        error = verify(inp, out)
    except Exception as exc:
        error = f"unreadable result ({type(exc).__name__}: {exc})"
    return end - start, error


def fraction_constructions(profiler) -> int:
    return sum(
        entry.callcount
        for entry in profiler.getstats()
        if not isinstance(entry.code, str)
        and entry.code.co_name == "__new__"
        and entry.code.co_filename.endswith("fractions.py")
    )


def peak_rss_kb() -> int:
    """This process's own peak resident set.  On Linux ``ru_maxrss`` keeps
    the parent's high-water mark across fork and exec, so read VmHWM."""
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def run_pass(name, seed, index, workdir, mode="plain", ready=None, limit=None) -> dict:
    workload = workloads.WORKLOADS[name](seed, Path(workdir))
    failures = []
    warmup = workload.warmup_input()
    _, error = _check(workload.call, workload.verify, warmup)
    if error:
        failures.append(f"{warmup!r}: {error}")
    if ready is not None:
        ready()

    inputs = workload.pass_inputs(index)[:limit]
    seen, reused, thm2_checks = set(), 0, 0
    for inp in inputs:
        for key in workload.chain_keys(inp):
            thm2_checks += 1
            reused += key in seen
            seen.add(key)

    call, tracer, profiler = workload.call, None, None
    if mode == "trace":
        import spans

        tracer = spans.Tracer()
        spans.install(tracer)
    elif mode == "profile":
        import cProfile

        profiler = cProfile.Profile()
        call = functools.partial(profiler.runcall, workload.call)

    durations = []
    for request, inp in enumerate(inputs, 1):
        if tracer is not None:
            tracer.request = request
        duration, error = _check(call, workload.verify, inp)
        durations.append(duration)
        if error:
            failures.append(f"{inp!r}: {error}")

    result = {
        "workload": name,
        "mode": mode,
        "attempted": len(inputs) + 1,
        "failed": len(failures),
        "failures": failures[:5],
        "durations_ns": durations,
        "chain_reuse": reused / thm2_checks if thm2_checks else 0.0,
        "peak_rss_kb": peak_rss_kb(),
    }
    if tracer is not None:
        result["layer_calls"] = tracer.calls
        result["layer_self_ns"] = tracer.self_ns
        result["spans"] = len(tracer)
        tracer.write(Path(workdir) / f"spans-{name}-{seed}-{index}.tsv")
    if profiler is not None:
        result["fraction_new"] = fraction_constructions(profiler)
    return result


def main(argv):
    name, seed, index, mode, workdir = argv
    result = run_pass(
        name, int(seed), int(index), workdir, mode,
        ready=lambda: print("READY", flush=True),
    )
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main(sys.argv[1:])
