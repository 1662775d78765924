#!/usr/bin/env python3
"""Benchmark of cqca jobs: one workload per process, single-threaded, closed loop.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the program is imported from ``src/``.  The
benchmark first self-tests its reference and checkers, then draws the
workload's seeded inputs once.  Set-up imports cqcalab afresh and builds the
job list from those inputs.  The benchmark then computes the independent
reference values and runs whole rounds of the job list until ``--seconds``
have passed.  Every output is checked in every round, outside the timed
interval; a job that raises, exits nonzero or gives a wrong output makes the
run incorrect, since no workload input is invalid.  Set-up is timed once more
before every job of an untraced round, and ``setup_s`` is the median of all
these set-ups, so that it samples the machine over the whole run.

With ``--trace 0`` the last line reports the end-to-end metrics: the upper
quartile over rounds of each round's summed wall time, summed CPU time and
median job wall time, the median set-up time and the peak RSS.  With
``--trace 1`` rounds alternate between untraced and traced, and the last line
reports the per-layer metrics of the traced rounds and the tracing overhead.
Per-job records of the run go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import random
import resource
import statistics
import sys
import time
import traceback
import types
from pathlib import Path

import checks
import selftest
import tracing
import workloads

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
MODULES = ("laurent", "phase_space", "automaton", "stabilizer", "finite_chain", "render", "cli")


def _cqcalab_modules() -> dict:
    return {name: m for name, m in sys.modules.items() if name == "cqcalab" or name.startswith("cqcalab.")}


def import_cqcalab() -> types.SimpleNamespace:
    """Import cqcalab and its modules from src/, executing them afresh."""
    for name in _cqcalab_modules():
        del sys.modules[name]
    package = importlib.import_module("cqcalab")
    if Path(package.__file__).resolve().parent != SRC / "cqcalab":
        raise ImportError(f"cqcalab was imported from {package.__file__}, not from src/")
    mods = {name: importlib.import_module(f"cqcalab.{name}") for name in MODULES}
    return types.SimpleNamespace(cqcalab=package, **mods)


def set_up(lists, drawn):
    """Import cqcalab afresh and build the job lists from their drawn inputs."""
    mods = import_cqcalab()
    return mods, [job for (_, build), inputs in zip(lists, drawn) for job in build(mods, inputs)]


def time_set_up(lists, drawn) -> float:
    """Time one more set-up, then put back the modules the measured jobs run on."""
    saved = _cqcalab_modules()
    gc.collect()
    start = time.perf_counter()
    set_up(lists, drawn)
    elapsed = time.perf_counter() - start
    sys.modules.update(saved)
    return elapsed


def run_round(jobs, checkers, tracer, before_job) -> list[dict]:
    records = []
    for job, check in zip(jobs, checkers):
        if before_job is not None:
            before_job()
        gc.collect()
        if tracer is not None:
            tracer.stats = {}
        start_wall, start_cpu = time.perf_counter(), time.process_time()
        try:
            out = job.run()
            error = None
        except Exception as exc:  # a failed job is counted and the round goes on
            out, error = None, f"{type(exc).__name__}: {exc}"
            traceback.print_exc(file=sys.stderr)
        wall, cpu = time.perf_counter() - start_wall, time.process_time() - start_cpu
        if error is None:
            try:
                check(out)
            except (checks.CheckFailed, ValueError) as exc:
                error = f"wrong output: {exc}"
        if error is not None:
            print(f"perfbench: {job.label}: {error}", file=sys.stderr)
        records.append({
            "label": job.label, "wall_s": wall, "cpu_s": cpu, "error": error,
            "stats": None if tracer is None else tracer.stats,
        })
    return records


def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _upper_quartile(values: list[float]) -> float:
    # A shared VM runs at one steady speed most of the time, with stretches
    # 20-45 % faster.  The median of a run's rounds lands on either level,
    # depending on how much of the run was fast; the upper quartile stays on
    # the steady level unless three quarters of the run were fast.
    return statistics.quantiles(values, n=4, method="inclusive")[2] if len(values) > 1 else values[0]


def end_to_end(rounds, setup_times) -> dict:
    walls = [sum(r["wall_s"] for r in records) for _, records in rounds]
    cpus = [sum(r["cpu_s"] for r in records) for _, records in rounds]
    job_medians = [statistics.median(r["wall_s"] for r in records) for _, records in rounds]
    return {
        "wall_s": _metric(_upper_quartile(walls), "s"),
        "cpu_s": _metric(_upper_quartile(cpus), "s"),
        "job_p50_s": _metric(_upper_quartile(job_medians), "s"),
        "setup_s": _metric(statistics.median(setup_times), "s"),
        "peak_rss_mib": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    }


_UNITS = {"calls": "count", "self_s": "s", "max_bits": "bits", "rows": "count", "cells": "count", "bytes": "bytes"}


def per_layer(rounds) -> dict:
    traced, plain = [], []
    for is_traced, records in rounds:
        wall = sum(r["wall_s"] for r in records)
        if not is_traced:
            plain.append(wall)
            continue
        totals = {}
        for r in records:
            tracing.merge(totals, r["stats"])
        traced.append((wall, totals))
    counts = [{k: v for k, v in totals.items() if not k.endswith(".self_s")} for _, totals in traced]
    if any(c != counts[0] for c in counts):
        print("perfbench: counts differ between traced rounds", file=sys.stderr)
    metrics = {}
    for name in tracing.METRICS:
        kind = name.rsplit(".", 1)[1]
        if kind == "self_s":
            value = statistics.median(totals.get(name, 0.0) for _, totals in traced)
        else:
            value = counts[0].get(name, 0)
        metrics[name] = _metric(value, _UNITS[kind])
    overhead = statistics.median(w for w, _ in traced) - statistics.median(plain)
    metrics["trace.overhead_s"] = _metric(overhead, "s")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "cqcalab" / "__init__.py").is_file():
        print(f"perfbench: no cqcalab sources under {SRC}", file=sys.stderr)
        return 2
    try:
        selftest.run()
    except selftest.SelfTestFailed as exc:
        print(f"perfbench: self-test failed: {exc}", file=sys.stderr)
        return 1
    sys.path.insert(0, str(SRC))
    lists = workloads.WORKLOADS[args.workload]
    rng = random.Random(args.seed)
    # Searches need a seed-dependent number of draws, so the inputs are drawn once, untimed.
    mods = import_cqcalab()
    drawn = [draw(mods, rng) for draw, _ in lists]
    setup_times = [time_set_up(lists, drawn)]
    mods, jobs = set_up(lists, drawn)
    checkers = [job.make_check() for job in jobs]
    # The high-water mark of set-up and the reference, kept in the per-job records to
    # show that peak_rss_mib comes from the rounds, which is the program's own memory.
    rss_before_rounds = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    tracer = tracing.Tracer(vars(mods)) if args.trace else None
    before_job = None if args.trace else lambda: setup_times.append(time_set_up(lists, drawn))
    rounds = []
    deadline = time.perf_counter() + args.seconds
    while True:
        traced = tracer is not None and len(rounds) % 2 == 1
        started = time.perf_counter()
        if traced:
            tracer.install()
        try:
            rounds.append((traced, run_round(jobs, checkers, tracer if traced else None, before_job)))
        finally:
            if traced:
                tracer.uninstall()
        # Start another round only if one more like the last still ends in time.
        now = time.perf_counter()
        if len(rounds) >= (2 if tracer else 1) and now + (now - started) > deadline:
            break

    OUT.mkdir(exist_ok=True)
    suffix = "-trace" if args.trace else ""
    with open(OUT / f"{args.workload}-seed{args.seed}{suffix}.json", "w", encoding="utf-8") as handle:
        json.dump({"workload": args.workload, "seed": args.seed, "setup_s": setup_times,
                   "rss_before_rounds_mib": rss_before_rounds,
                   "rounds": [{"traced": t, "jobs": records} for t, records in rounds]}, handle, indent=1)

    records = [r for _, rs in rounds for r in rs]
    failed = sum(1 for r in records if r["error"] is not None)
    result = {
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": per_layer(rounds) if args.trace else end_to_end(rounds, setup_times),
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
