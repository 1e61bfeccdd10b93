#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics as one JSON line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload batch-flow --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation;
``--trace 1`` alternates untraced rounds with rounds in which every
layer's public function is wrapped (see ``spans.py``), prints the
per-layer table and reports the per-layer metrics plus the tracing
overhead.  ``--selfcheck N [--sets K]`` runs every workload (or the
ones named by ``--workload``) N times with seeds 1..N, K times over,
and prints each end-to-end metric's spread against its bound in
``BENCHMARK.json`` and how far each set's median moved from the first.

The last line of standard output is always the result object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from time import perf_counter
from typing import Any, Dict, List, Optional

from spans import COUNT_NAMES, LAYERS, OPERATION, Recorder
from workloads import WORKLOADS, normalised

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
#: everything a run writes: spools, traces, layer tables
OUT = os.path.join(ROOT, ".perfbench_out")
#: fresh interpreters started per run to time set-up (median reported)
SETUP_SAMPLES = 5
#: a run attempts at least this many whole rounds
MIN_ROUNDS = 3


def _spec() -> Dict[str, Any]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _parse(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", action="append")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--selfcheck",
        type=int,
        metavar="N",
        help="run each workload N times with seeds 1..N; print spreads",
    )
    parser.add_argument(
        "--sets",
        type=int,
        default=1,
        help="with --selfcheck: repeat the N runs this many times",
    )
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--warm-spool", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _probe(name: str, seed: int, prepared: Dict[str, str]) -> int:
    """Set-up sample: set the workload up, report ready, tear it down."""
    workload = WORKLOADS[name]()
    workload.setup(seed, OUT, **prepared)
    print("ready", flush=True)
    workload.teardown()
    return 0


def _setup_seconds(name: str, seed: int, prepared: Dict[str, str]) -> float:
    """Median time from starting a fresh interpreter to a ready workload."""
    command = [
        sys.executable,
        os.path.abspath(__file__),
        "--probe-setup",
        "--workload",
        name,
        "--seed",
        str(seed),
    ]
    if "warm_spool" in prepared:
        command += ["--warm-spool", prepared["warm_spool"]]
    samples = []
    for _ in range(SETUP_SAMPLES):
        started = perf_counter()
        probe = subprocess.Popen(
            command,
            cwd=ROOT,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        line = probe.stdout.readline()
        elapsed = perf_counter() - started
        _, errors = probe.communicate(timeout=120)
        if line.strip() != "ready" or probe.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{errors[-4000:]}")
        samples.append(elapsed)
    return statistics.median(samples)


def _metric(value: float, unit: str) -> Dict[str, Any]:
    return {"value": value, "unit": unit}


def _round_seconds(result) -> float:
    """A round's time: the sum of its normalised operation times."""
    return sum(normalised(result))


def _layer_metrics(recorder, traced, untraced) -> Dict[str, Dict[str, Any]]:
    """Per traced round: each layer's total/self seconds and calls."""
    rounds = len(traced)
    table = recorder.layer_table()
    metrics: Dict[str, Dict[str, Any]] = {}
    for layer in (OPERATION, *LAYERS):
        row = table.get(layer, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        metrics[f"{layer}_s"] = _metric(row["total_s"] / rounds, "s")
        metrics[f"{layer}_self_s"] = _metric(row["self_s"] / rounds, "s")
        if layer != OPERATION:
            count = COUNT_NAMES.get(layer, f"{layer}_calls")
            metrics[count] = _metric(row["calls"] / rounds, "count")
    metrics["states_explored"] = _metric(
        recorder.states_explored / rounds, "count"
    )
    for counter in ("throughput_checks", "exact_nodes", "exact_pruned", "exact_leaves"):
        metrics[counter] = _metric(
            sum(r.counters.get(counter, 0) for r in traced) / rounds, "count"
        )
    metrics["queue_wait_s"] = _metric(sum(recorder.queue_waits) / rounds, "s")
    plain = statistics.median(_round_seconds(r) for r in untraced)
    metrics["trace_overhead_pct"] = _metric(
        100.0
        * (statistics.median(_round_seconds(r) for r in traced) - plain)
        / plain,
        "%",
    )
    return metrics


def _print_table(name: str, recorder, rounds: int) -> None:
    table = recorder.layer_table()
    lines = [
        f"{name}: per traced round ({rounds} rounds)",
        f"{'layer':<16}{'calls':>10}{'total s':>12}{'self s':>12}",
    ]
    for layer in (OPERATION, *LAYERS):
        row = table.get(layer)
        if row:
            lines.append(
                f"{layer:<16}{row['calls'] / rounds:>10.1f}"
                f"{row['total_s'] / rounds:>12.4f}{row['self_s'] / rounds:>12.4f}"
            )
    text = "\n".join(lines)
    with open(os.path.join(OUT, f"{name}-layers.txt"), "w", encoding="utf-8") as fh:
        fh.write(text + "\n")
    print(text)


def run(name: str, seed: int, seconds: float, trace: bool) -> Dict[str, Any]:
    """One run of one workload; returns the result object.

    The first round's outputs are checked in full; each later round's
    outputs must equal the first round's, operation by operation.  A
    traced round of a workload with ``trace_checks`` is checked in full
    too, so that its trace shows the replay.
    """
    workload = WORKLOADS[name]()
    recorder = Recorder() if trace else None
    rounds = []  # (traced, RoundResult)
    problems: List[Any] = []
    attempted = failed = 0
    prepared = workload.prepare(seed, OUT)
    try:
        setup_s = None if trace else _setup_seconds(name, seed, prepared)
        workload.setup(seed, OUT, **prepared)
        started = perf_counter()
        while len(rounds) < MIN_ROUNDS or perf_counter() - started < seconds:
            index = len(rounds)
            traced = trace and index % 2 == 1
            if traced:
                recorder.install()
            try:
                result = workload.run_round(index, recorder if traced else None)
                found = (
                    workload.check(result.outputs)
                    if index == 0 or (traced and workload.trace_checks)
                    else []
                )
            finally:
                if traced:
                    recorder.uninstall()
            if index == 0:
                reference = result
                problems = found
                placed = workload.placed(result.outputs)
            if len(result.signatures) != len(reference.signatures):
                raise RuntimeError(f"round {index} ran a different operation list")
            bad = {position for position, _ in problems + found} | {
                position
                for position, (got, want) in enumerate(
                    zip(result.signatures, reference.signatures)
                )
                if got != want
            }
            bad.discard(None)
            attempted += len(result.op_times)
            failed += len(bad)
            # kept outputs would make the peak resident set grow with
            # the number of rounds, that is with the program's speed
            result.outputs = []
            rounds.append((traced, result))
    finally:
        workload.teardown()
        for path in prepared.values():
            shutil.rmtree(path, ignore_errors=True)
    for position, problem in problems:
        print(f"perfbench: {name}: operation {position}: {problem}", file=sys.stderr)

    untraced = [r for traced, r in rounds if not traced]
    if trace:
        traced_rounds = [r for traced, r in rounds if traced]
        _print_table(name, recorder, len(traced_rounds))
        recorder.chrome_trace(os.path.join(OUT, f"{name}-trace.json"))
        metrics = _layer_metrics(recorder, traced_rounds, untraced)
    else:
        # per operation, its median over the run's rounds
        typical = [
            statistics.median(samples)
            for samples in zip(*(normalised(r) for r in untraced))
        ]
        metrics = {
            "setup_s": _metric(setup_s, "s"),
            "peak_rss_mb": _metric(
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "MB",
            ),
            "round_s": _metric(sum(typical), "s"),
            "op_geomean_s": _metric(statistics.geometric_mean(typical), "s"),
            "apps_placed": _metric(placed, "count"),
        }
    return {
        # a fault no single operation owns makes the run incorrect
        "correct": all(position is not None for position, _ in problems),
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def _run_once(name: str, seed: int, seconds: float) -> Dict[str, Any]:
    """One ``--trace 0`` run in a fresh process; its result object."""
    completed = subprocess.run(
        [
            sys.executable,
            os.path.abspath(__file__),
            "--workload",
            name,
            "--seed",
            str(seed),
            "--seconds",
            str(seconds),
            "--trace",
            "0",
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    if completed.returncode != 0:
        raise RuntimeError(
            f"{name} seed {seed}: exit {completed.returncode}\n"
            f"{completed.stderr[-4000:]}"
        )
    return json.loads(completed.stdout.strip().splitlines()[-1])


def selfcheck(names: List[str], runs: int, sets: int, seconds: float) -> int:
    """Steadiness check: ``sets`` sets of ``runs`` runs per workload.

    Prints, per set and end-to-end metric, the median and the spread
    between the first and third quartile as a share of the median,
    against the metric's bound; from the second set on, also how much
    worse each median is than the first set's.  Returns 1 when a spread
    (``setup_s`` excepted) or a median shift exceeds its bound, or when
    the share of failed operations differs between runs.
    """
    steady = True
    for name in names:
        reference: Dict[str, float] = {}
        shares = set()
        for number in range(1, sets + 1):
            results = [_run_once(name, seed, seconds) for seed in range(1, runs + 1)]
            shares |= {r["failed"] / r["attempted"] for r in results}
            print(
                f"{name}, set {number}: {runs} runs, failed shares "
                f"{sorted(shares)}, correct {all(r['correct'] for r in results)}"
            )
            for metric in _spec()["end_to_end"]:
                key, bound = metric["name"], metric["bound"]
                values = [r["metrics"][key]["value"] for r in results]
                first, _, third = statistics.quantiles(values, n=4)
                median = statistics.median(values)
                spread = (third - first) / median
                if key != "setup_s" and spread > bound:
                    steady = False
                line = (
                    f"  {key:<14} median {median:<12.6g} spread {spread:7.2%}"
                    f"  bound {bound:.0%}"
                    f"  {'ok' if spread <= bound / 3 else 'over a third'}"
                )
                if key in reference:
                    worse = (median - reference[key]) / reference[key]
                    if metric["better"] == "higher":
                        worse = -worse
                    steady = steady and worse <= bound
                    line += f"  {worse:+.2%} worse than set 1"
                else:
                    reference[key] = median
                print(line, flush=True)
        steady = steady and len(shares) == 1
    return 0 if steady else 1


def main(argv: Optional[List[str]] = None) -> int:
    args = _parse(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(
            "perfbench: src/repro not found; run from the root of a "
            "checkout of the repository",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, SRC)
    os.makedirs(OUT, exist_ok=True)
    seconds = args.seconds if args.seconds is not None else _spec()["run_seconds"]
    if args.selfcheck:
        return selfcheck(
            args.workload or list(WORKLOADS), args.selfcheck, args.sets, seconds
        )
    if not args.workload or len(args.workload) != 1:
        print("perfbench: name exactly one --workload", file=sys.stderr)
        return 2
    name = args.workload[0]
    if args.probe_setup:
        prepared = {"warm_spool": args.warm_spool} if args.warm_spool else {}
        return _probe(name, args.seed, prepared)
    if name not in WORKLOADS:
        print(
            f"perfbench: unknown workload {name!r}; one of {sorted(WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    result = run(name, args.seed, seconds, bool(args.trace))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
