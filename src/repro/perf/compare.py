"""The regression gate: perfbench on the base and head commits, paired.

``python -m repro.perf.compare BASE_CHECKOUT``, run from the root of the
head checkout, reads the head's ``BENCHMARK.json`` and runs its
``command`` for every workload it lists, ``--trace 0``, in both
checkouts: ``PAIRS`` pairs with seed ``SEED`` and ``SECONDS`` of measured
rounds, alternating which side runs first.  The population market has no
perfbench workload, so ``MARKET_ARGS`` (``python -m repro market``) is
timed in each checkout the same way, as a workload whose only metric is
its wall time (the fastest of ``MARKET_REPEATS``) under the ``round_ms``
bound.

The gate fails when a run exits non-zero, prints no result, reports
``correct: false`` or ``failed > 0``; when a workload or metric is
missing on one side; or when a metric is worse than its ``bound``: the
median over pairs of the head's change relative to the base run, a
fraction of the base value, exceeds the bound in the metric's worse
direction.  A metric that is 0 at base and larger at head is worse
under any bound.  Exit status 0 means the gate passed, 1 that it failed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import NamedTuple, Optional, Sequence

#: alternating base/head pairs per workload.
PAIRS = 6
#: perfbench's ``--seed`` on every run.
SEED = 0
#: perfbench's ``--seconds`` on every run.
SECONDS = 5.0
#: the market run timed in each checkout, how often per timed run, and
#: the metric its wall time gates.
MARKET = "market"
MARKET_ARGS = ("-m", "repro", "market", "--users", "100000", "--jobs", "20000")
MARKET_REPEATS = 3
MARKET_METRIC = "round_ms"


class Run(NamedTuple):
    """One run on one side: its exit status and its parsed result line."""

    exit: int
    result: Optional[dict]


def run_problem(run: Run) -> Optional[str]:
    """Why a run cannot be counted, or None when it is sound."""
    if run.exit != 0:
        return f"exit status {run.exit}"
    if run.result is None:
        return "no result line"
    if run.result.get("correct") is not True:
        return "correct: false"
    if run.result.get("failed", 0) > 0:
        return f"failed: {run.result['failed']}"
    return None


def change(base: float, head: float) -> float:
    """``head`` relative to ``base``; any rise from 0 is infinite."""
    if base:
        return (head - base) / base
    return 0.0 if head == base else math.copysign(math.inf, head)


def compare(
    base: dict[str, list[Run]],
    head: dict[str, list[Run]],
    end_to_end: Sequence[dict],
) -> tuple[list[str], list[str]]:
    """Report lines and failures of the paired runs, per workload.

    ``base`` and ``head`` map each workload to its runs on that side, run
    ``i`` of one side paired with run ``i`` of the other; ``end_to_end``
    is ``BENCHMARK.json``'s list of metrics, each with a ``name``,
    ``better`` (``lower`` or ``higher``) and ``bound``.  A metric's
    verdict is the median over pairs of its change relative to the base
    run, so a shared machine's drift between pairs cancels.  A metric
    that no run of either side reports is skipped.
    """
    lines: list[str] = []
    failures: list[str] = []
    for workload in sorted(set(base) | set(head)):
        sides = {"base": base.get(workload), "head": head.get(workload)}
        problems = [f"{workload}: {side} missing"
                    for side, runs in sides.items() if not runs]
        problems += [f"{workload}: {side} run {i + 1}: {problem}"
                     for side, runs in sides.items()
                     for i, run in enumerate(runs or ())
                     if (problem := run_problem(run))]
        if not problems and len(sides["base"]) != len(sides["head"]):
            problems.append(f"{workload}: {len(sides['base'])} base runs, "
                            f"{len(sides['head'])} head runs")
        if problems:
            failures.extend(problems)
            continue
        for metric in end_to_end:
            name = metric["name"]
            values = {
                side: [run.result["metrics"][name]["value"]
                       for run in runs if name in run.result["metrics"]]
                for side, runs in sides.items()
            }
            if not values["base"] and not values["head"]:
                continue
            missing = [side for side, got in values.items()
                       if len(got) != len(sides[side])]
            if missing:
                failures.append(f"{workload} {name}: missing on {', '.join(missing)}")
                continue
            delta = statistics.median(
                change(b, h) for b, h in zip(values["base"], values["head"]))
            bound = metric["bound"]
            worse = delta > bound if metric["better"] == "lower" else delta < -bound
            lines.append(
                f"{workload:<14} {name:<12} base {statistics.median(values['base']):10.3f}"
                f"  head {statistics.median(values['head']):10.3f}  paired {delta:+8.1%}"
                f"  bound {bound:.0%} {metric['better']}"
                f"  {'WORSE' if worse else 'ok'}"
            )
            if worse:
                failures.append(f"{workload} {name}: {delta:+.1%} paired median")
    return lines, failures


def run_once(checkout: Path, argv: Sequence[str]) -> Run:
    """Run ``argv`` in ``checkout`` with its own ``src/`` on the path."""
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    proc = subprocess.run(list(argv), cwd=checkout, env=env,
                          stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except ValueError:
        result = None
    return Run(proc.returncode, result if isinstance(result, dict) else None)


def run_market(checkout: Path) -> Run:
    """Time the market run in ``checkout``: the fastest of ``MARKET_REPEATS``.

    Like perfbench's fastest repetition per input set, the minimum drops
    the one-sided slowdowns of a shared machine, which can make a single
    sub-second run half as slow again.
    """
    walls = []
    for _ in range(MARKET_REPEATS):
        t0 = time.perf_counter()
        run = run_once(checkout, (sys.executable, *MARKET_ARGS))
        if run.exit != 0:
            return Run(run.exit, None)
        walls.append((time.perf_counter() - t0) * 1e3)
    return Run(0, {"correct": True, "failed": 0,
                   "metrics": {MARKET_METRIC: {"value": min(walls), "unit": "ms"}}})


def run_pairs(sides: dict[str, Path], spec: dict) -> dict[str, dict[str, list[Run]]]:
    """Every workload's runs on each side, pair by pair."""
    runs: dict[str, dict[str, list[Run]]] = {side: {} for side in sides}
    for workload in [w["name"] for w in spec["workloads"]] + [MARKET]:
        argv = [*spec["command"], "--workload", workload, "--seed", str(SEED),
                "--seconds", str(SECONDS), "--trace", "0"]
        for pair in range(PAIRS):
            order = list(sides) if pair % 2 == 0 else list(reversed(sides))
            for side in order:
                run = (run_market(sides[side]) if workload == MARKET
                       else run_once(sides[side], argv))
                runs[side].setdefault(workload, []).append(run)
                metrics = (run.result or {}).get("metrics", {})
                shown = " ".join(f"{k}={v['value']:.3f}" for k, v in metrics.items())
                print(f"{workload} pair {pair + 1}/{PAIRS} {side}: "
                      f"{run_problem(run) or shown}", flush=True)
    return runs


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.perf.compare",
        description="Run perfbench paired on a base checkout and this one "
        "(the current directory); exit 1 if any metric is worse than its "
        "BENCHMARK.json bound or any run fails.",
    )
    parser.add_argument("base", help="path of a checkout of the base commit")
    args = parser.parse_args(argv)
    head = Path.cwd()
    base = Path(args.base).resolve()
    if not (head / "BENCHMARK.json").is_file():
        parser.error(f"no BENCHMARK.json in {head}; run from the head checkout's root")
    if not base.is_dir():
        parser.error(f"no such base checkout: {args.base}")
    spec = json.loads((head / "BENCHMARK.json").read_text())
    t0 = time.perf_counter()
    runs = run_pairs({"base": base, "head": head}, spec)
    lines, failures = compare(runs["base"], runs["head"], spec["end_to_end"])
    print("\n".join(lines))
    print(f"gate wall time: {time.perf_counter() - t0:.0f} s")
    if failures:
        print("FAIL: " + "; ".join(failures), file=sys.stderr)
        return 1
    print("ok: every run sound, every metric within its bound")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
