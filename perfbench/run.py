"""Benchmark entry point for rcbrackets.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from its ``src``.
The load is a closed loop of one caller: a round is one fresh interpreter
(``worker.py``) that runs the workload's items one after another, so the
package's unbounded caches start empty as they do for every CLI command.
Rounds run one after another, never in parallel.

With ``--trace 0`` the run repeats rounds for about ``--seconds`` (at least
two) and reports medians over them: ``run_s`` (the item loop of a round),
``setup_s`` (interpreter start, import and input generation, sampled at
least five times) and ``peak_rss_mb`` (the worker's ``ru_maxrss``).  Both
times are rescaled to a fixed interpreter speed by a probe that runs during
the timed work (``speed.py``), because the share of a shared core that a
process gets drifts by tens of percent; the median raw wall time of the loop
goes to standard error.  With ``--trace 1`` it runs one untraced and one
traced round and reports the per-layer metrics of the traced one, plus
``trace.overhead_ratio``; the per-layer-pair table goes to standard error.

Every output is checked after its round's timed loop, and each item must
give the same bytes in every round of a run.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  If the package cannot be run, the script exits 1 without it.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import unit
from speed import rescale

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOADS = ("verify", "u-table", "rewrite", "dense")
MIN_ROUNDS = 2
SETUP_SAMPLES = 5
ROUND_TIMEOUT_S = 120

UNITS = {"run_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


class BenchError(RuntimeError):
    """The program could not be run; no result is printed."""


def worker_env() -> dict[str, str]:
    if not (SRC / "rcbrackets" / "__init__.py").is_file():
        raise BenchError(f"no package source under {SRC}")
    env = dict(os.environ)
    env.update(
        PYTHONPATH=str(SRC),
        RCBRACKETS_SRC=str(SRC / "rcbrackets"),
        PYTHONHASHSEED="0",
    )
    return env


def spawn(workload: str, seed: int, *flags: str) -> tuple[float, dict]:
    """Run one worker; return its rescaled set-up seconds and its result record."""
    argv = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed)]
    argv += flags
    env = worker_env()
    start = time.perf_counter()
    deadline = start + ROUND_TIMEOUT_S
    # unbuffered, so that reading the ready line leaves the rest in the pipe
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, bufsize=0, env=env, cwd=ROOT)
    try:
        readable, _, _ = select.select([proc.stdout], [], [], ROUND_TIMEOUT_S)
        ready = proc.stdout.readline().decode() if readable else ""
        setup_s = time.perf_counter() - start
        rest, _ = proc.communicate(timeout=max(deadline - time.perf_counter(), 0.1))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} worker ran longer than {ROUND_TIMEOUT_S} s") from None
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if ready.strip() != "ready" or proc.returncode != 0:
        raise BenchError(f"{workload} worker failed with exit code {proc.returncode}")
    result = json.loads(rest.decode().strip().splitlines()[-1])
    return rescale(setup_s, result["setup_probes"]), result


def tally(rounds: list[dict]) -> tuple[int, int]:
    """(attempted, failed) over all items of all rounds.

    An item fails when it raised, when its check failed, or when its output
    differs from the same item's output in the first round.
    """
    attempted = failed = 0
    first = [item["digest"] for item in rounds[0]["items"]]
    for number, result in enumerate(rounds):
        for index, item in enumerate(result["items"]):
            attempted += 1
            reason = item["error"]
            if reason is None and item["digest"] != first[index]:
                reason = "output differs from the first round"
            if reason is not None:
                failed += 1
                print(f"round {number} item {index} ({item['group']}): {reason}", file=sys.stderr)
    return attempted, failed


def measure(workload: str, seed: int, seconds: int) -> tuple[list[dict], dict]:
    rounds, setups = [], []
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        setup_s, result = spawn(workload, seed)
        rounds.append(result)
        setups.append(setup_s)
        now = time.perf_counter()
        # stop when one more round like the last would end after --seconds
        if len(rounds) >= MIN_ROUNDS and now - start + (now - round_start) > seconds:
            break
    while len(setups) < SETUP_SAMPLES:
        setups.append(spawn(workload, seed, "--setup-only")[0])
    values = {
        "run_s": statistics.median(r["run_s"] for r in rounds),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(r["maxrss_kb"] for r in rounds) / 1024,
    }
    return rounds, {name: {"value": v, "unit": UNITS[name]} for name, v in values.items()}


def measure_traced(workload: str, seed: int) -> tuple[list[dict], dict]:
    _, plain = spawn(workload, seed)
    _, traced = spawn(workload, seed, "--trace")
    values = dict(traced["metrics"])
    values["trace.overhead_ratio"] = traced["work_s"] / plain["work_s"]
    cost = ", ".join(f"{name} {seconds * 1e6:.3f} us" for name, seconds in traced["cost"].items())
    print(f"{workload}: tracing cost per call: {cost}", file=sys.stderr)
    print(f"{workload}: per layer pair, by self time, tracing cost included", file=sys.stderr)
    for row in traced["layers"]:
        print(
            f"  {row['caller']:>10} -> {row['callee']:<10} {row['calls']:>9} calls"
            f" {row['total_s']:9.3f} s total {row['self_s']:9.3f} s self",
            file=sys.stderr,
        )
    metrics = {name: {"value": v, "unit": unit(name)} for name, v in values.items()}
    return [plain, traced], metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # on SIGTERM, unwind so that the running worker is killed and reaped
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(1))
    try:
        if args.trace:
            rounds, metrics = measure_traced(args.workload, args.seed)
        else:
            rounds, metrics = measure(args.workload, args.seed, args.seconds)
    except BenchError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    attempted, failed = tally(rounds)
    if not args.trace:
        walls = statistics.median(r["wall_s"] for r in rounds)
        print(f"{len(rounds)} rounds; median wall time of the item loop {walls:.3f} s", file=sys.stderr)
    print(
        json.dumps(
            {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
