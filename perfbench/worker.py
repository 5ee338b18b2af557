"""One round of a workload in a fresh interpreter.

Started by ``run.py`` with the checkout's ``src`` on ``PYTHONPATH``.  Set-up
is the interpreter start, ``import rcbrackets`` and input generation; the
worker prints ``ready`` when it ends, so the parent can time it.  Then it
runs the items in sequence, timing the loop, checks every output after the
loop, and prints one JSON line: the loop's wall time and its time rescaled
to the reference speed (see ``speed.py``), the set-up probe times, the peak
RSS, one record per item and, with ``--trace``, the per-layer metrics.  A
traced round runs no speed probe, so its times are wall times.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

from speed import SpeedProbe, rescale

SETUP_PROBE_INTERVAL_S = 0.01
LOOP_PROBE_INTERVAL_S = 0.02


def main() -> int:
    probe = SpeedProbe()
    probe.start(SETUP_PROBE_INTERVAL_S)
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", choices=("full", "small"), default="full")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--corrupt", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    import rcbrackets

    # an installed copy must not stand in for the checkout's source
    expected = os.path.realpath(os.environ["RCBRACKETS_SRC"])
    if not os.path.realpath(rcbrackets.__file__).startswith(expected + os.sep):
        print(f"error: imported {rcbrackets.__file__}, not the checkout", file=sys.stderr)
        return 1

    import workloads

    items = workloads.make_items(args.workload, args.seed, args.scale)
    setup_probes = probe.stop()
    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
        tracer.calibrate()
        tracer.install()
    print("ready", flush=True)
    if args.setup_only:
        print(json.dumps({"setup_probes": setup_probes}), flush=True)
        return 0

    if tracer is None:
        probe.start(LOOP_PROBE_INTERVAL_S)
    outputs, errors, seconds = [], [], []
    start = time.perf_counter()
    for item in items:
        item_start = time.perf_counter()
        try:
            outputs.append(item.run())
            errors.append(None)
        except Exception as err:  # an item that raises counts as failed; the round goes on
            outputs.append(None)
            errors.append(f"{type(err).__name__}: {err}")
        seconds.append(time.perf_counter() - item_start)
    wall_s = time.perf_counter() - start
    loop_probes = probe.stop()
    maxrss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    result = {
        "wall_s": wall_s,
        "work_s": wall_s - sum(loop_probes),
        "run_s": rescale(wall_s, loop_probes),
        "setup_probes": setup_probes,
        "maxrss_kb": maxrss_kb,
        "items": [],
    }
    group_seconds: dict[str, float] = {}
    output_bytes = 0
    for item, output, item_s in zip(items, outputs, seconds):
        group_seconds[item.group] = group_seconds.get(item.group, 0.0) + item_s
        if output is not None:
            output_bytes += item.output_bytes(output)
    if tracer is not None:
        result["metrics"] = tracer.metrics(output_bytes, group_seconds)
        result["layers"] = tracer.layer_table()
        result["cost"] = tracer.cost

    for item, output, error, item_s in zip(items, outputs, errors, seconds):
        if error is None:
            try:
                error = item.check(output, args.corrupt)
            except Exception as err:  # a malformed output fails its check
                error = f"check raised {type(err).__name__}: {err}"
        digest = workloads.digest(output) if output is not None else None
        result["items"].append(
            {"group": item.group, "seconds": item_s, "error": error, "digest": digest}
        )
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
