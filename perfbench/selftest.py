"""Self-test of the benchmark's checks.

    python3 perfbench/selftest.py

Run from the root of a checkout.  It shows that the checks pass on correct
output and fail on wrong output, and pins the default ``verify`` output:

* every workload at its smallest size passes every check;
* the same items, checked against a deliberately corrupted expected value,
  all count as failed;
* an item whose output differs between rounds counts as failed;
* ``rcbrackets verify --suite all --output json`` at the default scope and
  seed 42 prints bytes with the recorded sha256 (this step takes about a
  minute).

Exits 0 when all of this holds, 1 otherwise.
"""

from __future__ import annotations

import hashlib
import subprocess
import sys

import run

SEED = 7
DEFAULT_VERIFY_SHA256 = "888e45ddee00cbb672234d1f9b9447c93b9a38e0900e6358703e9ccdffa84d70"


def _errors(workload: str, *flags: str) -> list[str | None]:
    _, result = run.spawn(workload, SEED, "--scale", "small", *flags)
    return [item["error"] for item in result["items"]]


def main() -> int:
    problems = []
    for workload in run.WORKLOADS:
        errors = _errors(workload)
        if any(errors):
            problems.append(f"{workload}: correct output failed a check: {errors}")
        corrupted = _errors(workload, "--corrupt")
        if not all(corrupted):
            problems.append(f"{workload}: a corrupted expected value passed: {corrupted}")
        print(f"{workload}: {len(errors)} items pass; corrupted, {sum(map(bool, corrupted))} fail")

    item = {"group": "g", "error": None, "digest": "a"}
    changed = dict(item, digest="b")
    if run.tally([{"items": [item]}, {"items": [changed]}]) != (2, 1):
        problems.append("an output that changed between rounds was not counted as failed")

    proc = subprocess.run(
        [sys.executable, "-m", "rcbrackets", "verify", "--suite", "all", "--output", "json"],
        capture_output=True,
        env=run.worker_env(),
        cwd=run.ROOT,
        timeout=600,
    )
    digest = hashlib.sha256(proc.stdout).hexdigest()
    print(f"verify at the default scope: exit {proc.returncode}, sha256 {digest}")
    if proc.returncode != 0 or digest != DEFAULT_VERIFY_SHA256:
        problems.append(f"default verify output changed: sha256 {digest}")

    for problem in problems:
        print(f"FAIL {problem}", file=sys.stderr)
    print("self-test passed" if not problems else f"self-test failed: {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
