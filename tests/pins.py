"""Run every command in tests/pins.txt and compare its stdout with the recorded digest.

    python3 tests/pins.py

Each line of the table is `<sha256> <argv>`: the sha256 of what
`python3 -W error -m qalcove.cli <argv>` prints on stdout, with the argv
split on whitespace and passed without a shell, so a warning on a pinned
path fails the pin.  Blank lines and lines starting with `#` are comments.
A pin passes when its command exits 0 within the timeout and its stdout has
the recorded digest.  Every failing pin is reported with both digests, and
the script exits 1 if any failed.  Each pin's wall time is printed as it
finishes, and the five slowest are listed at the end.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
TABLE = ROOT / "tests" / "pins.txt"
TIMEOUT_S = 300


def read_pins(text: str) -> list[tuple[str, list[str]]]:
    """The (digest, argv) pairs of a table, in order."""
    pins = []
    for line in text.splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            digest, *argv = line.split()
            pins.append((digest, argv))
    return pins


def check(pins: list[tuple[str, list[str]]], report=None) -> list[str]:
    """Run each pin and return one message per pin that failed; report, if
    given, is called with each pin's wall seconds and command as it ends."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    failures = []
    for digest, argv in pins:
        command = " ".join(argv)
        start = perf_counter()
        try:
            run = subprocess.run([sys.executable, "-W", "error", "-m", "qalcove.cli", *argv], env=env,
                                 stdout=subprocess.PIPE, timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            failures.append(f"{command}: no exit within {TIMEOUT_S} s")
            continue
        finally:
            if report:
                report(perf_counter() - start, command)
        got = hashlib.sha256(run.stdout).hexdigest()
        if run.returncode != 0 or got != digest:
            failures.append(f"{command}: exit {run.returncode}, recorded {digest}, got {got}")
    return failures


def main() -> int:
    pins = read_pins(TABLE.read_text())
    timings = []

    def report(seconds: float, command: str) -> None:
        timings.append((seconds, command))
        print(f"{seconds:8.2f} s  {command}", flush=True)

    failures = check(pins, report)
    for message in failures:
        print(message)
    print("slowest:")
    for seconds, command in sorted(timings, reverse=True)[:5]:
        print(f"{seconds:8.2f} s  {command}")
    print(f"{len(pins) - len(failures)} of {len(pins)} pins match")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
