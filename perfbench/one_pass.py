"""One pass over a workload's cases, in a fresh interpreter.

    python3 perfbench/one_pass.py --workload NAME --seed N [--traced]

Run from the root of a checkout.  A fresh interpreter starts with the
package's module-level caches empty, exactly as for a command-line user.
The untraced pass runs each case through `qalcove.cli.main(argv)` with stdout
captured; the traced pass replays each case call by call (see replay.py).
Either way every output is checked.  The last line of stdout is one JSON
object describing the pass.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import resource
import statistics
import sys
import traceback
from contextlib import redirect_stdout
from fractions import Fraction
from functools import partial
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path.cwd() / "src"))

from qalcove import cli  # noqa: E402
from qalcove.lie_data import build_root_datum  # noqa: E402

import replay  # noqa: E402
import workloads  # noqa: E402

PROBE_STEPS = 2000  # about 10 ms on a 2-core x86-64 VM

# Set-up is repeated until this much time has passed (at least once), so a
# set-up of a few milliseconds is not one sample of a drifting host.
SETUP_SECONDS = 0.2


def probe_host() -> float:
    """Seconds the host takes for a fixed pure-Python kernel right now.

    The kernel shares no code with `qalcove`: Fraction arithmetic on a small
    dict keyed by tuples, the mix the package spends its time on.  The
    collector is off so that the heap the package leaves behind cannot add a
    collection to the kernel's time.
    """
    gc.disable()
    try:
        start = perf_counter()
        table: dict[tuple[int, int], Fraction] = {}
        x = Fraction(1, 3)
        for i in range(PROBE_STEPS):
            key = (i % 17, i % 5)
            table[key] = table.get(key, 0) + x * (i % 7)
            x = Fraction(x.numerator % 97 + 1, x.denominator % 89 + 2)
        return perf_counter() - start
    finally:
        gc.enable()


def measure_setup(groups: list[tuple[str, int]]) -> tuple[float, float]:
    """Median time to build each distinct root datum and its Weyl group.

    Returns the median set-up time and the host probe taken around the
    repetitions.
    """
    before = probe_host()
    samples: list[float] = []
    while not samples or sum(samples) < SETUP_SECONDS:
        start = perf_counter()
        for t, n in groups:
            build_root_datum(t, n).weyl
        samples.append(perf_counter() - start)
        gc.collect()  # Weyl elements point back at their group
    return statistics.median(samples), (before + probe_host()) / 2


def run_cli(case: workloads.Case) -> tuple[int, str]:
    out = io.StringIO()
    with redirect_stdout(out):
        try:
            code = cli.main(case.argv())
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
    return code, out.getvalue()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--traced", action="store_true")
    args = parser.parse_args()

    cases = workloads.cases_for(args.workload, args.seed)
    digests = workloads.load_digests()
    setup_s, setup_probe = measure_setup(workloads.distinct_groups(cases))

    tracer = replay.Tracer()
    execute = partial(replay.replay, tracer) if args.traced else run_cli
    results = []
    probes = [probe_host()]
    for case in cases:
        start = perf_counter()
        try:
            code, stdout = execute(case)
        except Exception:  # an internal failure is a failed case, not a crashed pass
            traceback.print_exc(file=sys.stderr)
            code, stdout = -1, ""
        seconds = perf_counter() - start
        probes.append(probe_host())
        results.append((case, seconds, workloads.check(case, code, stdout, digests)))

    blob = {
        "setup_s": setup_s,
        "setup_probe_s": setup_probe,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "cases": [
            {
                "key": case.key,
                "argv": case.argv(),
                "seconds": seconds,
                # the host probes taken just before and just after the case
                "probe_s": (probes[i] + probes[i + 1]) / 2,
                "elements": workloads.expected_elements(case),
                "problems": problems,
            }
            for i, (case, seconds, problems) in enumerate(results)
        ],
    }
    if args.traced:
        blob["layers"] = {
            name: None if name in tracer.missing else tracer.totals.get(name, 0) for name in replay.LAYER_METRICS
        }
        blob["call_seconds"] = sum(
            end - start
            for _, parent, start, end in tracer.spans
            if parent is not None and tracer.spans[parent][1] is None
        )
        blob["spans"] = tracer.spans
    print(json.dumps(blob))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
