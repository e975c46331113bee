"""Record the sha256 of every case's stdout into digests.json.

    python3 perfbench/record_digests.py

Run from the root of a checkout of the commit whose outputs are the
reference.  Later runs of the benchmark fail any case whose stdout differs,
so a change that alters one coefficient shows as a failure.  Recording
refuses outputs on which the two character routes disagree.
"""

from __future__ import annotations

import json

import workloads
from one_pass import run_cli


def main() -> int:
    digests: dict[str, str] = {}
    for cases in workloads.WORKLOADS.values():
        for case in cases:
            code, stdout = run_cli(case)
            if code != 0:
                raise SystemExit(f"{case.key}: exit code {code}")
            digests[case.key] = workloads.sha256(stdout)
            if case.route == "qls":
                twin = workloads.Case("character", case.type, case.rank, case.weight, "alcove")
                swapped = workloads.sha256(workloads.swap_route(stdout, "qls", "alcove"))
                if digests.get(twin.key, swapped) != swapped:
                    raise SystemExit(f"{case.key}: the two routes disagree")
            print(case.key, digests[case.key])
    workloads.DIGESTS.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
