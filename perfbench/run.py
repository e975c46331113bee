"""End-to-end benchmark of the `qalcove` command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from `src/`.  The
load is a closed loop: one client runs one command at a time, single
threaded, with the default `--jobs 1`.  A pass runs every case of the
workload once, in a seed-drawn order, in a fresh interpreter (one_pass.py),
so the package's module-level caches start empty as for a command-line user.
Passes repeat until the next one would end after S seconds (at least one
runs).  Each case's time is scaled to a reference host speed, measured by a
fixed kernel run around it (see end_to_end), and is the mean of the middle
half of its passes; set-up time is scaled the same way, and set-up and memory
are medians over passes.

With --trace 0 the last line reports the end-to-end metrics.  With --trace 1
each iteration runs an untraced pass and then a traced replay (replay.py),
and the last line reports the per-layer metrics; the spans are written to
.perfbench/spans-<workload>-<seed>.json.  Every output is checked against
recorded digests and independent references (workloads.py); a case that
fails any check counts in `failed`.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import workloads

HERE = Path(__file__).resolve().parent

# A round value near the probe kernel's time on a 2-core x86-64 VM with
# CPython 3.11 (8-14 ms as the host's speed drifts); reported times are
# scaled to a host on which the probe takes this long.
REFERENCE_PROBE_S = 0.010
PASS_TIMEOUT = 170  # seconds; a run must end within 180
# Package modules whose line counts are per-layer metrics: a fixed list keeps
# the metric names fixed when modules come and go (src.loc counts them all).
MODULES = (
    "__init__",
    "alcove_model",
    "characters",
    "cli",
    "correspondence",
    "lie_data",
    "perfectness",
    "qls_model",
    "quantum_bruhat",
)

END_TO_END_UNITS = {
    "wall_s": "s",
    "largest_case_s": "s",
    "elements_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
}


class PassFailed(RuntimeError):
    pass


def run_pass(workload: str, seed: int, traced: bool, deadline: float) -> dict:
    argv = [sys.executable, str(HERE / "one_pass.py"), "--workload", workload, "--seed", str(seed)]
    if traced:
        argv.append("--traced")
    timeout = max(1.0, deadline - perf_counter())
    try:
        done = subprocess.run(argv, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:  # run() kills the child and waits for it
        raise PassFailed(f"a pass of {workload} ran past {timeout:.0f} s")
    if done.returncode != 0 or not done.stdout.strip():
        raise PassFailed(f"pass exited with {done.returncode}:\n{done.stderr.strip()}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def module_loc(root: Path) -> dict[str, int]:
    """Non-blank, non-comment source lines of each package module."""
    out = {}
    for path in sorted((root / "src" / "qalcove").glob("*.py")):
        lines = (line.strip() for line in path.read_text().splitlines())
        out[path.stem] = sum(1 for line in lines if line and not line.startswith("#"))
    return out


def at_reference_speed(seconds: float, probe_s: float) -> float:
    """Seconds scaled to a host on which the probe kernel takes REFERENCE_PROBE_S."""
    return seconds * REFERENCE_PROBE_S / probe_s


def interquartile_mean(values: list[float]) -> float:
    """Mean of the middle half: steadier than the median over a few passes."""
    values = sorted(values)
    cut = len(values) // 4
    return statistics.mean(values[cut : len(values) - cut])


def case_seconds(passes: list[dict]) -> dict[str, float]:
    """Each case's interquartile mean time over the passes, at reference host speed."""
    samples: dict[str, list[float]] = {}
    for p in passes:
        for c in p["cases"]:
            samples.setdefault(" ".join(c["argv"]), []).append(at_reference_speed(c["seconds"], c["probe_s"]))
    return {key: interquartile_mean(values) for key, values in samples.items()}


def end_to_end(passes: list[dict]) -> dict[str, float]:
    """Times at reference host speed, over passes.

    On a shared virtual machine the CPU's speed drifts by up to 1.6x for
    minutes at a time, and a case's fastest pass drifts with it.  Each case is
    therefore timed together with a fixed kernel run just before and just
    after it (one_pass.probe_host), and its time is scaled by how much slower
    than REFERENCE_PROBE_S that kernel ran.  A change to the package moves
    the scaled time as it moves the wall time; a change in host speed moves
    case and kernel alike and cancels.
    """
    seconds = case_seconds(passes)
    wall = sum(seconds.values())
    elements = {" ".join(c["argv"]): c["elements"] for c in passes[0]["cases"]}
    return {
        "wall_s": wall,
        "largest_case_s": max(seconds.values()),
        "elements_per_s": sum(elements.values()) / wall,
        "setup_s": statistics.median(at_reference_speed(p["setup_s"], p["setup_probe_s"]) for p in passes),
        "peak_rss_mib": statistics.median(p["peak_rss_mib"] for p in passes),
    }


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(".op_us"):
        return "us"
    if name.endswith((".coverage", ".op_yield")):
        return "1"
    return "count"


def layer_metrics(untraced: list[dict], traced: list[dict], loc: dict[str, int]) -> dict[str, float]:
    names = [name for name in traced[0]["layers"] if all(p["layers"][name] is not None for p in traced)]
    for name in traced[0]["layers"]:
        if name not in names:  # reported as missing, never as zero
            print(f"warning: no hook measures {name}; it is left out", file=sys.stderr)
    # layer times are scaled by the pass's mean host probe, as case times are
    probes = [statistics.mean(c["probe_s"] for c in p["cases"]) for p in traced]
    layers = {
        name: statistics.median(
            at_reference_speed(p["layers"][name], probe) if name.endswith("_s") else p["layers"][name]
            for p, probe in zip(traced, probes)
        )
        for name in names
    }
    calls = layers["qls_model.op_calls"]
    layers["qls_model.op_us"] = 1e6 * layers["qls_model.crystal_s"] / calls if calls else 0.0
    layers["qls_model.op_yield"] = layers["qls_model.arrows"] / calls if calls else 0.0
    layers["trace.wall_s"] = statistics.median(
        sum(at_reference_speed(c["seconds"], c["probe_s"]) for c in p["cases"]) for p in traced
    )
    covered = statistics.median(at_reference_speed(p["call_seconds"], probe) for p, probe in zip(traced, probes))
    layers["trace.coverage"] = covered / end_to_end(untraced)["wall_s"]
    for module in MODULES:
        layers[f"{module.strip('_')}.loc"] = loc.get(module, 0)
    layers["src.loc"] = sum(loc.values())
    return layers


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = Path.cwd()
    if not (root / "src" / "qalcove" / "cli.py").is_file():
        print("error: run from the root of a qalcove checkout (src/qalcove is missing)", file=sys.stderr)
        return 2

    start = perf_counter()
    deadline = start + PASS_TIMEOUT
    untraced: list[dict] = []
    traced: list[dict] = []
    try:
        while True:
            began = perf_counter()
            untraced.append(run_pass(args.workload, args.seed, False, deadline))
            if args.trace:
                traced.append(run_pass(args.workload, args.seed, True, deadline))
            now = perf_counter()
            if now - start + (now - began) > args.seconds:
                break
    except PassFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    passes = untraced + traced
    attempted = sum(len(p["cases"]) for p in passes)
    failed = 0
    for p in passes:
        for c in p["cases"]:
            if c["problems"]:
                failed += 1
                print(f"FAILED {' '.join(c['argv'])}: {'; '.join(c['problems'])}")
    loc = module_loc(root)
    totals = ", ".join(f"{sum(c['seconds'] for c in p['cases']):.3f}" for p in untraced)
    print(f"workload {args.workload}, seed {args.seed}: {len(untraced)} untraced and "
          f"{len(traced)} traced passes of {len(untraced[0]['cases'])} cases; pass times {totals} s")
    e2e = end_to_end(untraced)
    for name, unit in END_TO_END_UNITS.items():
        print(f"  {name} {e2e[name]:.6g} {unit}")
    print(f"  failed_ratio {failed / attempted:.6g} 1 ({failed} of {attempted} cases)")
    print("  loc " + ", ".join(f"{m}={n}" for m, n in loc.items()) + f", total={sum(loc.values())}")

    if args.trace:
        metrics = layer_metrics(untraced, traced, loc)
        out = root / ".perfbench" / f"spans-{args.workload}-{args.seed}.json"
        out.parent.mkdir(exist_ok=True)
        out.write_text(json.dumps([p["spans"] for p in traced]))
        for name, value in metrics.items():
            print(f"  {name} {value:.6g} {layer_unit(name)}")
        units = {name: layer_unit(name) for name in metrics}
    else:
        metrics, units = e2e, END_TO_END_UNITS
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
