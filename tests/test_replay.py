"""The benchmark replay's contract with the package, on one small case.

`perfbench/replay.py` re-runs each command call by call; it must print what
the command prints, and it reads the hook `qls_model._parabolic_graph` (and
its cache `_parabolic_cache`) for the `quantum_bruhat.qbg_*` metrics.  The
replay is imported from its own directory, unedited, so a drift of the hook
fails here in seconds.
"""

import importlib
from pathlib import Path

from qalcove import qls_model
from qalcove.lie_data import build_root_datum
from qbg_reference import build_qbg

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_replay_matches_the_cli_and_counts_qbg_on_the_orbit(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    replay, workloads = importlib.import_module("replay"), importlib.import_module("workloads")
    monkeypatch.setattr(qls_model, "_parabolic_cache", {})
    case = next(c for c in workloads.WORKLOADS["qls-ladder"] if (c.type, c.rank, c.weight) == ("G", 2, (1, 1)))
    tracer = replay.Tracer()
    code, stdout = replay.replay(tracer, case)
    assert workloads.check(case, code, stdout, workloads.load_digests()) == []
    assert not tracer.missing
    assert tracer.totals["quantum_bruhat.qbg_build_s"] > 0
    datum = build_root_datum("G", 2)
    reference = build_qbg(datum, datum.stabilizer(datum.weight_from_coeffs(case.weight)))
    assert tracer.totals["quantum_bruhat.qbg_vertices"] == len(reference.vertices)
    assert tracer.totals["quantum_bruhat.qbg_edges"] == reference.edge_count()
