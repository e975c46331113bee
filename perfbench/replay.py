"""Outside-in traced replay of the `qalcove` command handlers.

Each case is replayed as the explicit sequence of public calls its command
handler makes, with one span per call under the case's span and counts read
from the return values.  The replay prints what the handler prints, so its
stdout must hash to the same digest as the untraced command; otherwise the
spans would describe a different program.
"""

from __future__ import annotations

import json
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

from qalcove import correspondence, qls_model
from qalcove.alcove_model import enumerate_admissible, lex_chain
from qalcove.characters import (
    GradedCharacter,
    decompose,
    format_decomposition,
    weyl_character,
)
from qalcove.lie_data import InternalError, build_root_datum
from qalcove.perfectness import check_perfect

from workloads import Case

# Per-layer metrics, named after the modules; each is a sum over the pass.
LAYER_METRICS = (
    "lie_data.weyl_build_s",
    "lie_data.weyl_elements",
    "quantum_bruhat.qbg_build_s",
    "quantum_bruhat.qbg_vertices",
    "quantum_bruhat.qbg_edges",
    "alcove_model.chain_s",
    "alcove_model.chain_len",
    "alcove_model.enumerate_s",
    "alcove_model.subsets",
    "alcove_model.weight_height_s",
    "qls_model.crystal_s",
    "qls_model.vertices",
    "qls_model.arrows",
    "qls_model.op_calls",
    "qls_model.deg_s",
    "correspondence.intertwining_s",
    "correspondence.energy_s",
    "correspondence.tensor_iso_s",
    "correspondence.checks",
    "correspondence.violations",
    "characters.oracle_s",
    "characters.decompose_s",
    "characters.verify_s",
    "characters.terms",
    "perfectness.check_s",
    "perfectness.nodes",
    "cli.emit_s",
)


class Tracer:
    """Spans kept in memory: (name, parent index or None, start, end)."""

    def __init__(self):
        self.spans: list[tuple[str, int | None, float, float]] = []
        self.totals: Counter = Counter()
        self.missing: set[str] = set()  # metrics the replay could not measure
        self._parent: int | None = None

    @contextmanager
    def span(self, name: str):
        start = perf_counter()
        outer = self._parent
        index = len(self.spans)
        self.spans.append((name, outer, start, start))
        self._parent = index
        try:
            yield
        finally:
            end = perf_counter()
            self._parent = outer
            self.spans[index] = (name, outer, start, end)
            if outer is not None:
                self.totals[name] += end - start

    def call(self, name: str, fn, *args, **kwargs):
        with self.span(name):
            return fn(*args, **kwargs)

    def count(self, name: str, n: int) -> None:
        self.totals[name] += n


def _dumps(blob) -> str:
    return json.dumps(blob, indent=2) + "\n"


QBG_METRICS = ("quantum_bruhat.qbg_build_s", "quantum_bruhat.qbg_vertices", "quantum_bruhat.qbg_edges")


def _parabolic_graph(tr: Tracer, datum, J) -> None:
    """Build the parabolic graph the crystal operators will use, in its own span.

    The package builds it lazily inside its first operator call, through the
    module-level `qls_model._parabolic_cache`.  Where that hook is gone the
    build time falls into the caller's span, so the graph metrics are marked
    missing rather than read as zero.
    """
    cache = getattr(qls_model, "_parabolic_cache", None)
    build = getattr(qls_model, "_parabolic_graph", None)
    if cache is None or build is None:
        tr.missing.update(QBG_METRICS)
        return
    if (datum, J) in cache:
        return
    graph = tr.call("quantum_bruhat.qbg_build_s", build, datum, J)
    tr.count("quantum_bruhat.qbg_vertices", len(graph.vertices))
    tr.count("quantum_bruhat.qbg_edges", graph.edge_count())


def _crystal(tr: Tracer, datum, lam):
    _parabolic_graph(tr, datum, datum.stabilizer(lam))
    graph = tr.call("qls_model.crystal_s", qls_model.build_crystal, datum, lam)
    tr.count("qls_model.vertices", len(graph.vertices))
    tr.count("qls_model.arrows", len(graph.e_arrows) + len(graph.f_arrows))
    # the closure tries e_j and f_j for every affine label at every vertex
    tr.count("qls_model.op_calls", 2 * len(graph.labels) * len(graph.vertices))
    return graph


def _chain(tr: Tracer, datum, lam, node_order=None):
    chain = tr.call("alcove_model.chain_s", lex_chain, datum, lam, node_order=node_order)
    tr.count("alcove_model.chain_len", len(chain))
    return chain


def _alcove_character(tr: Tracer, chain) -> GradedCharacter:
    """character_from_alcove, split into enumeration and folding."""
    subsets = tr.call("alcove_model.enumerate_s", enumerate_admissible, chain)
    tr.count("alcove_model.subsets", len(subsets))
    with tr.span("alcove_model.weight_height_s"):
        terms = Counter((A.weight.coords, A.height) for A in subsets)
        return GradedCharacter(chain.datum.rank, terms)


def _qls_character(tr: Tracer, datum, lam) -> GradedCharacter:
    """character_from_qls, split into closure and degrees."""
    graph = _crystal(tr, datum, lam)
    with tr.span("qls_model.deg_s"):
        terms = Counter((eta.weight.coords, -qls_model.deg(eta)) for eta in graph.vertices)
        return GradedCharacter(datum.rank, terms)


def _character(tr: Tracer, case: Case, datum, lam) -> tuple[int, str]:
    if case.route == "alcove":
        ch = _alcove_character(tr, _chain(tr, datum, lam, case.node_order))
    else:
        _chain(tr, datum, lam)  # the size guard measures the lex chain
        ch = _qls_character(tr, datum, lam)
    tr.count("characters.terms", len(ch.terms))
    parts = tr.call("characters.decompose_s", decompose, datum, ch)
    with tr.span("cli.emit_s"):
        text = _dumps(
            {"route": case.route, "terms": ch.to_json_list(), "decomposition": format_decomposition(parts)}
        )
    return 0, text


def _verify_px(tr: Tracer, case: Case, datum, lam) -> tuple[int, str]:
    """The body of verify_p_equals_x, call by call."""
    chain = _chain(tr, datum, lam)
    from_alcove = _alcove_character(tr, chain)
    from_paths = _qls_character(tr, datum, lam)
    tr.count("characters.terms", len(from_paths.terms))
    with tr.span("characters.verify_s"):
        mismatches: list[dict] = []
        for w, q in sorted(set(from_alcove.terms) | set(from_paths.terms)):
            a, b = from_alcove.terms.get((w, q), 0), from_paths.terms.get((w, q), 0)
            if a != b:
                mismatches.append({"weight": list(w), "q": q, "alcove": a, "qls": b})
        models_agree = not mismatches
    oracle = tr.call("characters.oracle_s", weyl_character, datum, lam)
    with tr.span("characters.verify_s"):
        classical = from_paths.q_layer(0)
        classical_ok = classical == oracle
        if not classical_ok:
            for w, q in sorted(set(classical.terms) | set(oracle.terms)):
                a, b = classical.terms.get((w, q), 0), oracle.terms.get((w, q), 0)
                if a != b:
                    mismatches.append({"weight": list(w), "q": 0, "classical": a, "oracle": b})
        symmetric = from_paths.is_symmetric(datum)
    product = GradedCharacter.one(datum.rank)
    for i, c in enumerate(lam.coords, start=1):
        if c:
            factor = _qls_character(tr, datum, datum.fundamental_weight(i))
            with tr.span("characters.verify_s"):
                factor = factor.specialize_q_one()
                for _ in range(c):
                    product = product * factor
    with tr.span("characters.verify_s"):
        factorization_ok = from_paths.specialize_q_one() == product
    if not factorization_ok:
        mismatches.append({"kind": "tensor_factorization"})
    ok = models_agree and classical_ok and symmetric and factorization_ok
    parts = tr.call("characters.decompose_s", decompose, datum, from_paths) if ok else None
    with tr.span("cli.emit_s"):
        decomposition = format_decomposition(parts) if ok else None
        report = {
            "lambda": list(lam.coords),
            "checks": {
                "models_agree": models_agree,
                "classical_layer": classical_ok,
                "symmetric": symmetric,
                "tensor_factorization": factorization_ok,
            },
            "pass": ok,
            "mismatches": mismatches,
            "character": from_paths.to_json_list(),
            "decomposition": decomposition,
        }
        text = (f"X = {decomposition}\n" if ok else "") + _dumps(report)
    return (0 if ok else 1), text


def _verify_crystal(tr: Tracer, case: Case, datum, lam) -> tuple[int, str]:
    chain = _chain(tr, datum, lam)
    graph = _crystal(tr, datum, lam)
    intertwining = tr.call(
        "correspondence.intertwining_s", correspondence.verify_intertwining, datum, lam, chain=chain
    )
    energy = tr.call("correspondence.energy_s", correspondence.verify_energy, datum, lam, chain=chain)
    tensor_ok, tensor_error = True, None
    if sum(lam.coords) > 1:
        try:
            tr.call("correspondence.tensor_iso_s", correspondence.build_isomorphism_to_tensor, datum, lam)
        except InternalError as exc:
            tensor_ok, tensor_error = False, str(exc)
    for report in (intertwining, energy):
        tr.count("correspondence.checks", report["counts"]["checks"])
        tr.count("correspondence.violations", len(report["violations"]))
    connected = tr.call("qls_model.is_connected_s", graph.is_connected)
    clean = connected and not intertwining["violations"] and not energy["violations"] and tensor_ok
    with tr.span("cli.emit_s"):
        text = _dumps(
            {
                "lambda": list(lam.coords),
                "vertices": len(graph.vertices),
                "connected": connected,
                "intertwining": intertwining,
                "energy": energy,
                "tensor_isomorphism": {"ok": tensor_ok, "error": tensor_error},
                "pass": clean,
            }
        )
    return (0 if clean else 1), text


def _perfect(tr: Tracer, case: Case, datum) -> tuple[int, str]:
    nodes = range(1, datum.rank + 1)
    reports = [tr.call("perfectness.check_s", check_perfect, datum, n, 1) for n in nodes]
    tr.count("perfectness.nodes", len(reports))
    with tr.span("cli.emit_s"):
        text = "".join(r.summary() + "\n" for r in reports)
        text += _dumps([r.to_json_dict() for r in reports])
    return (0 if all(r.prediction_matches for r in reports) else 1), text


def replay(tr: Tracer, case: Case) -> tuple[int, str]:
    """Exit code and stdout of the case, computed call by call under one span."""
    with tr.span(case.key):
        datum = tr.call("lie_data.build_root_datum_s", build_root_datum, case.type, case.rank)
        weyl = tr.call("lie_data.weyl_build_s", lambda: datum.weyl)
        tr.count("lie_data.weyl_elements", len(weyl.elements))
        if case.command == "perfect":
            return _perfect(tr, case, datum)
        lam = datum.weight_from_coeffs(list(case.weight))
        handler = {"character": _character, "verify-px": _verify_px, "verify-crystal": _verify_crystal}
        return handler[case.command](tr, case, datum, lam)
