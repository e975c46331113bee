"""Perfectness analysis of single-column path crystals.

A crystal is perfect at level l when its tensor square is connected, it has a
unique top classical weight, every vertex has epsilon-level at least l, and
epsilon and phi hit each level-l dominant affine weight exactly once.  The
report records each condition with witnesses and compares the verdict with the
mark/comark prediction for single columns.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from . import qls_model
from .crystal import CrystalGraph, tensor
from .lie_data import InputError, RootDatum, Vector


def level_weights(datum: RootDatum, level: int) -> tuple[Vector, ...]:
    """Dominant affine weights of the given level, as coefficient tuples."""
    if level < 0:
        raise InputError(f"level {level} must be nonnegative")
    comarks = datum.comarks
    out: list[Vector] = []

    def rec(j: int, remaining: int, acc: list[int]) -> None:
        if j == len(comarks):
            if remaining == 0:
                out.append(tuple(acc))
            return
        for c in range(remaining // comarks[j] + 1):
            acc.append(c)
            rec(j + 1, remaining - c * comarks[j], acc)
            acc.pop()

    rec(0, level, [])
    return tuple(sorted(out, reverse=True))


def minimal_elements(crystal: CrystalGraph, level: int) -> set:
    """Vertices whose epsilon-vector has exactly the given level."""
    datum = crystal.datum
    if tuple(crystal.labels) != tuple(range(datum.rank + 1)):
        raise InputError("crystal is missing affine arrows; build it with all labels")
    return {
        v
        for v, eps in zip(crystal.vertices, zip(*crystal.eps))
        if datum.level_of_affine_weight(eps) == level
    }


@dataclass(frozen=True)
class PerfectnessReport:
    node: int
    level: int
    square_connected: bool
    top_weight: Vector | None
    top_unique: bool
    min_eps_level: int
    level_bound_ok: bool
    bijection_failures: tuple[dict, ...]
    minimal_table: tuple[dict, ...]
    is_perfect: bool
    predicted_perfect: bool
    prediction_matches: bool

    def summary(self) -> str:
        verdict = "perfect" if self.is_perfect else "not perfect"
        return f"node {self.node}: {verdict}, level {self.level}"

    def to_json_dict(self) -> dict:
        return {
            "node": self.node,
            "level": self.level,
            "conditions": {
                "square_connected": self.square_connected,
                "unique_top_weight": self.top_unique,
                "eps_level_bound": self.level_bound_ok,
                "eps_phi_bijections": not self.bijection_failures,
            },
            "top_weight": list(self.top_weight) if self.top_weight is not None else None,
            "min_eps_level": self.min_eps_level,
            "bijection_failures": list(self.bijection_failures),
            "minimal_elements": list(self.minimal_table),
            "is_perfect": self.is_perfect,
            "predicted_perfect": self.predicted_perfect,
            "prediction_matches": self.prediction_matches,
        }


def _dominates(high: tuple[int, ...], low: tuple[int, ...], scale: int) -> bool:
    """Whether high - low, both root coordinates times scale, is a sum of
    simple roots."""
    return all((d := h - l) >= 0 and d % scale == 0 for h, l in zip(high, low))


def check_perfect(datum: RootDatum, node: int, level: int) -> PerfectnessReport:
    """Build the column crystal at the node and test perfectness at the level."""
    if level < 1:
        raise InputError(f"level {level} must be positive")
    lam = datum.fundamental_weight(node)
    graph = qls_model.build_crystal(datum, lam)

    square_connected = tensor(graph, graph).is_connected()

    key_counts = Counter(graph.keys)
    # the root coordinates of each distinct weight, solved for once, as
    # integers times the denominator of the inverse Cartan matrix
    scale = datum.cartan_inverse[1]
    roots = {k: datum.weight_in_root_coords(graph.packing.unpack(k)) for k in key_counts}
    # a weight above every other one exceeds each by a nonzero sum of simple
    # roots, so it alone has the greatest height: one candidate decides
    top = max(roots, key=lambda k: sum(roots[k]))
    above_all = all(_dominates(roots[top], r, scale) for r in roots.values())
    top_weight = graph.packing.unpack(top).coords if above_all else None
    top_unique = top_weight is not None and key_counts[top] == 1

    # the eps and phi vectors of vertex i, one entry per label
    eps_vectors, phi_vectors = list(zip(*graph.eps)), list(zip(*graph.phi))
    min_eps_level = min(datum.level_of_affine_weight(e) for e in eps_vectors)
    level_bound_ok = min_eps_level >= level

    eps_counts = Counter(eps_vectors)
    phi_counts = Counter(phi_vectors)
    failures = []
    for target in level_weights(datum, level):
        n_eps, n_phi = eps_counts.get(target, 0), phi_counts.get(target, 0)
        if n_eps != 1 or n_phi != 1:
            failures.append({"weight": list(target), "eps_count": n_eps, "phi_count": n_phi})

    minimal = minimal_elements(graph, level)
    rows = sorted((str(v), graph.index[v]) for v in minimal)
    table = tuple({"path": v, "eps": list(eps_vectors[i]), "phi": list(phi_vectors[i])} for v, i in rows)

    is_perfect = square_connected and top_unique and level_bound_ok and not failures
    predicted = datum.c_r(node) == 1 and level == 1
    return PerfectnessReport(
        node=node,
        level=level,
        square_connected=square_connected,
        top_weight=top_weight,
        top_unique=top_unique,
        min_eps_level=min_eps_level,
        level_bound_ok=level_bound_ok,
        bijection_failures=tuple(failures),
        minimal_table=table,
        is_perfect=is_perfect,
        predicted_perfect=predicted,
        prediction_matches=is_perfect == predicted,
    )
