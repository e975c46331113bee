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
from fractions import Fraction

from . import qls_model
from .lie_data import InputError, RootDatum, Vector, Weight
from .qls_model import CrystalGraph


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


def _dominates(high: tuple[Fraction, ...], low: tuple[Fraction, ...]) -> bool:
    """Whether high - low, both in root coordinates, is a sum of simple roots."""
    return all((d := h - l).denominator == 1 and d >= 0 for h, l in zip(high, low))


def check_perfect(datum: RootDatum, node: int, level: int) -> PerfectnessReport:
    """Build the column crystal at the node and test perfectness at the level."""
    if level < 1:
        raise InputError(f"level {level} must be positive")
    lam = datum.fundamental_weight(node)
    graph = qls_model.build_crystal(datum, lam)

    square_connected = qls_model.tensor(graph, graph).is_connected()

    weight_counts = Counter(w.coords for w in graph.weight_of)
    # the root coordinates of each distinct weight, solved for once
    roots = {w: datum.weight_in_root_coords(Weight(w)) for w in weight_counts}
    tops = [
        w for w in weight_counts if all(_dominates(roots[w], roots[other]) for other in weight_counts)
    ]
    top_weight = tops[0] if len(tops) == 1 else None
    top_unique = top_weight is not None and weight_counts[top_weight] == 1

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
