"""Bijection between admissible subsets and quantum LS paths.

The forgetful map reads the relative heights of an admissible subset's
positions, groups them into break values (integers over L, as the paths
hold them), and emits a path whose directions are the orbit points
w_k(lambda) of the prefix products w_k of the subset's reflections, and its
dual with the points -w_k(lambda).
On top of the map sit machine checks of the operator intertwining (which
also counts that the map is a bijection), the energy identity, and the
crystal isomorphism with a tensor product of fundamental-weight crystals.
The tests invert the map by tilted Bruhat minima in QB(W) instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import alcove_model, qls_model
from .alcove_model import AdmissibleSubset, LambdaChain, lex_chain, require_lex
from .lie_data import InputError, InternalError, RootDatum, Weight, WeylElement
from .qls_model import QLSPath, grid_path
from .quantum_bruhat import orbit_graph


class IsomorphismMismatch(InternalError):
    """Arrow propagation found that the crystal is not the tensor product."""


@dataclass(frozen=True)
class CorrespondenceRecord:
    """An admissible subset with both of its path images and the grouping data.

    breaks holds 0 = b_0 < b_1 < ... < b_p times L, the paths' break
    denominator, and elements the Weyl group elements w_0, ..., w_p read off
    at the group boundaries.
    """

    subset: AdmissibleSubset
    pi: QLSPath
    pi_star: QLSPath
    breaks: tuple[int, ...]
    elements: tuple[WeylElement, ...]


def forgetful(A: AdmissibleSubset) -> CorrespondenceRecord:
    """Both path images of an admissible subset over a lex chain."""
    chain = A.chain
    require_lex(chain)
    datum, lam = chain.datum, chain.lam
    L = orbit_graph(datum, lam).L

    # the relative heights times L; each label's pairing divides L
    heights = [
        chain.entries[p - 1].level * (L // datum.pairing_index(chain.entries[p - 1].root, lam))
        for p in A.positions
    ]
    if any(a > b for a, b in zip(heights, heights[1:])):
        raise InternalError("relative heights must be weakly increasing on a lex chain")
    breaks = sorted({0} | set(heights))
    # w_k is the prefix product after the last position at relative height b_k
    elements = tuple(A.path[sum(1 for t in heights if t <= b)] for b in breaks)

    # pi has shape -w0(lam) and points -w_k(lam); pi_star reverses w_k(lam)
    points = tuple(w.act_weight(lam) for w in elements)
    pi_breaks = tuple(breaks) + (L,)
    star_breaks = (0,) + tuple(L - b for b in reversed(breaks[1:])) + (L,)
    try:
        pi = grid_path(datum, qls_model.minus_w0(datum, lam), tuple(-mu for mu in points), pi_breaks, L)
        pi_star = grid_path(datum, lam, points[::-1], star_breaks, L)
    except InputError as exc:
        raise InternalError(f"forgetful image failed validation: {exc}") from exc
    if pi_star != qls_model.dual(pi):
        raise InternalError("the two path images are not dual to each other")
    if pi_star.weight != A.weight:
        raise InternalError("forgetful map changed the weight")
    return CorrespondenceRecord(A, pi, pi_star, tuple(breaks), elements)


# ----------------------------------------------------------- machine checks


def forgetful_table(chain: LambdaChain) -> dict[tuple[int, ...], CorrespondenceRecord]:
    """The forgetful image of every admissible subset of a lex chain, keyed
    by its positions; the intertwining and energy checks both read it."""
    require_lex(chain)
    return {A.positions: forgetful(A) for A in alcove_model.enumerate_admissible(chain)}


def verify_intertwining(
    datum: RootDatum,
    lam: Weight,
    chain: LambdaChain | None = None,
    records: dict | None = None,
    crystal: qls_model.CrystalGraph | None = None,
) -> dict:
    """Check that lowering on subsets matches raising on their path images.

    A lowering arrow exists at a label exactly when the path image pi can be
    raised more often than the label-zero threshold; the images then agree.
    pi has shape -w0(lambda); its dual pi_star, of shape lambda, has
    phi_p(pi_star) = eps_p(pi) and f_p(pi_star) = dual(e_p(pi)), so both
    are read off the crystal of lambda (built here when crystal is None).
    records is the forgetful table of the chain (built here when None).
    Each pi_star must be a crystal vertex; the map is then a bijection iff
    they are distinct and as many as the vertices, else a "bijection"
    violation is added, which counts as no check.
    """
    if records is None:
        records = forgetful_table(chain if chain is not None else lex_chain(datum, lam))
    if crystal is None:
        crystal = qls_model.build_crystal(datum, lam)
    violations: list[dict] = []
    checks = 0
    for rec in records.values():
        A, star = rec.subset, rec.pi_star
        if star not in crystal.weights:
            raise InternalError(f"path image of {A.positions} is not a vertex of the crystal")
        for p in range(datum.rank + 1):
            checks += 1
            lowered = alcove_model.f_operator(A, p)
            threshold = 1 if p == 0 else 0
            if (lowered is not None) != (crystal.phi(star, p) > threshold):
                violations.append(
                    {"positions": list(A.positions), "label": p, "kind": "definedness"}
                )
                continue
            if lowered is not None and lowered.positions not in records:
                raise InternalError(f"f_{p} of {A.positions} is not an enumerated subset")
            if lowered is not None and crystal.f_arrows[(star, p)] != records[lowered.positions].pi_star:
                violations.append(
                    {"positions": list(A.positions), "label": p, "kind": "image"}
                )
    images = len({rec.pi_star for rec in records.values()})
    if images != len(records) or images != len(crystal.vertices):
        violations.append({"kind": "bijection", "images": images, "vertices": len(crystal.vertices)})
    return {
        "lambda": list(lam.coords),
        "counts": {"subsets": len(records), "checks": checks},
        "violations": violations,
    }


def verify_energy(
    datum: RootDatum, lam: Weight, chain: LambdaChain | None = None, records: dict | None = None
) -> dict:
    """Check the four independent routes to the energy of each subset.

    height(A) must equal the break-weighted sum of graph distances along the
    path image, minus the degree of that image, and minus the degree of the
    reversed dual image.  records is the forgetful table of the chain (built
    here when None).
    """
    if records is None:
        records = forgetful_table(chain if chain is not None else lex_chain(datum, lam))
    graph = orbit_graph(datum, lam)
    violations: list[dict] = []
    for rec in records.values():
        A = rec.subset
        sigmas, L = rec.pi_star.directions[::-1], rec.pi.L
        total = sum(
            (L - c) * graph.path_weight(prev, nxt)
            for prev, nxt, c in zip(sigmas, sigmas[1:], rec.pi.cuts[1:])
        )
        reversed_dual = qls_model.lusztig_S(rec.pi_star)
        values = {
            "height": A.height,
            # printed as the fraction it is when L does not divide it
            "graph_sum": Fraction(total, L) if total % L else total // L,
            "deg_pi": -qls_model.deg(rec.pi),
            "deg_reversed_dual": -qls_model.deg(reversed_dual),
        }
        if reversed_dual != qls_model.omega(rec.pi):
            violations.append({"positions": list(A.positions), "kind": "reversal"})
        if len(set(values.values())) != 1:
            violations.append(
                {"positions": list(A.positions), "kind": "energy", "values": {k: str(v) for k, v in values.items()}}
            )
    return {
        "lambda": list(lam.coords),
        "counts": {"subsets": len(records), "checks": len(records)},
        "violations": violations,
    }


def build_isomorphism_to_tensor(
    datum: RootDatum, lam: Weight, source: qls_model.CrystalGraph | None = None
) -> dict:
    """Vertex bijection from the crystal of lam (source, built here when None)
    onto the tensor product of one fundamental-weight crystal per unit of lam,
    anchored at the straight dominant paths and propagated along arrows."""
    if not datum.is_dominant(lam):
        raise InputError(f"weight {lam.coords} is not dominant")
    if not any(lam.coords):
        raise InputError("the zero weight has no fundamental factors")
    if source is None:
        source = qls_model.build_crystal(datum, lam)
    if sum(lam.coords) == 1:
        return {v: v for v in source.vertices}
    factors = []
    for i, c in enumerate(lam.coords, start=1):
        if c:
            factor = qls_model.build_crystal(datum, datum.fundamental_weight(i))
            factors.extend([factor] * c)
    target = qls_model.tensor(*factors)

    mapping = {source.distinguished: target.distinguished}
    queue = [source.distinguished]
    while queue:
        v = queue.pop()
        for table, image_table in (
            (source.e_arrows, target.e_arrows),
            (source.f_arrows, target.f_arrows),
        ):
            for j in source.labels:
                w = table.get((v, j))
                image = image_table.get((mapping[v], j))
                if (w is None) != (image is None):
                    raise IsomorphismMismatch(f"arrow mismatch at label {j}")
                if w is None:
                    continue
                if w in mapping:
                    if mapping[w] != image:
                        raise IsomorphismMismatch(f"propagation conflict at label {j}")
                else:
                    mapping[w] = image
                    queue.append(w)
    if len(mapping) != len(source.vertices):
        raise IsomorphismMismatch("isomorphism is not total")
    if len(set(mapping.values())) != len(target.vertices):
        raise IsomorphismMismatch("isomorphism is not onto")
    for v, image in mapping.items():
        if source.weights[v] != target.weights[image]:
            raise IsomorphismMismatch("isomorphism moved a weight")
    return mapping
