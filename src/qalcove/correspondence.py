"""Bijection between admissible subsets and quantum LS paths.

The forgetful map reads the relative heights of an admissible subset's
positions, groups them into break values (integers over L, as the paths
hold them), and emits a path whose directions are the orbit points
w_k(lambda) of the prefix products w_k of the subset's reflections, and its
dual with the points -w_k(lambda); both hold their points as orbit-graph
indices, and the negation is the graph's table.
On top of the map sit machine checks of the operator intertwining (which
compares the index arrays of the alcove crystal and the QLS crystal, and
counts that the map is a bijection), the energy identity, and the crystal
isomorphism with a tensor product of fundamental-weight crystals.
The tests invert the map by tilted Bruhat minima in QB(W) instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import alcove_model, qls_model
from .alcove_model import AdmissibleSubset, LambdaChain, lex_chain, require_lex
from .crystal import CrystalGraph, tensor
from .lie_data import InputError, InternalError, RootDatum, Weight, WeylElement
from .qls_model import QLSPath, grid_path
from .quantum_bruhat import OrbitGraph, orbit_graph


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
    graph = orbit_graph(datum, lam)
    L = graph.L

    # the relative heights times L; each label's pairing divides L
    heights = [
        chain.entries[p - 1].level * (L // chain.pairings[chain.entries[p - 1].root])
        for p in A.positions
    ]
    if any(a > b for a, b in zip(heights, heights[1:])):
        raise InternalError("relative heights must be weakly increasing on a lex chain")
    breaks = sorted({0} | set(heights))
    # w_k is the prefix product after the last position at relative height b_k
    elements = tuple(A.path[sum(1 for t in heights if t <= b)] for b in breaks)

    # pi has shape -w0(lam) and points -w_k(lam); pi_star reverses w_k(lam),
    # whose coordinate <alpha_i^vee, w(lam)> = <w^-1(alpha_i^vee), lam> is
    # the chain's pairing at the root w^-1(alpha_i), negated if it is negative
    pairings, simple, found = chain.pairings, datum.simple_root_index, []
    for w in elements:
        perm = w.inverse.perm
        coords = tuple(pairings[g - 1] if g > 0 else -pairings[-g - 1] for g in (perm[k] for k in simple))
        found.append(graph.coords_index[coords])
    points = tuple(found)
    pi_breaks = tuple(breaks) + (L,)
    star_breaks = (0,) + tuple(L - b for b in reversed(breaks[1:])) + (L,)
    negated = graph.negated
    try:
        pi = grid_path(graph.dual, tuple(negated[n] for n in points), pi_breaks, L)
        pi_star = grid_path(graph, points[::-1], star_breaks, L)
    except InputError as exc:
        raise InternalError(f"forgetful image failed validation: {exc}") from exc
    if (pi_star.graph, pi_star.points, pi_star.cuts) != qls_model.dual_indices(pi):
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
    crystal: CrystalGraph | None = None,
) -> dict:
    """Check that lowering on subsets matches raising on their path images.

    A lowering arrow exists at a label exactly when the path image pi can be
    raised more often than the label-zero threshold; the images then agree.
    pi has shape -w0(lambda); its dual pi_star, of shape lambda, has
    phi_p(pi_star) = eps_p(pi) and f_p(pi_star) = dual(e_p(pi)), so both
    are read off the crystal of lambda (built here when crystal is None).
    The threshold says phi_p(A) = max(phi_p(pi_star) - delta_{p,0}, 0): the
    alcove f_0 is undefined at the last arrow of each 0-string of QLS paths.
    records is the forgetful table of the chain (built here when None); the
    alcove crystal is built on its subsets, and both crystals are compared
    as index arrays through sigma(a), the crystal index of a's pi_star.
    Each pi_star must be a crystal vertex; the map is then a bijection iff
    they are distinct and as many as the vertices, else a "bijection"
    violation is added, which counts as no check.
    """
    if records is None:
        records = forgetful_table(chain if chain is not None else lex_chain(datum, lam))
    if crystal is None:
        crystal = qls_model.build_crystal(datum, lam)
    sigma = []
    for positions, rec in records.items():
        i = crystal.index.get(rec.pi_star)
        if i is None:
            raise InternalError(f"path image of {positions} is not a vertex of the crystal")
        sigma.append(i)
    alcove = alcove_model.build_crystal(tuple(rec.subset for rec in records.values()))
    violations: list[dict] = []
    for a, positions in enumerate(records):
        i = sigma[a]
        for p in alcove.labels:
            lowered = alcove.f[p][a]
            if (lowered >= 0) != (crystal.phi[p][i] > (1 if p == 0 else 0)):
                violations.append({"positions": list(positions), "label": p, "kind": "definedness"})
            elif lowered >= 0 and crystal.f[p][i] != sigma[lowered]:
                violations.append({"positions": list(positions), "label": p, "kind": "image"})
    images = len(set(sigma))
    if images != len(records) or images != len(crystal.vertices):
        violations.append({"kind": "bijection", "images": images, "vertices": len(crystal.vertices)})
    return {
        "lambda": list(lam.coords),
        "counts": {"subsets": len(records), "checks": len(records) * len(alcove.labels)},
        "violations": violations,
    }


def graph_distances(graph: OrbitGraph, records: dict) -> dict[tuple[int, int], int]:
    """`graph.path_weight(prev, nxt, 1)` for each pair (prev, nxt) of
    consecutive points of a record's reversed pi_star, by one unkept search
    per prev, so only the weights the records read are kept."""
    wanted: dict[int, set[int]] = {}
    for rec in records.values():
        sigmas = rec.pi_star.points[::-1]
        for prev, nxt in zip(sigmas, sigmas[1:]):
            wanted.setdefault(prev, set()).add(nxt)
    weights = {}
    for prev, targets in wanted.items():
        reached = graph.search(prev, 1)
        for nxt in targets:
            if nxt not in reached:
                raise InternalError(f"vertex {nxt} is not reachable from vertex {prev} at denominator 1")
            weights[prev, nxt] = reached[nxt]
    return weights


def verify_energy(
    datum: RootDatum, lam: Weight, chain: LambdaChain | None = None, records: dict | None = None
) -> dict:
    """Check the four independent routes to the energy of each subset.

    height(A) must equal the break-weighted sum of graph distances along the
    path image, minus the degree of that image, and minus the degree of the
    reversed dual image S(pi_star), which must be omega(pi).  records is the
    forgetful table of the chain (built here when None).  The graph
    distances are read off the unrestricted graph and `qls_model.deg` off
    the searches restricted at each break, so only deg rests on the
    shortest-path lemma.
    """
    if records is None:
        records = forgetful_table(chain if chain is not None else lex_chain(datum, lam))
    distances = graph_distances(orbit_graph(datum, lam), records)
    violations: list[dict] = []
    for rec in records.values():
        A = rec.subset
        sigmas, L = rec.pi_star.points[::-1], rec.pi.L
        total = sum((L - c) * distances[pair] for pair, c in zip(zip(sigmas, sigmas[1:]), rec.pi.cuts[1:]))
        try:
            reversed_dual = qls_model.lusztig_S(rec.pi_star)
        except InputError as exc:
            raise InternalError(f"Lusztig involution image failed validation: {exc}") from exc
        values = {
            "height": A.height,
            # printed as the fraction it is when L does not divide it
            "graph_sum": Fraction(total, L) if total % L else total // L,
            "deg_pi": -qls_model.deg(rec.pi),
            "deg_reversed_dual": -qls_model.deg(reversed_dual),
        }
        if (reversed_dual.graph, reversed_dual.points, reversed_dual.cuts) != qls_model.omega_indices(rec.pi):
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
    datum: RootDatum, lam: Weight, source: CrystalGraph | None = None
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
    target = tensor(*factors)

    # mapping[v] is the target index of source vertex v, -1 until reached
    mapping = [-1] * len(source.vertices)
    mapping[source.distinguished] = target.distinguished
    queue = [source.distinguished]
    while queue:
        v = queue.pop()
        for arrows, image_arrows in ((source.e, target.e), (source.f, target.f)):
            for j in source.labels:
                w, image = arrows[j][v], image_arrows[j][mapping[v]]
                if (w < 0) != (image < 0):
                    raise IsomorphismMismatch(f"arrow mismatch at label {j}")
                if w < 0:
                    continue
                if mapping[w] >= 0:
                    if mapping[w] != image:
                        raise IsomorphismMismatch(f"propagation conflict at label {j}")
                else:
                    mapping[w] = image
                    queue.append(w)
    if -1 in mapping:
        raise IsomorphismMismatch("isomorphism is not total")
    if len(set(mapping)) != len(target.vertices):
        raise IsomorphismMismatch("isomorphism is not onto")
    # lambda and its fundamental factors pack alike, so the keys compare as
    # they are; a source of another packing is repacked
    keys, image_keys = source.keys_in(target.packing), target.keys
    if any(keys[v] != image_keys[image] for v, image in enumerate(mapping)):
        raise IsomorphismMismatch("isomorphism moved a weight")
    return {v: target.vertices[image] for v, image in zip(source.vertices, mapping)}
