"""The inverse of the forgetful bijection, as a reference for the tests.

`inverse` rebuilds the admissible subset of a path of shape -w0(lambda) from
tilted Bruhat minima in the full quantum Bruhat graph QB(W), after
Lenart-Naito-Sagaki-Schilling-Shimozono (part I, arXiv:1211.2042): for each
direction it follows the unique label-increasing path into that direction's
coset, under a reflection ordering compatible with the lex chain, and reads
chain positions off the path's labels.  `verify-crystal` checks the bijection
by counting; the round trips through this inverse check it element by
element.
"""

from __future__ import annotations

from collections import deque
from fractions import Fraction

from qalcove import qls_model
from qalcove.alcove_model import AdmissibleSubset, LambdaChain, lex_chain, require_lex
from qalcove.lie_data import InputError, InternalError, RootDatum, Vector, WeylElement
from qalcove.qls_model import QLSPath
from qalcove.quantum_bruhat import QBGEdge, QuantumBruhatGraph, build_qbg, minus_w0
from qbg_reference import longest


def parabolic_longest(weyl, J: frozenset[int]) -> WeylElement:
    """Longest element of W_J, via w_0 = min_coset_rep(w_0, J) * w_J."""
    w0 = longest(weyl)
    return weyl.min_coset_rep(w0, J).inverse * w0


# --------------------------------------------------------------- reflection order


def reflection_ordering(
    datum: RootDatum, J: frozenset[int], chain
) -> tuple[int, ...]:
    """Total order on the positive roots: first the roots outside the parabolic
    subsystem, by first appearance of their level-zero hyperplane in the lex
    chain, then the parabolic roots in the inversion order of the smallest
    reduced word of the longest element of W_J."""
    bottom: list[int] = []
    seen = set()
    for entry in chain.entries:
        if entry.root not in seen:
            seen.add(entry.root)
            bottom.append(entry.root)
    if set(bottom) != set(datum.parabolic_roots(frozenset(range(1, datum.rank + 1))) - datum.parabolic_roots(J)):
        raise InternalError("lex chain roots do not match the non-parabolic roots")
    top: list[int] = []
    weyl = datum.weyl
    w_J = parabolic_longest(weyl, J)
    prefix = weyl.identity
    for i in w_J.reduced_word():
        # inversion beta_t = s_{i_1} ... s_{i_{t-1}}(alpha_{i_t})
        root = prefix.perm[datum.simple_root_index[i - 1]]
        if root < 0:
            raise InternalError("inversion order produced a negative root")
        top.append(root - 1)
        prefix = prefix * weyl.simple[i - 1]
    order = tuple(bottom + top)
    if len(order) != len(datum.positive_roots) or len(set(order)) != len(order):
        raise InternalError("reflection ordering is not a total order")
    if len(datum.positive_roots) <= 12:
        _verify_reflection_ordering(datum, order)
    return order


def _verify_reflection_ordering(datum: RootDatum, order: tuple[int, ...]) -> None:
    # gamma^vee = a alpha^vee + b beta^vee with a, b > 0 forces gamma between
    pos = {k: i for i, k in enumerate(order)}
    n = len(order)
    for ia in range(n):
        for ib in range(ia + 1, n):
            a_idx, b_idx = order[ia], order[ib]
            u = datum.positive_coroots[a_idx]
            v = datum.positive_coroots[b_idx]
            for g_idx in range(len(datum.positive_roots)):
                if g_idx in (a_idx, b_idx):
                    continue
                coeffs = _solve_two(u, v, datum.positive_coroots[g_idx])
                if coeffs is not None and coeffs[0] > 0 and coeffs[1] > 0:
                    if not ia < pos[g_idx] < ib:
                        raise InternalError(
                            "reflection ordering violates the interleaving property"
                        )


def _solve_two(u: Vector, v: Vector, g: Vector):
    """Solve a*u + b*v = g exactly, or None if inconsistent/degenerate."""
    rows = list(zip(u, v, g))
    for i in range(len(rows)):
        for j in range(i + 1, len(rows)):
            det = rows[i][0] * rows[j][1] - rows[i][1] * rows[j][0]
            if det != 0:
                a = Fraction(rows[i][2] * rows[j][1] - rows[i][1] * rows[j][2], det)
                b = Fraction(rows[i][0] * rows[j][2] - rows[i][2] * rows[j][0], det)
                if all(a * x + b * y == z for x, y, z in rows):
                    return a, b
                return None
    return None


# ---------------------------------------------------------------- shellability


def increasing_paths_from(
    graph: QuantumBruhatGraph,
    start: WeylElement,
    targets: frozenset[WeylElement],
    order: tuple[int, ...],
    allowed: frozenset[int] | None = None,
) -> list[tuple[QBGEdge, ...]]:
    """All strictly label-increasing paths from start into the target set."""
    pos = {k: i for i, k in enumerate(order)}
    found: list[tuple[QBGEdge, ...]] = []

    def grow(w: WeylElement, floor: int, acc: list[QBGEdge]) -> None:
        if w in targets:
            found.append(tuple(acc))
            # the empty continuation also counts; longer continuations could
            # reenter the target set, so keep searching
        for e in sorted(graph.adjacency[w], key=lambda e: pos[e.label]):
            if pos[e.label] > floor and (allowed is None or e.label in allowed):
                acc.append(e)
                grow(e.target, pos[e.label], acc)
                acc.pop()

    grow(start, -1, [])
    return found


def tilted_minimum(
    graph: QuantumBruhatGraph,
    v: WeylElement,
    coset_rep: WeylElement,
    J: frozenset[int],
    order: tuple[int, ...],
) -> tuple[WeylElement, tuple[QBGEdge, ...]]:
    """Endpoint (and path) of the unique increasing path from v into the coset
    coset_rep * W_J with all labels outside the parabolic subsystem."""
    if graph.J:
        raise InputError("tilted minima are computed on the full graph")
    datum = graph.datum
    weyl = datum.weyl
    rep = weyl.min_coset_rep(coset_rep, J)
    coset = frozenset(
        rep * u for u in _parabolic_elements(weyl, J)
    )
    allowed = frozenset(graph.labels) - datum.parabolic_roots(J)
    found = increasing_paths_from(graph, v, coset, order, allowed)
    if len(found) != 1:
        raise InternalError(
            f"expected exactly one increasing path into the coset, found {len(found)}"
        )
    path = found[0]
    end = path[-1].target if path else v
    return end, path


def _parabolic_elements(weyl, J: frozenset[int]) -> tuple[WeylElement, ...]:
    out = [weyl.identity]
    seen = {weyl.identity}
    queue = deque(out)
    while queue:
        w = queue.popleft()
        for i in J:
            nxt = w * weyl.simple[i - 1]
            if nxt not in seen:
                seen.add(nxt)
                out.append(nxt)
                queue.append(nxt)
    return tuple(out)


# ---------------------------------------------------------------- the inverse


def reference_cache(datum: RootDatum) -> dict:
    """The full graph QB(W) and the reflection orderings, keyed by (lambda,
    chain entries), built once per datum.  The cache lives on the datum
    itself, so it goes when the datum does: a dictionary keyed on the datum
    elsewhere, even a weak one, would hold the graph, whose elements refer
    back to the datum, and so keep the datum alive."""
    cache = getattr(datum, "_inverse_reference", None)
    if cache is None:
        cache = datum._inverse_reference = {"graph": build_qbg(datum), "orderings": {}}
    return cache


def chain_ordering(chain: LambdaChain) -> tuple[int, ...]:
    orderings, key = reference_cache(chain.datum)["orderings"], (chain.lam, chain.entries)
    if key not in orderings:
        orderings[key] = reflection_ordering(chain.datum, chain.datum.stabilizer(chain.lam), chain)
    return orderings[key]


def inverse(eta: QLSPath, chain: LambdaChain | None = None) -> AdmissibleSubset:
    """The admissible subset mapping to a given path of shape -w0.lam."""
    datum = eta.datum
    lam = minus_w0(datum, eta.lam)
    if chain is None:
        chain = lex_chain(datum, lam)
    require_lex(chain)
    if chain.lam != lam:
        raise InputError(
            f"chain weight {chain.lam.coords} does not match the path shape"
        )
    J = datum.stabilizer(lam)
    order = chain_ordering(chain)
    graph = reference_cache(datum)["graph"]
    position_of = {
        (e.root, e.level): n for n, e in enumerate(chain.entries, start=1)
    }

    # the minimal coset representatives, built from the words of the points
    sigmas = [qls_model._as_element(datum, word) for word in qls_model.dual(eta).words[::-1]]
    positions: list[int] = []
    current = datum.weyl.identity
    for sigma, c in zip(sigmas, eta.cuts):
        current, path = tilted_minimum(graph, current, sigma, J, order)
        for edge in path:
            level, off = divmod(c * datum.pairing_index(edge.label, lam), eta.L)
            if off:
                raise InternalError(
                    f"edge label pairs non-integrally at relative height {Fraction(c, eta.L)}"
                )
            positions.append(position_of[(edge.label, level)])
    if any(a >= b for a, b in zip(positions, positions[1:])):
        raise InternalError("reconstructed positions are not increasing")
    return AdmissibleSubset(chain, tuple(positions))
