"""Parabolic quantum Bruhat graphs and their path combinatorics.

A graph has vertex set W^J and, for each vertex w and positive root alpha
outside the parabolic subsystem, at most one edge w -> min_coset_rep(w r_alpha)
which is either a Bruhat edge (length goes up by one) or a quantum edge
(length drops by <alpha^vee, 2rho - 2rho_J> - 1).  Quantum edges carry the
coroot alpha^vee as weight.  On top of the graphs the module provides
shortest-path weights, reachability in the b-restricted subgraphs read off
one shortest path, reflection orderings compatible with a lex chain,
label-increasing paths, and tilted Bruhat minima.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from qalcove.lie_data import (
    InputError,
    InternalError,
    RootDatum,
    Vector,
    Weight,
    WeylElement,
)

BRUHAT = "bruhat"
QUANTUM = "quantum"


@dataclass(frozen=True)
class QBGEdge:
    source: WeylElement
    target: WeylElement
    label: int  # positive-root index in the root datum
    kind: str  # BRUHAT or QUANTUM
    weight: Vector  # coroot coordinates; zero vector on Bruhat edges


def qbg_step(
    datum: RootDatum, w: WeylElement, root: int, J: frozenset[int] = frozenset()
) -> tuple[WeylElement, str] | None:
    """The edge of the parabolic graph on W^J leaving w with label root, as
    (target, kind), or None if neither edge condition holds; composed once per
    datum and memoized in the Weyl group's `_steps`, keyed by (w, root, J)."""
    weyl, key = datum.weyl, (w, root, J)
    if key not in weyl._steps:
        target = weyl.min_coset_rep(w * weyl.reflection(root), J)
        gain = target.length - w.length - 1
        kind = BRUHAT if gain == 0 else QUANTUM if gain == -datum.quantum_drops(J)[root] else None
        weyl._steps[key] = (target, kind) if kind else None
    return weyl._steps[key]


class QuantumBruhatGraph:
    """Immutable quantum Bruhat graph on W^J.

    By the shortest-path lemma of Lenart-Naito-Sagaki-Schilling-Shimozono
    (part I, arXiv:1211.2042), y is reachable from x in the b-restricted
    subgraph QB_{b lambda}(W^J) exactly when every shortest path from x to y
    uses only its edges, so `reachable` checks the one the BFS found: with
    b = u/v in lowest terms, b<alpha^vee, lam> is integral on every label
    alpha of that path iff v divides the gcd that `label_gcd` records.
    """

    def __init__(self, datum: RootDatum, J: frozenset[int] = frozenset()):
        self.datum = datum
        self.J = frozenset(J)
        # the roots outside the parabolic subsystem
        self.labels: tuple[int, ...] = tuple(datum.quantum_drops(self.J))
        self.adjacency = {w: self._build_edges(w) for w in datum.weyl.coset_reps(self.J)}
        self.vertices = tuple(self.adjacency)
        self._bfs_cache: dict[WeylElement, dict] = {}
        self._gcd_cache: dict[tuple[WeylElement, Weight], dict[WeylElement, int]] = {}
        self._orbits: dict[Weight, dict[Weight, WeylElement]] = {}

    def _build_edges(self, w: WeylElement) -> tuple[QBGEdge, ...]:
        datum = self.datum
        zero = (0,) * datum.rank
        out = []
        for k in self.labels:
            step = qbg_step(datum, w, k, self.J)
            if step is not None:
                target, kind = step
                weight = zero if kind == BRUHAT else datum.positive_coroots[k]
                out.append(QBGEdge(w, target, k, kind, weight))
        return tuple(out)

    def edges(self):
        for w in self.vertices:
            yield from self.adjacency[w]

    def edge_count(self) -> int:
        return sum(len(self.adjacency[w]) for w in self.vertices)

    def orbit(self, lam: Weight) -> dict[Weight, WeylElement]:
        """The bijection x(lam) -> x from the orbit of lam onto W^J, built once
        per lam; lam must have stabilizer exactly J."""
        table = self._orbits.get(lam)
        if table is None:
            if self.datum.stabilizer(lam) != self.J:
                raise InputError(f"stabilizer of the weight {lam.coords} is not the graph's J")
            table = self._orbits[lam] = {x.act_weight(lam): x for x in self.vertices}
        return table

    # ------------------------------------------------------------------- queries

    def _bfs(self, x: WeylElement) -> dict:
        """The weight and last edge of one shortest path from x to each vertex,
        keyed in BFS order."""
        data = self._bfs_cache.get(x)
        if data is None:
            wt = {x: (0,) * self.datum.rank}
            via: dict[WeylElement, QBGEdge] = {}
            queue = deque([x])
            while queue:
                w = queue.popleft()
                for e in self.adjacency[w]:
                    if e.target not in wt:
                        wt[e.target] = tuple(a + b for a, b in zip(wt[w], e.weight))
                        via[e.target] = e
                        queue.append(e.target)
            data = {"wt": wt, "via": via}
            self._bfs_cache[x] = data
        return data

    def label_gcd(self, x: WeylElement, lam: Weight) -> dict[WeylElement, int]:
        """For each y reachable from x, the gcd of <alpha^vee, lam> over the
        labels alpha of the BFS path from x to y (0 at y = x), built once per
        (x, lam) by one walk of the BFS tree in distance order."""
        key = (x, lam)
        table = self._gcd_cache.get(key)
        if table is None:
            if not self.datum.is_dominant(lam):
                raise InputError(f"weight {lam.coords} is not dominant")
            # the full graph may be restricted by any dominant weight; a
            # parabolic graph only by weights whose stabilizer contains J
            if any(lam.coords[j - 1] for j in self.J):
                raise InputError("stabilizer of the weight does not contain the graph's J")
            data = self._bfs(x)
            via = data["via"]
            pairing = {k: self.datum.pairing_index(k, lam) for k in self.labels}
            table = {}
            for y in data["wt"]:  # BFS order: a target follows its tree parent
                e = via.get(y)
                table[y] = 0 if e is None else gcd(table[e.source], pairing[e.label])
            self._gcd_cache[key] = table
        return table

    def reachable(self, x: WeylElement, y: WeylElement, b: Fraction, lam: Weight) -> bool:
        """Whether some path from x to y uses only edges with b<alpha^vee, lam> integral."""
        g = self.label_gcd(x, lam).get(y)
        # with b = u/v in lowest terms, b<alpha^vee, lam> is integral on every
        # label of the path iff v divides every pairing, that is, their gcd
        return g is not None and g % Fraction(b).denominator == 0

    def shortest_path_weight(self, x: WeylElement, y: WeylElement, lam: Weight) -> int:
        """<wt(p), lam> for any shortest directed path p from x to y."""
        data = self._bfs(x)
        if y not in data["wt"]:
            raise InternalError("graph is not strongly connected")
        val = self.datum.pairing(data["wt"][y], lam)
        if val < 0:
            raise InternalError("shortest-path weight must be nonnegative")
        return val


def build_qbg(datum: RootDatum, J: frozenset[int] = frozenset()) -> QuantumBruhatGraph:
    return QuantumBruhatGraph(datum, J)


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
    w_J = weyl.parabolic_longest(J)
    prefix = weyl.identity
    for i in w_J.reduced_word():
        # inversion beta_t = s_{i_1} ... s_{i_{t-1}}(alpha_{i_t})
        root = prefix.act_root_index(datum.simple_root_index[i - 1])
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
