"""Parabolic quantum Bruhat graphs and their path combinatorics.

QB(W^J) has, for each vertex x and positive root alpha outside the parabolic
subsystem, at most one edge, to the shortest element of x r_alpha W_J: a
Bruhat edge when the length goes up by one, a quantum edge when it drops by
<alpha^vee, 2rho - 2rho_J> - 1, and then its weight is the coroot alpha^vee.
The package builds QB(W^J) in one place, on the orbit of lambda
(`OrbitGraph`, J the stabilizer of lambda): vertices, edges and lengths come
from weights alone, and one BFS per (source, denominator of b) over the
b-restricted subgraph gives its reachability and the shortest-path weights.
The graph numbers its vertices, and a QLS path holds its points as those
numbers: per affine label j the graph keeps the pairing of alpha_tilde_j^vee
with every vertex and the index of its s_j-image, and across orbits the
index of -mu and of -w0(mu) in the graph of -w0(lambda), each table built on
first use.  The
alcove walk takes single QB(W) steps on Weyl elements (`qbg_step`), kept in
each element's row `steps`; the graph on Weyl elements, which composes
every x r_alpha, is a test reference (`tests/qbg_reference.py`).
"""

from __future__ import annotations

from array import array
from functools import cached_property, partial
from itertools import compress
from math import lcm
from operator import itemgetter

from qalcove.crystal import WeightPacking
from qalcove.lie_data import (
    UNSEEN,
    InternalError,
    RootDatum,
    Vector,
    Weight,
    WeylElement,
)

BRUHAT = "bruhat"
QUANTUM = "quantum"


def qbg_step(datum: RootDatum, w: WeylElement, root: int) -> tuple[WeylElement, str] | None:
    """The edge of QB(W) leaving w with label root, as (target, kind), or
    None if neither edge condition holds; decided once and kept in w's row
    `w.steps`.

    The edge conditions (Brenti-Fomin-Postnikov) read only lengths, here
    from the inversion sets as bitmasks, N(u) the positive roots u negates:
    l(w r_beta) = l(w) + l(r_beta) - 2|N(w) & N(r_beta)|, with N(r_beta)
    and the quantum drop read off `WeylGroup.edge_table`.  So w r_beta is
    composed only along an edge, and its length must agree.
    """
    row = w.steps
    if row[root] is UNSEEN:
        negated, drop = datum.weyl.edge_table[root]
        gain = negated.bit_count() - 1 - 2 * (w.mask & negated).bit_count()
        kind = BRUHAT if gain == 0 else QUANTUM if gain == -drop else None
        if kind:
            target = w * datum.weyl.reflection(root)
            if target.length != w.length + 1 + gain:
                raise InternalError("l(w r_beta) differs from its inversion-set count")
        row[root] = (target, kind) if kind else None
    return row[root]


class OrbitGraph:
    """QB(W^J) on the orbit of lambda (J its stabilizer), read off weights.

    x -> x(lambda) maps W^J onto the orbit.  The vertices mu = x(lambda) are
    grown from lambda by simple reflections at mu_i > 0, each raising the
    length by one, so a vertex's length is its depth.  For each root delta
    (either sign) with p = <delta^vee, mu> > 0, the label alpha = x^-1(delta)
    has <alpha^vee, lambda> = p, and the edge goes to s_delta(mu): Bruhat
    when the length rises by one, quantum when it changes by
    1 - |<delta^vee, x(2rho - 2rho_J)>| = 1 - <alpha^vee, 2rho - 2rho_J>, and
    then its weight pairs with lambda to p.  Both pairings come from `row`.

    A break b = u/v in lowest terms keeps the edges with v | p.  By the
    shortest-path lemma of Lenart-Naito-Sagaki-Schilling-Shimozono (part I,
    arXiv:1211.2042), if mu reaches nu in that subgraph, every shortest path
    from mu to nu lies in it, and all shortest paths share their weight; so
    one BFS over those edges (`search`) decides reachability and carries the
    shortest-path weight.  A vertex's edges at v are built on first use, at
    v >= 2 none with p = 1.
    """

    def __init__(self, datum: RootDatum, lam: Weight):
        drops = datum.quantum_drops(datum.stabilizer(lam))  # refuses lam if not dominant
        first = [datum.pairing(c, lam) for c in datum.positive_coroots]
        # the pairings <alpha^vee, lambda> > 0 of the labels, the roots outside Phi_J
        self.pairings = tuple(sorted(set(first) - {0}))
        # every break of a path of shape lambda is a multiple of 1/L
        self.L = lcm(*self.pairings)
        self._first = first + [drops.get(k, 0) for k in range(len(first))]  # row(0)
        # a point is found by its packed key: the largest pairing bounds every
        # coordinate, and s_beta moves the key by <beta^vee, mu> keys of beta
        packing = WeightPacking(datum, max(self.pairings, default=0))
        self._steps = steps = [packing.linear(wt) for wt in datum.root_weights]
        simple = datum.affine_root_weights[1:]
        points, keys, lengths, grown = [lam.coords], [packing.linear(lam.coords)], [0], []
        index = {keys[0]: 0}
        for n, mu in enumerate(points):  # points grows as the search finds vertices
            for i, c in enumerate(mu):
                if c > 0 and (key := keys[n] - c * steps[datum.simple_root_index[i]]) not in index:
                    index[key] = len(points)
                    points.append(tuple(m - c * a for m, a in zip(mu, simple[i])))
                    keys.append(key)
                    grown.append((n, i))  # the new point is s_i of point n
                    lengths.append(lengths[n] + 1)
        self.datum, self.lam = datum, lam
        self.points = tuple(Weight(mu) for mu in points)
        self.lengths = tuple(lengths)
        self._keys, self._index, self._grown = keys, index, grown
        # the edges, kept pairings and searches per break denominator, and the
        # label tables, filled on first use
        self._edges: dict[int, list] = {}
        self._kept: dict[int, set[int]] = {}
        self._searches: dict[tuple[int, int], dict[int, int]] = {}
        self._pairings: dict[int, list[int]] = {}
        self._reflections: dict[int, list[int]] = {}

    @cached_property
    def coords_index(self) -> dict[Vector, int]:
        """The vertex of each point's coordinates."""
        return {mu.coords: n for n, mu in enumerate(self.points)}

    @cached_property
    def _rows(self) -> tuple:
        """The rows built so far (row 0 at first), the narrowest array type
        that holds row 0, and per node i the signed permutation of s_i on a
        row as (getter, entries to negate)."""
        first, half, bound = self._first, len(self._first) // 2, max(map(abs, self._first))
        code = next((c for c in "bhiq" if bound < 1 << 8 * array(c).itemsize - 1), None)
        new = partial(array, code) if code else list
        moves = [(itemgetter(*[abs(v) - 1 + h for h in (0, half) for v in perm]),
                  [k + h for h in (0, half) for k, v in enumerate(perm) if v < 0]) for perm in self.datum.simple_perms]
        return [new(first)] + [None] * (len(self.points) - 1), new, moves

    def row(self, n: int):
        """<beta^vee, mu_n> then <beta^vee, x(2rho - 2rho_J)> over the positive
        roots beta, built on first use after its unbuilt ancestors'.  As
        <beta^vee, s_i mu> = <s_i beta^vee, mu>, a child's row is its parent's
        through `RootDatum.simple_perms[i]`, so every row is a signed
        permutation of row 0 and fits its array type (a list past 64 bits)."""
        rows, new, moves = self._rows
        if rows[n] is None:  # recurses at most lengths[n] deep, to a built row
            parent, i = self._grown[n - 1]
            get, flips = moves[i]
            rows[n] = row = new(get(self.row(parent)))
            for k in flips:
                row[k] = -row[k]
        return rows[n]

    def _out(self, n: int, v: int) -> tuple[tuple[int, int], ...]:
        """The edges leaving vertex n whose pairing v divides, as (target,
        weight) pairs; at v >= 2 no edge with p = 1 is built."""
        row, key, length, out = self.row(n), self._keys[n], self.lengths[n], []
        half, steps, index, lengths = len(row) // 2, self._steps, self._index, self.lengths
        kept = self._kept.get(v)
        if kept is None:  # every row's pairings are row 0's up to sign
            kept = self._kept[v] = {s * p for p in self._first[:half] if p and p % v == 0 for s in (1, -1)}
        for k in compress(range(half), map(kept.__contains__, row)):
            c = row[k]
            target = index[key - c * steps[k]]
            gain = lengths[target] - length - 1
            if gain == 0:
                out.append((target, 0))
            elif gain == -abs(row[k + half]):
                out.append((target, abs(c)))
        return tuple(out)

    def search(self, source: int, v: int) -> dict[int, int]:
        """One BFS from the vertex source over the edges whose pairing v
        divides (every edge at v = 1): the weight <wt, lambda> of the path it
        finds to each vertex reached, keyed in BFS order; not kept."""
        edges = self._edges.get(v)
        if edges is None:
            edges = self._edges[v] = [None] * len(self.points)
        weights = {source: 0}
        queue = [source]
        for m in queue:  # queue grows as the BFS finds vertices
            out = edges[m]
            if out is None:
                out = edges[m] = self._out(m, v)
            w = weights[m]
            for target, q in out:
                if target not in weights:
                    weights[target] = w + q
                    queue.append(target)
        return weights

    def _searched(self, m: int, v: int) -> dict[int, int]:
        table = self._searches.get((m, v))
        if table is None:
            table = self._searches[m, v] = self.search(m, v)
        return table

    def reachable(self, m: int, n: int, v: int) -> bool:
        """Whether vertex m reaches vertex n in the graph restricted at breaks
        of denominator v."""
        return n in self._searched(m, v)

    def path_weight(self, m: int, n: int, v: int) -> int:
        """<wt(p), lambda> for any shortest directed path p from vertex m to
        n, read off the search restricted at breaks of denominator v, which
        must reach n."""
        weight = self._searched(m, v).get(n)
        if weight is None:
            raise InternalError(f"vertex {n} is not reachable from vertex {m} at denominator {v}")
        return weight

    def affine_pairings(self, j: int) -> list[int]:
        """<alpha_tilde_j^vee, mu_n> for every vertex n (-<theta^vee, mu_n>
        at j = 0), built on the label's first use."""
        table = self._pairings.get(j)
        if table is None:
            root, sign = self.datum.affine_root(j)  # refuses a label outside 0..rank
            table = [0] * len(self.points)
            for i, b in enumerate(self.datum.positive_coroots[root]):
                if b:
                    table = [t + sign * b * mu.coords[i] for t, mu in zip(table, self.points)]
            self._pairings[j] = table
        return table

    def affine_reflections(self, j: int) -> list[int]:
        """The index of s_j(mu_n) (s_theta at j = 0) for every vertex n,
        built on the label's first use."""
        table = self._reflections.get(j)
        if table is None:
            root, sign = self.datum.affine_root(j)
            step = sign * self._steps[root]
            table = self._reflections[j] = [
                self._index[key - c * step] if c else n for n, (key, c) in enumerate(zip(self._keys, self.affine_pairings(j)))
            ]
        return table

    @cached_property
    def dual(self) -> OrbitGraph:
        """The orbit graph of -w0(lambda), which holds -mu and -w0(mu) for
        every vertex mu of this one."""
        return orbit_graph(self.datum, minus_w0(self.datum, self.lam))

    @cached_property
    def negated(self) -> tuple[int, ...]:
        """The index of -mu_n in the graph of -w0(lambda), by vertex n."""
        # the dual graph packs with the same bound, and packing is linear
        index = self.dual._index
        return tuple(index[-key] for key in self._keys)

    @cached_property
    def omega_images(self) -> tuple[int, ...]:
        """The index of -w0(mu_n) in the graph of -w0(lambda), by vertex n."""
        index, omega = self.dual.coords_index, self.datum.omega
        return tuple(index[tuple(mu.coords[i - 1] for i in omega)] for mu in self.points)


def minus_w0(datum: RootDatum, mu: Weight) -> Weight:
    """-w0(mu): the diagram automorphism `RootDatum.omega`, an involution, permutes coordinates."""
    return Weight(tuple(mu.coords[i - 1] for i in datum.omega))


def orbit_graph(datum: RootDatum, lam: Weight) -> OrbitGraph:
    """The orbit graph of lam, built once and kept on the datum."""
    graph = datum._orbit_graphs.get(lam)
    if graph is None:
        graph = datum._orbit_graphs[lam] = OrbitGraph(datum, lam)
    return graph
