"""Parabolic quantum Bruhat graphs and their path combinatorics.

QB(W^J) has, for each vertex x and positive root alpha outside the parabolic
subsystem, at most one edge x -> min_coset_rep(x r_alpha): a Bruhat edge
when the length goes up by one, a quantum edge when it drops by
<alpha^vee, 2rho - 2rho_J> - 1, and then its weight is the coroot alpha^vee.
The QLS side reads the graph on the orbit of lambda (`OrbitGraph`, J the
stabilizer of lambda): vertices, edges and lengths come from weights alone,
and one BFS per (source, denominator of b) over the b-restricted subgraph
gives its reachability and the shortest-path weights.  The graph numbers its
vertices, and a QLS path holds its points as those numbers: per affine
label j the graph keeps the pairing of alpha_tilde_j^vee with every vertex
and the index of its s_j-image, and across orbits the index of -mu and of
-w0(mu) in the graph of -w0(lambda), each table built on first use.  The
alcove walk takes single QB(W) steps on Weyl elements (`qbg_step`), kept in
each element's row `steps`; no command builds the graph on Weyl elements.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import lcm
from operator import mul

from qalcove.lie_data import (
    UNSEEN,
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


def qbg_step(datum: RootDatum, w: WeylElement, root: int) -> tuple[WeylElement, str] | None:
    """The edge of QB(W) leaving w with label root, as (target, kind), or
    None if neither edge condition holds; decided once and kept in w's row
    `w.steps`.

    The edge conditions (Brenti-Fomin-Postnikov) read only lengths, here
    from the inversion sets, N(u) the positive roots u negates:
    l(w r_beta) = l(w) + l(r_beta) - 2|N(w) & N(r_beta)|, so w r_beta is
    composed only along an edge, and its length must agree.
    """
    row = w.steps
    if row[root] is UNSEEN:
        negated, perm = datum.weyl.inversions(root), w.perm
        gain = len(negated) - 1 - 2 * len([k for k in negated if perm[k] < 0])
        kind = BRUHAT if gain == 0 else QUANTUM if gain == -datum.quantum_drops()[root] else None
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
    length by one, so a vertex's length is its depth; beside mu rides
    nu = x(2rho - 2rho_J), well defined as 2rho - 2rho_J is W_J-invariant.
    For each root delta (either sign) with p = <delta^vee, mu> > 0, the label
    alpha = x^-1(delta) has <alpha^vee, lambda> = p, and the edge goes to
    s_delta(mu): Bruhat when the length rises by one, quantum when it changes
    by 1 - |<delta^vee, nu>| = 1 - <alpha^vee, 2rho - 2rho_J>, and then its
    weight pairs with lambda to p.

    A break b = u/v in lowest terms keeps the edges with v | p.  By the
    shortest-path lemma of Lenart-Naito-Sagaki-Schilling-Shimozono (part I,
    arXiv:1211.2042), if mu reaches nu in that subgraph, every shortest path
    from mu to nu lies in it, and all shortest paths share their weight; so
    one BFS over those edges (`search`) decides reachability and carries the
    shortest-path weight.  A vertex's edges at v are built on first use, at
    v >= 2 none with p = 1.
    """

    def __init__(self, datum: RootDatum, lam: Weight):
        if not datum.is_dominant(lam):
            raise InputError(f"weight {lam.coords} is not dominant")
        # the pairings <alpha^vee, lambda> > 0 of the labels, the roots outside Phi_J
        self.pairings = tuple(sorted({p for c in datum.positive_coroots if (p := datum.pairing(c, lam))}))
        # every break of a path of shape lambda is a multiple of 1/L
        self.L = lcm(*self.pairings)
        simple = [datum.root_weights[k] for k in datum.simple_root_index]
        points, lengths = [lam.coords], [0]
        carried = [datum.two_rho_minus_two_rho_J(datum.stabilizer(lam)).coords]
        index = {lam.coords: 0}
        for n, mu in enumerate(points):  # points grows as the search finds vertices
            for i, c in enumerate(mu):
                if c > 0 and (image := tuple(m - c * a for m, a in zip(mu, simple[i]))) not in index:
                    index[image] = len(points)
                    points.append(image)
                    carried.append(tuple(m - carried[n][i] * a for m, a in zip(carried[n], simple[i])))
                    lengths.append(lengths[n] + 1)
        self.datum, self.lam = datum, lam
        self.points = tuple(Weight(mu) for mu in points)
        self.index = {mu: n for n, mu in enumerate(self.points)}
        self.lengths = tuple(lengths)
        self._coords, self._carried = index, carried
        self._roots = tuple(zip(datum.positive_coroots, datum.root_weights))
        # the edges and searches per break denominator, and the label tables,
        # filled on first use
        self._edges: dict[int, list] = {}
        self._searches: dict[tuple[int, int], dict[int, int]] = {}
        self._pairings: dict[int, list[int]] = {}
        self._reflections: dict[int, list[int]] = {}

    def _out(self, n: int, v: int) -> tuple[tuple[int, int], ...]:
        """The edges leaving vertex n whose pairing v divides, as (target,
        weight) pairs; at v >= 2 no edge with p = 1 is built."""
        mu, nu, length, out = self.points[n].coords, self._carried[n], self.lengths[n], []
        for coroot, root in self._roots:
            c = sum(map(mul, coroot, mu))
            if c and c % v == 0:
                target = self._coords[tuple([m - c * a for m, a in zip(mu, root)])]
                gain = self.lengths[target] - length - 1
                if gain == 0:
                    out.append((target, 0))
                elif gain == -abs(sum(map(mul, coroot, nu))):
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
            alpha = self.datum.root_weights[root]
            table = self._reflections[j] = [
                self._coords[tuple(m - sign * c * a for m, a in zip(mu.coords, alpha))] if c else n
                for n, (mu, c) in enumerate(zip(self.points, self.affine_pairings(j)))
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
        index = self.dual._coords
        return tuple(index[tuple(-m for m in mu.coords)] for mu in self.points)

    @cached_property
    def omega_images(self) -> tuple[int, ...]:
        """The index of -w0(mu_n) in the graph of -w0(lambda), by vertex n."""
        index, omega = self.dual._coords, self.datum.weyl.omega
        return tuple(index[tuple(mu.coords[i - 1] for i in omega)] for mu in self.points)


def minus_w0(datum: RootDatum, mu: Weight) -> Weight:
    """-w0(mu): the diagram automorphism omega, an involution, permutes coordinates."""
    return Weight(tuple(mu.coords[i - 1] for i in datum.weyl.omega))


def orbit_graph(datum: RootDatum, lam: Weight) -> OrbitGraph:
    """The orbit graph of lam, built once and kept on the datum."""
    graph = datum._orbit_graphs.get(lam)
    if graph is None:
        graph = datum._orbit_graphs[lam] = OrbitGraph(datum, lam)
    return graph


class QuantumBruhatGraph:
    """Immutable quantum Bruhat graph on W^J, with Weyl elements as vertices.

    Each edge is read off its definition, composing w r_alpha for every
    label; nothing is kept on the elements.  No command builds it; it is kept
    only for the benchmark replay, which times its build as the
    `quantum_bruhat.qbg_*` metrics.
    """

    def __init__(self, datum: RootDatum, J: frozenset[int] = frozenset()):
        self.datum = datum
        self.J = frozenset(J)
        # the roots outside the parabolic subsystem
        self.labels: tuple[int, ...] = tuple(datum.quantum_drops(self.J))
        self.adjacency = {w: self._build_edges(w) for w in datum.weyl.coset_reps(self.J)}
        self.vertices = tuple(self.adjacency)

    def _build_edges(self, w: WeylElement) -> tuple[QBGEdge, ...]:
        # the target is min_coset_rep(w r_alpha), and its length decides the
        # edge with the drop <alpha^vee, 2rho - 2rho_J>
        datum, weyl, drops = self.datum, self.datum.weyl, self.datum.quantum_drops(self.J)
        zero = (0,) * datum.rank
        out = []
        for k in self.labels:
            target = weyl.min_coset_rep(w * weyl.reflection(k), self.J)
            gain = target.length - w.length - 1
            if gain == 0:
                out.append(QBGEdge(w, target, k, BRUHAT, zero))
            elif gain == -drops[k]:
                out.append(QBGEdge(w, target, k, QUANTUM, datum.positive_coroots[k]))
        return tuple(out)

    def edges(self):
        for w in self.vertices:
            yield from self.adjacency[w]

    def edge_count(self) -> int:
        return sum(len(self.adjacency[w]) for w in self.vertices)


def build_qbg(datum: RootDatum, J: frozenset[int] = frozenset()) -> QuantumBruhatGraph:
    return QuantumBruhatGraph(datum, J)
