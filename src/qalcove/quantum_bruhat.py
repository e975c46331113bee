"""Parabolic quantum Bruhat graphs and their path combinatorics.

QB(W^J) has, for each vertex x and positive root alpha outside the parabolic
subsystem, at most one edge x -> min_coset_rep(x r_alpha): a Bruhat edge
when the length goes up by one, a quantum edge when it drops by
<alpha^vee, 2rho - 2rho_J> - 1, and then its weight is the coroot alpha^vee.
The QLS side reads the graph on the orbit of lambda (`OrbitGraph`, J the
stabilizer of lambda): vertices, edges and lengths come from weights alone,
and one BFS per source gives the shortest-path weights and the reachability
in the b-restricted subgraphs.  The alcove walk takes single steps on Weyl
elements (`qbg_step`); no command builds the graph on Weyl elements.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, lcm

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
    weight pairs with lambda to p.  Edges are (target, kind, p, that weight),
    built on a vertex's first use.

    By the shortest-path lemma of Lenart-Naito-Sagaki-Schilling-Shimozono
    (part I, arXiv:1211.2042), nu is reachable from mu in the b-restricted
    subgraph exactly when a shortest path from mu to nu uses only its edges,
    and all shortest paths share their weight.  So `reach`, one BFS per
    source, gives both: with b = u/v in lowest terms, b<alpha^vee, lambda> is
    integral on every label of the path iff v divides their pairings' gcd.
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
        self.points = tuple(Weight(mu) for mu in points)
        self.index = {mu: n for n, mu in enumerate(self.points)}
        self.lengths = tuple(lengths)
        self._coords, self._carried = index, carried
        self._roots = tuple(zip(datum.positive_coroots, datum.root_weights))
        # the edges and the reach tables, by vertex index, filled on first use
        self._edges: dict[int, tuple] = {}
        self._reach: dict[int, tuple[list[int], list[int]]] = {}

    def edges(self, n: int) -> tuple:
        """The edges leaving vertex n, built on its first use."""
        out = self._edges.get(n)
        if out is None:
            mu, nu, length, out = self.points[n].coords, self._carried[n], self.lengths[n], []
            for coroot, root in self._roots:
                if c := sum(b * m for b, m in zip(coroot, mu)):
                    target = self._coords[tuple(m - c * a for m, a in zip(mu, root))]
                    gain, p = self.lengths[target] - length - 1, abs(c)
                    if gain == 0:
                        out.append((target, BRUHAT, p, 0))
                    elif gain == -abs(sum(b * v for b, v in zip(coroot, nu))):
                        out.append((target, QUANTUM, p, p))
            out = self._edges[n] = tuple(out)
        return out

    def reach(self, source: int) -> tuple[list[int], list[int]]:
        """The label gcd (0 at the source itself) and the weight <wt, lambda>
        of one shortest path from the vertex source to each vertex, as lists
        by index: one BFS, run once per source."""
        table = self._reach.get(source)
        if table is None:
            gcds, weights = [-1] * len(self.points), [0] * len(self.points)
            gcds[source] = 0
            queue = [source]
            for v in queue:  # queue grows as the BFS finds vertices
                g, w = gcds[v], weights[v]
                for target, _, p, q in self.edges(v):
                    if gcds[target] < 0:
                        gcds[target], weights[target] = gcd(g, p), w + q
                        queue.append(target)
            if len(queue) != len(self.points):
                raise InternalError("graph is not strongly connected")
            table = self._reach[source] = (gcds, weights)
        return table

    def reachable(self, mu: Weight, nu: Weight, v: int) -> bool:
        """Whether mu reaches nu in the graph restricted at breaks of denominator v."""
        return self.reach(self.index[mu])[0][self.index[nu]] % v == 0

    def path_weight(self, mu: Weight, nu: Weight) -> int:
        """<wt(p), lambda> for any shortest directed path p from mu to nu."""
        return self.reach(self.index[mu])[1][self.index[nu]]


def orbit_graph(datum: RootDatum, lam: Weight) -> OrbitGraph:
    """The orbit graph of lam, built once and kept on the datum."""
    graph = datum._orbit_graphs.get(lam)
    if graph is None:
        graph = datum._orbit_graphs[lam] = OrbitGraph(datum, lam)
    return graph


class QuantumBruhatGraph:
    """Immutable quantum Bruhat graph on W^J, with Weyl elements as vertices.

    No command builds it; it is kept only for the benchmark replay, which
    times its build as the `quantum_bruhat.qbg_*` metrics.
    """

    def __init__(self, datum: RootDatum, J: frozenset[int] = frozenset()):
        self.datum = datum
        self.J = frozenset(J)
        # the roots outside the parabolic subsystem
        self.labels: tuple[int, ...] = tuple(datum.quantum_drops(self.J))
        self.adjacency = {w: self._build_edges(w) for w in datum.weyl.coset_reps(self.J)}
        self.vertices = tuple(self.adjacency)

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


def build_qbg(datum: RootDatum, J: frozenset[int] = frozenset()) -> QuantumBruhatGraph:
    return QuantumBruhatGraph(datum, J)
