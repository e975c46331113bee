"""Reference queries on quantum Bruhat graphs for the tests: plain searches
over the adjacency lists, `QueryGraph`, the graph on Weyl elements with the
shortest-path queries that the orbit graph of `quantum_bruhat` is checked
against, `longest`, the element w_0 that `RootDatum.omega` is checked
against, and `carried`, `orbit_edges` and `orbit_reach`, the orbit graph's
x(2rho - 2rho_J) at a vertex, its every edge by dot products, and one BFS
over all of them per source with the label gcd of each path, which its
searches restricted per break denominator are checked against."""

from collections import deque
from fractions import Fraction
from math import gcd
from operator import mul

from qalcove.lie_data import InputError, InternalError, Weight, WeylElement
from qalcove.quantum_bruhat import BRUHAT, QUANTUM, OrbitGraph, QBGEdge, QuantumBruhatGraph


class QueryGraph(QuantumBruhatGraph):
    """QB(W^J) on Weyl elements with BFS shortest-path queries.

    By the shortest-path lemma of Lenart-Naito-Sagaki-Schilling-Shimozono
    (part I, arXiv:1211.2042), y is reachable from x in the b-restricted
    subgraph QB_{b lambda}(W^J) exactly when every shortest path from x to y
    uses only its edges, so `reachable` checks the one the BFS found: with
    b = u/v in lowest terms, b<alpha^vee, lam> is integral on every label
    alpha of that path iff v divides the gcd that `label_gcd` records.
    """

    def __init__(self, datum, J=frozenset()):
        super().__init__(datum, J)
        self._bfs_cache: dict[WeylElement, dict] = {}
        self._gcd_cache: dict[tuple[WeylElement, Weight], dict[WeylElement, int]] = {}
        self._orbits: dict[Weight, dict[Weight, WeylElement]] = {}

    def orbit(self, lam: Weight) -> dict[Weight, WeylElement]:
        """The bijection x(lam) -> x from the orbit of lam onto W^J, built once
        per lam; lam must have stabilizer exactly J."""
        table = self._orbits.get(lam)
        if table is None:
            if self.datum.stabilizer(lam) != self.J:
                raise InputError(f"stabilizer of the weight {lam.coords} is not the graph's J")
            table = self._orbits[lam] = {x.act_weight(lam): x for x in self.vertices}
        return table

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


def longest(weyl) -> WeylElement:
    """w_0, grown by right multiplication with simple ascents."""
    w = weyl.identity
    grown = True
    while grown:
        grown = False
        for i, s in enumerate(weyl.simple, 1):
            if not w.has_right_descent(i):
                w, grown = w * s, True
    if w.length != len(weyl.datum.positive_roots):
        raise InternalError("longest element length != number of positive roots")
    return w


def distances(graph, x):
    """The BFS distance from x to every vertex it reaches."""
    dist = {x: 0}
    queue = deque([x])
    while queue:
        w = queue.popleft()
        for e in graph.adjacency[w]:
            if e.target not in dist:
                dist[e.target] = dist[w] + 1
                queue.append(e.target)
    return dist


def distance(graph, x, y):
    return distances(graph, x)[y]


def is_strongly_connected(graph):
    n = len(graph.vertices)
    return all(len(distances(graph, x)) == n for x in graph.vertices)


def shortest_paths(graph, x, y):
    """All shortest directed paths from x to y, as edge tuples."""
    dist = distances(graph, x)
    out = []

    def grow(w, acc):
        if w == y:
            out.append(tuple(acc))
            return
        for e in graph.adjacency[w]:
            if dist.get(e.target) == len(acc) + 1 <= dist[y]:
                acc.append(e)
                grow(e.target, acc)
                acc.pop()

    grow(x, [])
    return out


def carried(graph: OrbitGraph, n: int) -> tuple[int, ...]:
    """nu = x(2rho - 2rho_J) for the vertex mu = x(lambda), x in W^J: s_i at
    a negative coordinate i lowers the length by one until mu is lambda, so
    the nodes read x^-1 as a reduced word, which applied backwards to
    2rho - 2rho_J gives nu."""
    d, mu, word = graph.datum, graph.points[n], []
    while (i := next((i for i, c in enumerate(mu.coords) if c < 0), None)) is not None:
        mu = d.reflect(mu, d.simple_root_index[i])
        word.append(i)
    if mu != graph.lam or len(word) != graph.lengths[n]:
        raise InternalError(f"vertex {n} is not reached from lambda by a reduced word")
    nu = d.two_rho_minus_two_rho_J(d.stabilizer(graph.lam))
    for i in reversed(word):
        nu = d.reflect(nu, d.simple_root_index[i])
    return nu.coords


def orbit_edges(graph: OrbitGraph, n: int) -> tuple:
    """Every edge leaving vertex n of the orbit graph, whatever its pairing,
    as (target, kind, p, weight): for each root delta (either sign) with
    p = <delta^vee, mu> > 0, the edge to s_delta(mu) when the length rises
    by one (Bruhat, weight 0) or changes by 1 - |<delta^vee, nu>| (quantum,
    weight p), nu = `carried(graph, n)`; every pairing is a dot product."""
    d, mu, nu, length, out = graph.datum, graph.points[n].coords, carried(graph, n), graph.lengths[n], []
    for coroot, root in zip(d.positive_coroots, d.root_weights):
        if c := sum(map(mul, coroot, mu)):
            target = graph.coords_index[tuple(m - c * a for m, a in zip(mu, root))]
            gain, p = graph.lengths[target] - length - 1, abs(c)
            if gain == 0:
                out.append((target, BRUHAT, p, 0))
            elif gain == -abs(sum(map(mul, coroot, nu))):
                out.append((target, QUANTUM, p, p))
    return tuple(out)


def orbit_reach(graph: OrbitGraph) -> list[tuple[list[int], list[int]]]:
    """Per source vertex, one BFS over every edge of the orbit graph: the
    label gcd (0 at the source itself) and the weight <wt, lambda> of the
    shortest path it finds to each vertex, as lists by index.  By the
    shortest-path lemma, a target is reachable at breaks of denominator v
    exactly when v divides its gcd."""
    edges = [orbit_edges(graph, n) for n in range(len(graph.points))]
    tables = []
    for source in range(len(graph.points)):
        gcds, weights = [-1] * len(graph.points), [0] * len(graph.points)
        gcds[source] = 0
        queue = [source]
        for v in queue:  # queue grows as the BFS finds vertices
            for target, _, p, q in edges[v]:
                if gcds[target] < 0:
                    gcds[target], weights[target] = gcd(gcds[v], p), weights[v] + q
                    queue.append(target)
        if len(queue) != len(graph.points):
            raise InternalError("graph is not strongly connected")
        tables.append((gcds, weights))
    return tables
