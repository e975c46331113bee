"""The dict-based crystal graph and tensor product, as a reference for the tests.

`CrystalGraph` and `tensor` are the earlier implementation, kept verbatim:
arrows are partial maps keyed by (vertex, label), string lengths are walked
and memoized per (vertex, label), and the tensor product keys every arrow by
a tuple of factor vertices.  `qalcove.crystal` stores the same crystals as
per-label index arrays; `reference` converts one of those into this form,
and `indexed` builds one from dicts.
"""

from __future__ import annotations

import itertools

from qalcove import crystal
from qalcove.lie_data import InputError, InternalError, Weight


def indexed(datum, vertices, weights, e_arrows, f_arrows, distinguished) -> crystal.CrystalGraph:
    """The index-array crystal with the given vertex order, {vertex: weight}
    and {(vertex, label): vertex} arrows, and distinguished vertex."""
    vertices = tuple(vertices)
    index = {v: i for i, v in enumerate(vertices)}
    labels = range(datum.rank + 1)
    e, f = [[-1] * len(vertices) for _ in labels], [[-1] * len(vertices) for _ in labels]
    for targets, arrows in ((e, e_arrows), (f, f_arrows)):
        for (v, j), w in arrows.items():
            targets[j][index[v]] = index[w]
    packing = crystal.WeightPacking(datum, max(abs(c) for w in weights.values() for c in w.coords))
    keys = [packing.pack(weights[v].coords) for v in vertices]
    return crystal.CrystalGraph(datum, vertices, keys, e, f, index[distinguished], packing)


def reference(graph: crystal.CrystalGraph) -> CrystalGraph:
    """The same crystal in the dict-based form."""
    return CrystalGraph(
        graph.datum, graph.vertices, graph.weights, graph.e_arrows, graph.f_arrows,
        graph.vertices[graph.distinguished],
    )


class CrystalGraph:
    """Finite crystal with arrows for every affine label.

    Vertices are opaque hashable model elements; arrows are stored as partial
    maps keyed by (vertex, label).
    """

    def __init__(self, datum, vertices, weights, e_arrows, f_arrows, distinguished):
        self.datum = datum
        self.vertices = tuple(vertices)
        self.weights = dict(weights)
        self.e_arrows = dict(e_arrows)
        self.f_arrows = dict(f_arrows)
        self.distinguished = distinguished
        self.labels = tuple(range(datum.rank + 1))
        self._eps_cache: dict = {}
        self._phi_cache: dict = {}

    def weight_of(self, v) -> Weight:
        return self.weights[v]

    def eps(self, v, j: int) -> int:
        return self._string(v, j, self.e_arrows, self._eps_cache)

    def phi(self, v, j: int) -> int:
        return self._string(v, j, self.f_arrows, self._phi_cache)

    @staticmethod
    def _string(v, j: int, arrows: dict, cache: dict) -> int:
        """Number of j-arrows that can be followed from v, memoized in cache."""
        key = (v, j)
        if key not in cache:
            n, cur = 0, v
            while (nxt := arrows.get((cur, j))) is not None:
                n, cur = n + 1, nxt
            cache[key] = n
        return cache[key]

    def check(self) -> None:
        """Assert arrow-reversibility and weight consistency along arrows."""
        for (v, j), w in self.f_arrows.items():
            if self.e_arrows.get((w, j)) != v:
                raise InternalError(f"f then e is not the identity at label {j}")
            if self.weights[w] != self.weights[v] - self.datum.affine_root_weight(j):
                raise InternalError(f"weight step along an f-arrow at label {j} is wrong")
        for (v, j), w in self.e_arrows.items():
            if self.f_arrows.get((w, j)) != v:
                raise InternalError(f"e then f is not the identity at label {j}")

    def is_connected(self) -> bool:
        neighbours: dict = {v: [] for v in self.vertices}
        for (v, _), w in itertools.chain(self.e_arrows.items(), self.f_arrows.items()):
            neighbours[v].append(w)
            neighbours[w].append(v)
        seen = set(self.vertices[:1])
        queue = list(seen)
        for v in queue:  # queue grows as the search finds vertices
            for w in neighbours[v]:
                if w not in seen:
                    seen.add(w)
                    queue.append(w)
        return len(seen) == len(self.vertices)


def tensor(*factors: CrystalGraph) -> CrystalGraph:
    """Tensor product under the Kashiwara convention, by the signature rule.

    For the label j, factor k writes eps_j minus signs, then phi_j plus signs.
    Reading left to right, each minus cancels the nearest unmatched plus
    before it.  f_j acts on the factor of the leftmost unmatched plus and e_j
    on the factor of the rightmost unmatched minus; either is undefined when
    no such sign is left.  On two factors, f_j acts on the left one exactly
    when phi_j(left) > eps_j(right).
    """
    if len(factors) < 2:
        raise InputError("a tensor product needs at least two factors")
    datum = factors[0].datum
    if any(f.datum is not datum for f in factors[1:]):
        raise InputError("all factors must share one root datum")
    labels = factors[0].labels
    vertices = tuple(itertools.product(*(f.vertices for f in factors)))
    zero = Weight((0,) * datum.rank)
    weights = {}
    e_arrows: dict = {}
    f_arrows: dict = {}
    for b in vertices:
        weights[b] = sum((factors[k].weights[x] for k, x in enumerate(b)), zero)
        for j in labels:
            pluses: list[int] = []  # the factor of each unmatched plus, left to right
            minus = None  # the factor of the rightmost unmatched minus
            for k, x in enumerate(b):
                for _ in range(factors[k].eps(x, j)):
                    if pluses:
                        pluses.pop()
                    else:
                        minus = k
                pluses.extend([k] * factors[k].phi(x, j))
            if pluses:
                k = pluses[0]
                f_arrows[(b, j)] = b[:k] + (factors[k].f_arrows[(b[k], j)],) + b[k + 1 :]
            if minus is not None:
                k = minus
                e_arrows[(b, j)] = b[:k] + (factors[k].e_arrows[(b[k], j)],) + b[k + 1 :]
    distinguished = tuple(f.distinguished for f in factors)
    graph = CrystalGraph(datum, vertices, weights, e_arrows, f_arrows, distinguished)
    graph.check()
    return graph
