"""Finite affine crystals as index arrays, and their tensor products.

Both models build a `CrystalGraph`: `qls_model.build_crystal` on quantum LS
paths and `alcove_model.build_crystal` on admissible subsets.  A crystal
names its vertices by index and stores, per affine label, the e_j and f_j
targets as index arrays; its weights are integer keys under a
`WeightPacking`, so the weight check along arrows and the weights of a
tensor product (`tensor`, by the signature rule) are integer arithmetic.
The alcove walk (`LambdaChain.packing`) and the QLS character pack their
weights the same way, so only `WeightPacking` reads or writes the digits.
"""

from __future__ import annotations

import itertools
from functools import cached_property
from math import prod
from operator import mul
from types import MappingProxyType

from .lie_data import InputError, InternalError, RootDatum, Weight


class WeightPacking:
    """Weights whose coordinates lie in [-bound, bound], as the integers
    sum_i c_i base^i: balanced digits in [-half, half], base = 2 half + 1,
    and half = bound plus the largest |coordinate| of an affine simple root.

    The digits make the packing injective and linear on [-half, half]^rank,
    so a key minus the key of alpha-tilde_j (`steps[j]`) is the key of the
    weight minus alpha-tilde_j, and a sum of keys under a packing with the
    summed bounds is the key of the summed weights.  `pack` refuses a
    coordinate past bound rather than alias it.  A key plus t * `carry`
    holds t in the digits past the last coordinate; `split` reads both
    parts, and `unpack` refuses a key with t != 0.
    """

    def __init__(self, datum: RootDatum, bound: int):
        self.bound = bound
        alphas = datum.affine_root_weights
        self.half = bound + max(abs(c) for alpha in alphas for c in alpha)
        self.base = 2 * self.half + 1
        self._powers = tuple(self.base**i for i in range(datum.rank))
        self.carry = self.base**datum.rank
        # adding half to every digit makes them the nonnegative digits of base
        self._lift = self.half * sum(self._powers)
        self.steps = tuple(map(self.linear, alphas))

    def linear(self, coords) -> int:
        """sum_i c_i base^i with no range check, as for a root step."""
        return sum(map(mul, coords, self._powers))

    def pack(self, coords) -> int:
        """The key of a weight's coordinates."""
        if any(not -self.bound <= c <= self.bound for c in coords):
            raise InternalError(f"weight {tuple(coords)} lies outside the packing range +-{self.bound}")
        return self.linear(coords)

    def split(self, key: int) -> tuple[int, tuple[int, ...]]:
        """(t, coordinates) with key = t * carry + the key of the coordinates."""
        lifted, half, base = key + self._lift, self.half, self.base
        return lifted // self.carry, tuple([lifted // p % base - half for p in self._powers])

    def unpack(self, key: int) -> Weight:
        """The weight a key holds."""
        past, coords = self.split(key)
        if past:
            raise InternalError("weight key has digits past its last coordinate")
        return Weight(coords)


def shape_packing(datum: RootDatum, lam: Weight) -> WeightPacking:
    """The packing of a crystal of shape lambda.  Its weights lie in
    conv(W lambda), and <alpha_i^vee, w(lambda)> = <w^-1(alpha_i^vee), lambda>,
    so every coordinate is bounded by the largest pairing of a coroot with
    lambda.  The highest coroot (`RootDatum.highest_coroot`) attains it for
    every dominant lambda, so the bound is additive: a tensor product of
    crystals whose shapes sum to lambda packs as the crystal of lambda does."""
    return WeightPacking(datum, datum.pairing_index(datum.highest_coroot, lam))


class CrystalGraph:
    """Finite crystal with arrows for every affine label, stored as index arrays.

    Vertices are opaque hashable model elements, named elsewhere by their index i in `vertices`:
    e[j][i] and f[j][i] are the indices of e_j and f_j of vertex i (-1 where
    undefined), eps[j][i] and phi[j][i] its string lengths, keys[i] its
    weight packed by `packing`, a `WeightPacking`; `weight_of` unpacks the
    weights on every read.  `e_arrows`, `f_arrows` (keyed by
    (vertex, label)), `weights` and `index` are read-only dict views.
    """

    def __init__(self, datum, vertices, keys, e, f, distinguished: int, packing: WeightPacking):
        self.datum = datum
        self.vertices = tuple(vertices)
        self.keys = keys
        self.packing = packing
        self.e = e
        self.f = f
        self.distinguished = distinguished
        self.labels = tuple(range(datum.rank + 1))

    @property
    def weight_of(self) -> list[Weight]:
        return [self.packing.unpack(k) for k in self.keys]

    def keys_in(self, packing: WeightPacking) -> list[int]:
        """The weight keys under another packing of the same datum whose
        bound is at least this one's: `keys` itself when the bounds agree."""
        if packing.bound == self.packing.bound:
            return self.keys
        return [packing.pack(self.packing.unpack(k).coords) for k in self.keys]

    @cached_property
    def eps(self) -> list[list[int]]:
        return [_positions_on_strings(self.e[j], self.f[j]) for j in self.labels]

    @cached_property
    def phi(self) -> list[list[int]]:
        return [_positions_on_strings(self.f[j], self.e[j]) for j in self.labels]

    @cached_property
    def index(self) -> MappingProxyType:
        return MappingProxyType({v: i for i, v in enumerate(self.vertices)})

    @cached_property
    def weights(self) -> MappingProxyType:
        return MappingProxyType(dict(zip(self.vertices, self.weight_of)))

    @cached_property
    def e_arrows(self) -> MappingProxyType:
        return self._arrow_view(self.e)

    @cached_property
    def f_arrows(self) -> MappingProxyType:
        return self._arrow_view(self.f)

    def _arrow_view(self, targets: list[list[int]]) -> MappingProxyType:
        vs = self.vertices
        return MappingProxyType({(vs[i], j): vs[k] for i, j, k in self._arrows(targets)})

    def _arrows(self, targets: list[list[int]]):
        """The arrows as (source, label, target) indices, in (source, label) order."""
        for i in range(len(self.vertices)):
            for j in self.labels:
                if (k := targets[j][i]) >= 0:
                    yield i, j, k

    def check(self) -> None:
        """Assert arrow-reversibility and weight consistency along arrows."""
        keys = self.keys
        for j in self.labels:
            e, f, step = self.e[j], self.f[j], self.packing.steps[j]
            for v, w in enumerate(f):
                if w < 0:
                    continue
                if e[w] != v:
                    raise InternalError(f"f then e is not the identity at label {j}")
                if keys[w] != keys[v] - step:
                    raise InternalError(f"weight step along an f-arrow at label {j} is wrong")
            # e inverts f on the image of f; as many e- as f-arrows means e
            # is defined nowhere else, so f inverts e too
            if e.count(-1) != f.count(-1):
                raise InternalError(f"e then f is not the identity at label {j}")

    def is_connected(self) -> bool:
        """Whether a search along e- and f-arrows from vertex 0 reaches every
        vertex; since e_j and f_j are inverse, that ignores arrow direction."""
        steps = self.e + self.f
        seen = bytearray(len(self.vertices))
        seen[0] = 1
        queue = [0]
        for v in queue:  # queue grows as the search finds vertices
            for step in steps:
                w = step[v]
                if w >= 0 and not seen[w]:
                    seen[w] = 1
                    queue.append(w)
        return len(queue) == len(self.vertices)

    def to_dot(self) -> str:
        palette = ("red", "blue", "forestgreen", "orange", "purple", "brown", "cyan", "magenta")
        lines = ["digraph crystal {"]
        lines += [f'  n{i} [label="{v!r}"];' for i, v in enumerate(self.vertices)]
        for i, j, k in self._arrows(self.f):
            lines.append(f'  n{i} -> n{k} [label="{j}", color={palette[j % len(palette)]}];')
        lines.append("}")
        return "\n".join(lines)

    def to_json_dict(self) -> dict:
        return {
            "vertices": [
                {"index": i, "label": repr(v), "weight": list(w.coords)}
                for i, (v, w) in enumerate(zip(self.vertices, self.weight_of))
            ],
            "arrows": [{"j": j, "source": i, "target": k} for i, j, k in self._arrows(self.f)],
            "distinguished": self.distinguished,
            "connected": self.is_connected(),
        }


def _positions_on_strings(back: list[int], forth: list[int]) -> list[int]:
    """Each index's distance from the start of its string, in one pass along
    the strings: walk `forth` from every index where `back` is undefined.
    With back = e_j and forth = f_j that is eps_j; swapped, phi_j."""
    out = [0] * len(forth)
    for i, b in enumerate(back):
        if b < 0:
            n = 0
            while (i := forth[i]) >= 0:
                n += 1
                out[i] = n
    return out


def tensor(*factors: CrystalGraph) -> CrystalGraph:
    """Tensor product under the Kashiwara convention, by the signature rule.

    For the label j, factor k writes eps_j minus signs, then phi_j plus signs.
    Reading left to right, each minus cancels the nearest unmatched plus
    before it.  f_j acts on the factor of the leftmost unmatched plus and e_j
    on the factor of the rightmost unmatched minus; either is undefined when
    no such sign is left.  On two factors, f_j acts on the left one exactly
    when phi_j(left) > eps_j(right).

    Vertex b of the product is the b-th tuple in itertools.product order, so
    its index is the sum of x_k * stride_k over its factor indices x_k, and
    an arrow of factor k moves the index by (target - x_k) * stride_k.
    """
    if len(factors) < 2:
        raise InputError("a tensor product needs at least two factors")
    datum = factors[0].datum
    if any(g.datum is not datum for g in factors[1:]):
        raise InputError("all factors must share one root datum")
    strides = [prod(len(g.vertices) for g in factors[k + 1 :]) for k in range(len(factors))]
    # a product weight sums the factors' weights, so its key sums their keys
    # under a packing with the summed bounds
    packing = WeightPacking(datum, sum(g.packing.bound for g in factors))
    keys = [0]
    for g in factors:
        factor_keys = g.keys_in(packing)
        keys = [w + x for w in keys for x in factor_keys]
    n = len(keys)
    e, f = [], []
    for j in factors[0].labels:
        # per factor and vertex x: (eps_j, phi_j, index shift of e_j, of f_j)
        columns = []
        for g, s in zip(factors, strides):
            rows = enumerate(zip(g.eps[j], g.phi[j], g.e[j], g.f[j]))
            columns.append([(a, b, (u - x) * s, (d - x) * s) for x, (a, b, u, d) in rows])
        e_j, f_j = [-1] * n, [-1] * n
        for b, signs in enumerate(itertools.product(*columns)):
            pluses, up, down = 0, None, None  # unmatched pluses; the shifts of e_j and f_j
            for eps, phi, de, df in signs:
                if eps < pluses:
                    pluses += phi - eps
                    continue
                if eps > pluses:
                    up = de  # this factor holds the rightmost unmatched minus so far
                pluses = phi  # every earlier plus is matched
                if phi:
                    down = df  # this factor holds the leftmost unmatched plus
            if pluses:
                f_j[b] = b + down
            if up is not None:
                e_j[b] = b + up
        e.append(e_j)
        f.append(f_j)
    distinguished = sum(g.distinguished * s for g, s in zip(factors, strides))
    vertices = itertools.product(*(g.vertices for g in factors))
    graph = CrystalGraph(datum, vertices, keys, e, f, distinguished, packing)
    graph.check()
    return graph
