"""Quantum LS paths and their affine crystal structure.

A path of shape lambda has break points and on each segment a direction:
the orbit point mu_k = x_k(lambda) of some x_k in W^J (J the stabilizer of
lambda).  Every break is a multiple of 1/L, L the lcm of the label pairings
<alpha^vee, lambda>, so a path holds its breaks as integers over L; they
become fractions only at the input (`qls_path`) and in the output.
Consecutive points must be joined by a directed path in the suitably
restricted parabolic quantum Bruhat graph, read on the orbit of lambda
(`quantum_bruhat.OrbitGraph`), so no Weyl element is built: a direction
given as a Weyl word is turned into its point at the boundary, and a point
is printed as the word read off its coordinates.  This module provides
validation, a direct enumeration of QLS(lambda) from that definition (what
the characters sum over), the root operators e_j/f_j for j in the affine
index set (they reflect a window of points), the degree statistic, duality
and the Lusztig involution, the crystal graph on the enumerated QLS(lambda),
whose operator images are checked by lookup in that set, and tensor
products of crystals under the Kashiwara convention.
"""

from __future__ import annotations

import bisect
import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm

from .lie_data import (
    InputError,
    InternalError,
    RootDatum,
    Weight,
    WeylElement,
)
from .quantum_bruhat import QuantumBruhatGraph, build_qbg, orbit_graph

_parabolic_cache: dict = {}


def _parabolic_graph(datum: RootDatum, J: frozenset[int]) -> QuantumBruhatGraph:
    """QB(W^J) on Weyl elements, built once per (datum, J); only
    `correspondence.inverse` reads it, on the full graph J = {}."""
    key = (datum, J)
    if key not in _parabolic_cache:
        _parabolic_cache[key] = build_qbg(datum, J)
    return _parabolic_cache[key]


def minus_w0(datum: RootDatum, mu: Weight) -> Weight:
    """-w0(mu): the diagram automorphism omega, an involution, permutes coordinates."""
    return Weight(tuple(mu.coords[i - 1] for i in datum.weyl.omega))


@dataclass(frozen=True)
class QLSPath:
    """A validated quantum LS path; build through :func:`qls_path`.  Its
    directions are the orbit points x_k(lambda) and its breaks are cuts / L."""

    datum: RootDatum
    lam: Weight
    directions: tuple[Weight, ...]
    cuts: tuple[int, ...]
    L: int

    def __hash__(self) -> int:
        return self._hash

    @cached_property
    def _hash(self) -> int:
        return hash((self.lam, self.directions, self.cuts))

    @property
    def breaks(self) -> tuple[Fraction, ...]:
        """The break points as fractions."""
        return tuple(Fraction(c, self.L) for c in self.cuts)

    def __repr__(self) -> str:
        dirs = ", ".join("*".join(f"s{i}" for i in w) if w else "e" for w in self.words)
        cuts = ", ".join(str(b) for b in self.breaks)
        return f"({dirs}; {cuts})"

    @property
    def words(self) -> tuple[tuple[int, ...], ...]:
        """The lexicographically smallest reduced word of each x_k, read off
        mu_k: s_i is a left descent of x_k exactly when <alpha_i^vee, mu_k> < 0,
        so apply s_i at the least such i and repeat."""
        datum, out = self.datum, []
        for mu in self.directions:
            word = []
            while (i := next((i for i, c in enumerate(mu.coords) if c < 0), None)) is not None:
                word.append(i + 1)
                mu = datum.reflect(mu, datum.simple_root_index[i])
            out.append(tuple(word))
        return tuple(out)

    @cached_property
    def weight(self) -> Weight:
        """Sum over the segments of (b_{k+1} - b_k) times mu_k."""
        total = [0] * self.datum.rank
        for a, b, mu in zip(self.cuts, self.cuts[1:], self.directions):
            total = [t + (b - a) * c for t, c in zip(total, mu.coords)]
        return _integral_weight(total, self.L)

    def to_json_dict(self) -> dict:
        return {
            "directions": [list(word) for word in self.words],
            "breaks": [f"{b.numerator}/{b.denominator}" for b in self.breaks],
            "weight": list(self.weight.coords),
            "deg": deg(self),
        }


def _as_element(datum: RootDatum, x) -> WeylElement:
    if isinstance(x, WeylElement):
        return x
    word = tuple(x)
    out = datum.weyl.identity
    for i in word:
        if not 1 <= i <= datum.rank:
            raise InputError(f"node {i} outside 1..{datum.rank}")
        out = out * datum.weyl.simple[i - 1]
    return out


def qls_path(datum: RootDatum, lam: Weight, directions, breaks) -> QLSPath:
    """Validate raw direction/break data and return the path.

    A direction is an orbit point x(lambda) given as a Weight, or a minimal
    coset representative x given as a Weyl element or word.  Every pair of
    consecutive directions must be joined by a directed path in the parabolic
    graph restricted at the break between them.
    """
    graph = orbit_graph(datum, lam)  # refuses a weight that is not dominant
    dirs = tuple(x if isinstance(x, Weight) else _as_element(datum, x) for x in directions)
    if not dirs:
        raise InputError("a path needs at least one direction")
    cuts = tuple(Fraction(b) for b in breaks)
    if len(cuts) != len(dirs) + 1:
        raise InputError("break count must be direction count plus one")
    if cuts[0] != 0 or cuts[-1] != 1:
        raise InputError("breaks must start at 0 and end at 1")
    if any(a >= b for a, b in zip(cuts, cuts[1:])):
        raise InputError("breaks must be strictly increasing")
    for k, x in enumerate(dirs, start=1):
        if isinstance(x, WeylElement) and datum.weyl.min_coset_rep(x, datum.stabilizer(lam)) != x:
            raise InputError(f"direction {k} is not a minimal coset representative")
    points = tuple(x.act_weight(lam) if isinstance(x, WeylElement) else x for x in dirs)
    scale = lcm(graph.L, *(b.denominator for b in cuts))
    return grid_path(datum, lam, points, tuple(b.numerator * (scale // b.denominator) for b in cuts), scale)


def grid_path(datum: RootDatum, lam: Weight, points: tuple, cuts: tuple, scale: int = 0) -> QLSPath:
    """The path with orbit points `points` and breaks cuts / scale (scale L
    by default), checked as qls_path checks its points.  Those checks put
    every break on the grid of 1/L, over which the path keeps them."""
    graph = orbit_graph(datum, lam)
    L, scale = graph.L, scale or graph.L
    for k, mu in enumerate(points, start=1):
        if mu not in graph.index:
            raise InputError(f"direction {k} is not in the orbit of lambda")
    for k in range(1, len(points)):
        if points[k - 1] == points[k]:
            raise InputError(f"directions {k} and {k + 1} coincide")
        if not graph.reachable(points[k], points[k - 1], scale // gcd(cuts[k], scale)):
            raise InputError(
                f"segment {k}: no directed path from direction {k + 1} to "
                f"direction {k} once edges with non-integral "
                f"{Fraction(cuts[k], scale)}*<alpha^vee, lambda> are removed"
            )
    if scale != L:
        cuts = tuple(c * L // scale for c in cuts)
    return QLSPath(datum, lam, points, cuts, L)


def straight_path(datum: RootDatum, lam: Weight, x: WeylElement | None = None) -> QLSPath:
    """The single-segment path in direction x(lam) (default: lam itself)."""
    point = lam if x is None else x.act_weight(lam)
    return grid_path(datum, lam, (point,), (0, 1), 1)


def _integral_weight(total: list[int], L: int) -> Weight:
    """The weight total / L, which must be integral."""
    if any(c % L for c in total):
        raise InternalError(f"weight {tuple(Fraction(c, L) for c in total)} is not integral")
    return Weight(tuple(c // L for c in total))


def _whole(n: int, L: int, what: str) -> int:
    """n / L, which must be an integer."""
    q, r = divmod(n, L)
    if r:
        raise InternalError(f"{what} {Fraction(n, L)} is not an integer")
    return q


# --------------------------------------------------------------- enumeration


def enumerate_paths(datum: RootDatum, lam: Weight):
    """Every path of QLS(lam) once, as (points, cuts, weight, -deg), the
    breaks being cuts / L.

    The paper's definition read as a search: a path is x_1, ..., x_s in W^J
    with breaks 0 = b_0 < ... < b_s = 1, where x_{k+1} != x_k reaches x_k in
    the graph restricted at b_k.  An explicit-stack DFS from each x_1 grows
    one segment per step; every node closes at 1 into a path, so each node
    is an output.  A break b is u/v in lowest terms with v dividing a pairing
    p = <alpha^vee, lam> of a label, so b is a multiple of 1/L, and the
    breaks, the weight and -deg are carried times L.  Vertices are the orbit
    graph's indices, and its reach tables give each step.
    """
    graph = orbit_graph(datum, lam)
    L = graph.L
    # the candidate breaks a/L in increasing order, each with its denominator
    cuts = [(a, L // gcd(a, L)) for a in sorted({a * L // p for p in graph.pairings for a in range(1, p)})]
    # children[x][v]: the (y, path weight from y to x) pairs that may follow x
    # at a break of denominator v
    dens = {v for _, v in cuts}
    n = len(graph.points)
    children: list[dict[int, list]] = [{v: [] for v in dens} for _ in range(n)]
    for y in range(n):
        gcds, weights = graph.reach(y)
        for x, g in enumerate(gcds):
            if x != y:
                for v in dens:
                    if g % v == 0:
                        children[x][v].append((y, weights[x]))
    points = graph.points
    zero = (0,) * datum.rank
    stack = [(x, 0, zero, 0, (points[x],), (0,)) for x in range(n)]
    while stack:
        x, start, wt, neg_deg, path, breaks = stack.pop()
        mu = points[x].coords
        weight = _integral_weight([c + (L - start) * m for c, m in zip(wt, mu)], L)
        yield path, breaks + (L,), weight, -_whole(-neg_deg, L, "degree")
        for a, v in reversed(cuts):
            if a <= start:
                break
            grown = tuple(c + (a - start) * m for c, m in zip(wt, mu))
            for y, w in children[x][v]:
                stack.append((y, a, grown, neg_deg + (L - a) * w, path + (points[y],), breaks + (a,)))


# ----------------------------------------------------------------- operators


def _h_breaks(eta: QLSPath, j: int) -> list[int]:
    """L times the values of <alpha_tilde_j^vee, eta(t)> at the break points."""
    datum = eta.datum
    root, sign = datum.affine_root(j)
    coroot = datum.positive_coroots[root]
    vals, cuts = [0], eta.cuts
    for k, mu in enumerate(eta.directions):
        vals.append(vals[-1] + (cuts[k + 1] - cuts[k]) * sign * datum.pairing(coroot, mu))
    return vals


def _checked_minimum(vals: list[int], L: int) -> int:
    """The global minimum of H, after asserting every local minimum is
    integral: vals are L times H, so L must divide them."""
    runs = [v for v, _ in itertools.groupby(vals)]
    for i, v in enumerate(runs):
        left_up = i == 0 or runs[i - 1] > v
        right_up = i == len(runs) - 1 or runs[i + 1] > v
        if left_up and right_up and v % L:
            raise InternalError(f"local minimum {Fraction(v, L)} of H is not an integer")
    m = min(vals)
    if m % L or m > 0:
        raise InternalError(f"minimum {Fraction(m, L)} of H must be a nonpositive integer")
    return m // L


def _reach(vals, cuts, target, i: int, step: int) -> int:
    """The cut nearest cuts[i], scanning from it by step (+1 forwards, -1
    backwards), where H * L == target; H is linear between breaks, and a
    level it crosses between them must be crossed on the grid of 1/L."""
    while 0 <= i < len(vals):
        if vals[i] == target:
            return cuts[i]
        k = i + step
        if 0 <= k < len(vals) and min(vals[i], vals[k]) < target < max(vals[i], vals[k]):
            t, off = divmod((target - vals[i]) * (cuts[k] - cuts[i]), vals[k] - vals[i])
            if off:
                raise InternalError("H crosses the requested level between two points of the grid")
            return cuts[i] + t
        i = k
    raise InternalError("H never attains the requested level")


def _window(eta: QLSPath, j: int, vals: list[int], m: int, raising: bool):
    """Littelmann's window rule for e_j (raising) or f_j: the image's
    (points, cuts), or None when the operator is undefined.

    vals are L times H_j = <alpha_tilde_j^vee, eta(t)> at the breaks and m
    the checked minimum of H_j.  Scan from the first place H_j = m backwards
    (e_j) or from the last one forwards (f_j) to the nearest place where
    H_j = m + 1; the image reflects the window between them by s_j, and
    equal neighbouring points merge.  The operator is undefined when H_j
    stays below m + 1 all the way to t = 0 (e_j) or t = 1 (f_j).
    """
    low, high = m * eta.L, (m + 1) * eta.L
    if (vals[0] if raising else vals[-1]) < high:
        return None
    minima = [k for k, v in enumerate(vals) if v == low]
    anchor, step = (minima[0], -1) if raising else (minima[-1], 1)
    dirs, breaks = eta.directions, eta.cuts
    t0, t1 = sorted((breaks[anchor], _reach(vals, breaks, high, anchor, step)))
    datum = eta.datum
    root, _ = datum.affine_root(j)
    # segment i0 holds t0 and segment i1 - 1 holds t1
    i0 = bisect.bisect_right(breaks, t0) - 1
    i1 = bisect.bisect_left(breaks, t1)
    pieces = [(dirs[k], breaks[k + 1]) for k in range(i0)]
    if breaks[i0] < t0:
        pieces.append((dirs[i0], t0))
    pieces += [(datum.reflect(dirs[k], root), breaks[k + 1]) for k in range(i0, i1 - 1)]
    pieces.append((datum.reflect(dirs[i1 - 1], root), t1))
    if t1 < breaks[i1]:
        pieces.append((dirs[i1 - 1], breaks[i1]))
    pieces += [(dirs[k], breaks[k + 1]) for k in range(i1, len(dirs))]
    points: list[Weight] = []
    cuts = [breaks[0]]
    for d, end in pieces:
        if points and points[-1] == d:
            cuts[-1] = end
        else:
            points.append(d)
            cuts.append(end)
    return tuple(points), tuple(cuts)


def _root_operator(eta: QLSPath, j: int, raising: bool) -> QLSPath | None:
    """Littelmann's root operator e_j (raising) or f_j on any path, or None
    when undefined; the image is validated from scratch."""
    vals = _h_breaks(eta, j)
    image = _window(eta, j, vals, _checked_minimum(vals, eta.L), raising)
    if image is None:
        return None
    try:
        new = grid_path(eta.datum, eta.lam, *image)
    except InputError as exc:
        raise InternalError(f"root operator produced an invalid path: {exc}") from exc
    alpha = eta.datum.affine_root_weight(j)
    if new.weight != (eta.weight + alpha if raising else eta.weight - alpha):
        kind = "raising" if raising else "lowering"
        raise InternalError(f"{kind} operator moved the weight incorrectly")
    return new


def e_operator(eta: QLSPath, j: int) -> QLSPath | None:
    """Raising operator for the affine label j, or None when undefined."""
    return _root_operator(eta, j, raising=True)


def f_operator(eta: QLSPath, j: int) -> QLSPath | None:
    """Lowering operator for the affine label j, or None when undefined."""
    return _root_operator(eta, j, raising=False)


def epsilon(eta: QLSPath, j: int) -> int:
    """Number of times the raising operator applies: minus the minimum of H_j."""
    return -_checked_minimum(_h_breaks(eta, j), eta.L)


def phi(eta: QLSPath, j: int) -> int:
    """Number of times the lowering operator applies: H_j(1) minus its minimum."""
    vals = _h_breaks(eta, j)
    return _whole(vals[-1], eta.L, "H(1) =") - _checked_minimum(vals, eta.L)


# -------------------------------------------------------------------- degree


def deg(eta: QLSPath) -> int:
    """Degree: minus the sum of (1 - b_k) times the segment path weights."""
    graph = orbit_graph(eta.datum, eta.lam)
    points, cuts = eta.directions, eta.cuts
    total = -sum((eta.L - cuts[k]) * graph.path_weight(points[k], points[k - 1]) for k in range(1, len(points)))
    return _whole(total, eta.L, "degree")


# ------------------------------------------------------ duality and Lusztig S


def dual(eta: QLSPath) -> QLSPath:
    """Reverse the path and translate its endpoint to the origin: shape
    -w0(lambda), points -mu_k in reverse order."""
    dirs = tuple(-mu for mu in reversed(eta.directions))
    cuts = tuple(eta.L - c for c in reversed(eta.cuts))
    return grid_path(eta.datum, minus_w0(eta.datum, eta.lam), dirs, cuts, eta.L)


def omega(eta: QLSPath) -> QLSPath:
    """Apply the diagram automorphism: every point mu goes to -w0(mu)."""
    datum = eta.datum
    dirs = tuple(minus_w0(datum, mu) for mu in eta.directions)
    return grid_path(datum, minus_w0(datum, eta.lam), dirs, eta.cuts, eta.L)


def lusztig_S(eta: QLSPath) -> QLSPath:
    """The Lusztig involution: apply the longest element and reverse."""
    datum = eta.datum
    dirs = tuple(-minus_w0(datum, mu) for mu in reversed(eta.directions))
    cuts = tuple(eta.L - c for c in reversed(eta.cuts))
    return grid_path(datum, eta.lam, dirs, cuts, eta.L)


# ------------------------------------------------------------------- crystals


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

    def _indexed_arrows(self) -> list[tuple[int, int, int]]:
        """The f-arrows as (source index, label, target index), sorted."""
        index = {v: i for i, v in enumerate(self.vertices)}
        return sorted((index[v], j, index[w]) for (v, j), w in self.f_arrows.items())

    def to_dot(self) -> str:
        palette = ("red", "blue", "forestgreen", "orange", "purple", "brown", "cyan", "magenta")
        lines = ["digraph crystal {"]
        lines += [f'  n{i} [label="{v!r}"];' for i, v in enumerate(self.vertices)]
        for i, j, k in self._indexed_arrows():
            lines.append(f'  n{i} -> n{k} [label="{j}", color={palette[j % len(palette)]}];')
        lines.append("}")
        return "\n".join(lines)

    def to_json_dict(self) -> dict:
        return {
            "vertices": [
                {"index": i, "label": repr(v), "weight": list(self.weights[v].coords)}
                for i, v in enumerate(self.vertices)
            ],
            "arrows": [{"j": j, "source": i, "target": k} for i, j, k in self._indexed_arrows()],
            "distinguished": self.vertices.index(self.distinguished),
            "connected": self.is_connected(),
        }


def build_crystal(datum: RootDatum, lam: Weight) -> CrystalGraph:
    """The crystal on QLS(lam) under Littelmann's root operators.

    The vertices are the paths from enumerate_paths, with its integral
    weights.  At every (vertex, label) one H_j and its checked minimum give
    both e_j and f_j, and each image must be an enumerated path: the rule
    qls_path applies, since it and the enumeration both read the orbit
    graph's reach tables.  Vertices are ordered by a BFS from the straight
    path over the arrows in (label, e then f) order, which must reach every
    enumerated path.
    """
    L = orbit_graph(datum, lam).L
    table, weights = {}, {}
    for points, cuts, weight, _ in enumerate_paths(datum, lam):
        eta = table[(points, cuts)] = QLSPath(datum, lam, points, cuts, L)
        weights[eta] = weight
    start = table[((lam,), (0, L))]
    order, seen = [start], {start}
    e_arrows, f_arrows = {}, {}
    for v in order:  # order grows as the BFS finds vertices
        for j in range(datum.rank + 1):
            vals = _h_breaks(v, j)
            m = _checked_minimum(vals, L)
            for arrows, raising in ((e_arrows, True), (f_arrows, False)):
                image = _window(v, j, vals, m, raising)
                if image is None:
                    continue
                w = table.get(image)
                if w is None:
                    op = "e" if raising else "f"
                    raise InternalError(
                        f"root operator produced an invalid path: {op}_{j} of {v!r} "
                        f"is not in QLS(lambda)"
                    )
                arrows[(v, j)] = w
                if w not in seen:
                    seen.add(w)
                    order.append(w)
    if len(order) != len(table):
        raise InternalError(
            f"the root operators reach {len(order)} of the {len(table)} paths of QLS(lambda)"
        )
    graph = CrystalGraph(datum, order, weights, e_arrows, f_arrows, start)
    graph.check()
    return graph


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
