"""Quantum LS paths and their affine crystal structure.

A path of shape lambda has rational break points and on each segment a
direction: the orbit point mu_k = x_k(lambda) of some x_k in W^J (J the
stabilizer of lambda).  Consecutive points must be joined by a directed path
in the suitably restricted parabolic quantum Bruhat graph, which is read on
the orbit of lambda (`quantum_bruhat.OrbitGraph`), so no Weyl element is
built: a direction given as a Weyl word is turned into its point at the
boundary, and a point is printed as the word read off its coordinates.  This
module provides validation, a direct enumeration of QLS(lambda) from that
definition (what the characters sum over), the root operators e_j/f_j for j
in the affine index set (they reflect a window of points), the degree
statistic, duality and the Lusztig involution, the crystal graph on the
enumerated QLS(lambda), whose operator images are checked by lookup in that
set, and tensor products of crystals under the Kashiwara convention.
"""

from __future__ import annotations

import bisect
import itertools
import math
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

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
    directions are the orbit points x_k(lambda)."""

    datum: RootDatum
    lam: Weight
    directions: tuple[Weight, ...]
    breaks: tuple[Fraction, ...]

    def __hash__(self) -> int:
        return self._hash

    @cached_property
    def _hash(self) -> int:
        return hash((self.lam, self.directions, self.breaks))

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
        total = [Fraction(0)] * self.datum.rank
        for k, mu in enumerate(self.directions):
            seg = self.breaks[k + 1] - self.breaks[k]
            for i, c in enumerate(mu.coords):
                total[i] += seg * c
        if any(c.denominator != 1 for c in total):
            raise InternalError(f"weight {tuple(total)} is not integral")
        return Weight(tuple(int(c) for c in total))

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
    if not datum.is_dominant(lam):
        raise InputError(f"weight {lam.coords} is not dominant")
    J = datum.stabilizer(lam)
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
    graph = orbit_graph(datum, lam)
    points = []
    for k, x in enumerate(dirs, start=1):
        if isinstance(x, WeylElement):
            if datum.weyl.min_coset_rep(x, J) != x:
                raise InputError(f"direction {k} is not a minimal coset representative")
            x = x.act_weight(lam)
        if x not in graph.index:
            raise InputError(f"direction {k} is not in the orbit of lambda")
        points.append(x)
    for k in range(1, len(points)):
        if points[k - 1] == points[k]:
            raise InputError(f"directions {k} and {k + 1} coincide")
        if not graph.reachable(points[k], points[k - 1], cuts[k]):
            raise InputError(
                f"segment {k}: no directed path from direction {k + 1} to "
                f"direction {k} once edges with non-integral "
                f"{cuts[k]}*<alpha^vee, lambda> are removed"
            )
    return QLSPath(datum, lam, tuple(points), cuts)


def straight_path(datum: RootDatum, lam: Weight, x: WeylElement | None = None) -> QLSPath:
    """The single-segment path in direction x(lam) (default: lam itself)."""
    point = lam if x is None else x.act_weight(lam)
    return qls_path(datum, lam, (point,), (Fraction(0), Fraction(1)))


# --------------------------------------------------------------- enumeration


def enumerate_paths(datum: RootDatum, lam: Weight):
    """Every path of QLS(lam) once, as (points, breaks, weight, -deg).

    The paper's definition read as a search: a path is x_1, ..., x_s in W^J
    with breaks 0 = b_0 < ... < b_s = 1, where x_{k+1} != x_k reaches x_k in
    the graph restricted at b_k.  An explicit-stack DFS from each x_1 grows
    one segment per step; every node closes at 1 into a path, so each node
    is an output.  A break b is u/v in lowest terms with v dividing a pairing
    p = <alpha^vee, lam> of a label, so breaks are kept as integers over the
    lcm L of those p, and the weight and -deg are carried times L.  Vertices
    are the orbit graph's indices, and its reach tables give each step.
    """
    graph = orbit_graph(datum, lam)
    L = math.lcm(*graph.pairings)
    # the candidate breaks a/L in increasing order, each with its denominator
    candidates = sorted({a * L // p for p in graph.pairings for a in range(1, p)})
    cuts = [(a, Fraction(a, L), L // math.gcd(a, L)) for a in candidates]
    # children[x][v]: the (y, path weight from y to x) pairs that may follow x
    # at a break of denominator v
    dens = {v for _, _, v in cuts}
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
    one = Fraction(1)
    stack = [(x, 0, zero, 0, (points[x],), (Fraction(0),)) for x in range(n)]
    while stack:
        x, start, wt, neg_deg, path, breaks = stack.pop()
        mu = points[x].coords
        total = tuple(c + (L - start) * m for c, m in zip(wt, mu))
        if any(c % L for c in total):
            raise InternalError(f"weight {tuple(Fraction(c, L) for c in total)} is not integral")
        if neg_deg % L:
            raise InternalError(f"degree {Fraction(-neg_deg, L)} is not an integer")
        yield path, breaks + (one,), Weight(tuple(c // L for c in total)), neg_deg // L
        for a, b, v in reversed(cuts):
            if a <= start:
                break
            grown = tuple(c + (a - start) * m for c, m in zip(wt, mu))
            for y, w in children[x][v]:
                stack.append((y, a, grown, neg_deg + (L - a) * w, path + (points[y],), breaks + (b,)))


# ----------------------------------------------------------------- operators


def _h_breaks(eta: QLSPath, j: int) -> list[Fraction]:
    """Values of <alpha_tilde_j^vee, eta(t)> at the break points."""
    datum = eta.datum
    root, sign = datum.affine_root(j)
    coroot = datum.positive_coroots[root]
    vals = [Fraction(0)]
    for k, mu in enumerate(eta.directions):
        step = sign * datum.pairing(coroot, mu)
        vals.append(vals[-1] + (eta.breaks[k + 1] - eta.breaks[k]) * step)
    return vals


def _checked_minimum(vals: list[Fraction]) -> int:
    """The global minimum, after asserting every local minimum is integral."""
    runs = [v for v, _ in itertools.groupby(vals)]
    for i, v in enumerate(runs):
        left_up = i == 0 or runs[i - 1] > v
        right_up = i == len(runs) - 1 or runs[i + 1] > v
        if left_up and right_up and v.denominator != 1:
            raise InternalError(f"local minimum {v} of H is not an integer")
    m = min(vals)
    if m.denominator != 1 or m > 0:
        raise InternalError(f"minimum {m} of H must be a nonpositive integer")
    return int(m)


def _reach(vals, breaks, target, i: int, step: int) -> Fraction:
    """The t nearest breaks[i], scanning from it by step (+1 forwards, -1
    backwards), with H(t) == target; H is linear between breaks."""
    while 0 <= i < len(vals):
        if vals[i] == target:
            return breaks[i]
        k = i + step
        if 0 <= k < len(vals) and min(vals[i], vals[k]) < target < max(vals[i], vals[k]):
            return breaks[i] + (target - vals[i]) * (breaks[k] - breaks[i]) / (vals[k] - vals[i])
        i = k
    raise InternalError("H never attains the requested level")


def _window(eta: QLSPath, j: int, vals: list[Fraction], m: int, raising: bool):
    """Littelmann's window rule for e_j (raising) or f_j: the image's
    (points, breaks), or None when the operator is undefined.

    vals are H_j = <alpha_tilde_j^vee, eta(t)> at the breaks and m their
    checked minimum.  Scan from the first place H_j = m backwards (e_j) or
    from the last one forwards (f_j) to the nearest place where H_j = m + 1;
    the image reflects the window between them by s_j, and equal neighbouring
    points merge.  The operator is undefined when H_j stays below m + 1 all
    the way to t = 0 (e_j) or t = 1 (f_j).
    """
    if (vals[0] if raising else vals[-1]) < m + 1:
        return None
    minima = [k for k, v in enumerate(vals) if v == m]
    anchor, step = (minima[0], -1) if raising else (minima[-1], 1)
    t0, t1 = sorted((eta.breaks[anchor], _reach(vals, eta.breaks, Fraction(m + 1), anchor, step)))
    datum = eta.datum
    root, _ = datum.affine_root(j)
    dirs, breaks = eta.directions, eta.breaks
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
    image = _window(eta, j, vals, _checked_minimum(vals), raising)
    if image is None:
        return None
    try:
        new = qls_path(eta.datum, eta.lam, *image)
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
    return -_checked_minimum(_h_breaks(eta, j))


def phi(eta: QLSPath, j: int) -> int:
    """Number of times the lowering operator applies: H_j(1) minus its minimum."""
    vals = _h_breaks(eta, j)
    if vals[-1].denominator != 1:
        raise InternalError(f"H(1) = {vals[-1]} is not an integer")
    return vals[-1].numerator - _checked_minimum(vals)


# -------------------------------------------------------------------- degree


def deg(eta: QLSPath) -> int:
    """Degree: minus the sum of (1 - b_k) times the segment path weights."""
    graph = orbit_graph(eta.datum, eta.lam)
    points = eta.directions
    total = Fraction(0)
    for k in range(1, len(points)):
        total -= (1 - eta.breaks[k]) * graph.path_weight(points[k], points[k - 1])
    if total.denominator != 1:
        raise InternalError(f"degree {total} is not an integer")
    return int(total)


# ------------------------------------------------------ duality and Lusztig S


def dual(eta: QLSPath) -> QLSPath:
    """Reverse the path and translate its endpoint to the origin: shape
    -w0(lambda), points -mu_k in reverse order."""
    dirs = tuple(-mu for mu in reversed(eta.directions))
    cuts = tuple(1 - b for b in reversed(eta.breaks))
    return qls_path(eta.datum, minus_w0(eta.datum, eta.lam), dirs, cuts)


def omega(eta: QLSPath) -> QLSPath:
    """Apply the diagram automorphism: every point mu goes to -w0(mu)."""
    datum = eta.datum
    dirs = tuple(minus_w0(datum, mu) for mu in eta.directions)
    return qls_path(datum, minus_w0(datum, eta.lam), dirs, eta.breaks)


def lusztig_S(eta: QLSPath) -> QLSPath:
    """The Lusztig involution: apply the longest element and reverse."""
    datum = eta.datum
    dirs = tuple(-minus_w0(datum, mu) for mu in reversed(eta.directions))
    cuts = tuple(1 - b for b in reversed(eta.breaks))
    return qls_path(datum, eta.lam, dirs, cuts)


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
        if not self.vertices:
            return True
        neighbours: dict = {v: [] for v in self.vertices}
        for (v, _), w in itertools.chain(self.e_arrows.items(), self.f_arrows.items()):
            neighbours[v].append(w)
            neighbours[w].append(v)
        seen = {self.vertices[0]}
        queue = deque(seen)
        while queue:
            v = queue.popleft()
            for w in neighbours[v]:
                if w not in seen:
                    seen.add(w)
                    queue.append(w)
        return len(seen) == len(self.vertices)

    def to_dot(self) -> str:
        palette = ("red", "blue", "forestgreen", "orange", "purple", "brown", "cyan", "magenta")
        index = {v: i for i, v in enumerate(self.vertices)}
        lines = ["digraph crystal {"]
        for v in self.vertices:
            lines.append(f'  n{index[v]} [label="{v!r}"];')
        for (v, j), w in sorted(self.f_arrows.items(), key=lambda kv: (index[kv[0][0]], kv[0][1])):
            colour = palette[j % len(palette)]
            lines.append(f'  n{index[v]} -> n{index[w]} [label="{j}", color={colour}];')
        lines.append("}")
        return "\n".join(lines)

    def to_json_dict(self) -> dict:
        index = {v: i for i, v in enumerate(self.vertices)}
        return {
            "vertices": [
                {"index": i, "label": repr(v), "weight": list(self.weights[v].coords)}
                for i, v in enumerate(self.vertices)
            ],
            "arrows": [
                {"j": j, "source": index[v], "target": index[w]}
                for (v, j), w in sorted(
                    self.f_arrows.items(), key=lambda kv: (index[kv[0][0]], kv[0][1])
                )
            ],
            "distinguished": index[self.distinguished],
            "connected": self.is_connected(),
        }


def build_crystal(datum: RootDatum, lam: Weight) -> CrystalGraph:
    """The crystal on QLS(lam) under Littelmann's root operators.

    The vertices are the paths from enumerate_paths, with its integral
    weights.  At every (vertex, label) one H_j and its checked minimum give
    both e_j and f_j, and each image must be an enumerated path: the rule
    qls_path applies, since it and the enumeration both read the orbit
    graph's reach tables.  Vertices
    are ordered by a BFS from the straight path over the arrows in (label,
    e then f) order, which must reach every enumerated path.
    """
    table: dict = {}
    weights: dict = {}
    for points, breaks, weight, _ in enumerate_paths(datum, lam):
        eta = table[(points, breaks)] = QLSPath(datum, lam, points, breaks)
        weights[eta] = weight
    start = table[((lam,), (Fraction(0), Fraction(1)))]
    order = [start]
    seen = {start}
    e_arrows: dict = {}
    f_arrows: dict = {}
    for v in order:  # order grows as the BFS finds vertices
        for j in range(datum.rank + 1):
            vals = _h_breaks(v, j)
            m = _checked_minimum(vals)
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
