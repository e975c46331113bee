"""Quantum LS paths and their affine crystal structure.

A path of shape lambda has break points and on each segment a direction:
the orbit point mu_k = x_k(lambda) of some x_k in W^J (J the stabilizer of
lambda).  Every break is a multiple of 1/L, L the lcm of the label pairings
<alpha^vee, lambda>, so a path holds its breaks as integers over L; they
become fractions only at the input (`qls_path`) and in the output.
Consecutive points must be joined by a directed path in the suitably
restricted parabolic quantum Bruhat graph, read on the orbit of lambda
(`quantum_bruhat.OrbitGraph`), so no Weyl element is built.  A path holds
each point as its index in that graph: the operators read the graph's
pairing and reflection tables, duality and the Lusztig involution its
negation and -w0 tables, validation and the degree its searches of the
subgraph restricted at each break.  A direction given as a Weight or a word
of nodes is turned into its index at the boundary, a word read on weights,
and a point is printed as the word read off its coordinates.

This module provides validation, the followers of each point at each break
(`break_children`, which the QLS character sums over), a direct enumeration
of QLS(lambda) from that definition, the root operators e_j/f_j for j in the
affine index set (they reflect a window of points), the degree statistic,
duality and the Lusztig involution, and the crystal graph
(`crystal.CrystalGraph`) on the enumerated QLS(lambda), whose operator
images are checked by lookup in that set.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import accumulate, groupby
from math import gcd, lcm
from operator import mul, sub

from .lie_data import InputError, InternalError, RootDatum, Vector, Weight
from .crystal import CrystalGraph, shape_packing
from .quantum_bruhat import OrbitGraph, QuantumBruhatGraph, build_qbg, orbit_graph

_parabolic_cache: dict = {}


def _parabolic_graph(datum: RootDatum, J: frozenset[int]) -> QuantumBruhatGraph:
    """QB(W^J) on Weyl elements, built once per (datum, J); kept only for
    the benchmark replay, which times it as `quantum_bruhat.qbg_*`."""
    key = (datum, J)
    if key not in _parabolic_cache:
        _parabolic_cache[key] = build_qbg(datum, J)
    return _parabolic_cache[key]


@dataclass(frozen=True)
class QLSPath:
    """A validated quantum LS path; build through :func:`qls_path`.  Its
    points are the indices of the orbit points x_k(lambda) in `graph`, the
    orbit graph of lambda, and its breaks are cuts / L."""

    graph: OrbitGraph
    points: tuple[int, ...]
    cuts: tuple[int, ...]

    @property
    def datum(self) -> RootDatum:
        return self.graph.datum

    @property
    def lam(self) -> Weight:
        return self.graph.lam

    @property
    def L(self) -> int:
        return self.graph.L

    @property
    def directions(self) -> tuple[Weight, ...]:
        """The orbit points x_k(lambda) as weights."""
        return tuple(self.graph.points[n] for n in self.points)

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
        mu_k by `RootDatum.dominant_word`."""
        return tuple(self.datum.dominant_word(mu.coords)[0] for mu in self.directions)

    @cached_property
    def weight(self) -> Weight:
        """Sum over the segments of (b_{k+1} - b_k) times mu_k."""
        total, points = [0] * self.datum.rank, self.graph.points
        for a, b, n in zip(self.cuts, self.cuts[1:], self.points):
            total = [t + (b - a) * c for t, c in zip(total, points[n].coords)]
        return Weight(_integral_coords(total, self.L))

    def to_json_dict(self) -> dict:
        return {
            "directions": [list(word) for word in self.words],
            "breaks": [f"{b.numerator}/{b.denominator}" for b in self.breaks],
            "weight": list(self.weight.coords),
            "deg": deg(self),
        }


def _act(datum: RootDatum, word: tuple[int, ...], coords: Vector) -> Vector:
    """s_i1 ... s_ik(mu) for the word (i1, ..., ik): the rightmost letter first."""
    simple, mu = datum.affine_root_weights[1:], list(coords)
    for i in reversed(word):
        mu = [m - mu[i - 1] * a for m, a in zip(mu, simple[i - 1])]
    return tuple(mu)


def _direction(datum: RootDatum, lam: Weight, k: int, x) -> tuple[Vector, int | None]:
    """Direction k as (its orbit point's coordinates, l(x)); a Weight has no
    length to check.  A word names x = s_i1 ... s_ik, its point is
    x(lambda) and l(x) the length of the word read off x(rho)."""
    if isinstance(x, Weight):
        return x.coords, None
    if not isinstance(x, (tuple, list)) or not all(isinstance(i, int) for i in x):
        raise InputError(f"direction {k} is neither a weight nor a word of nodes")
    for i in x:
        if not 1 <= i <= datum.rank:
            raise InputError(f"node {i} outside 1..{datum.rank}")
    return _act(datum, x, lam.coords), len(datum.dominant_word(_act(datum, x, datum.rho.coords))[0])


def qls_path(datum: RootDatum, lam: Weight, directions, breaks) -> QLSPath:
    """Validate raw direction/break data and return the path.

    A direction is an orbit point x(lambda) given as a Weight, or any word of
    nodes (i1, ..., ik), which names x = s_i1 ... s_ik and is read on
    weights: its point is x(lambda), and x must be a minimal coset
    representative, that is l(x) must equal the depth of x(lambda) in the
    orbit graph.  Every pair of consecutive directions must be joined by a
    directed path in the parabolic graph restricted at the break between
    them.
    """
    graph = orbit_graph(datum, lam)  # refuses a weight that is not dominant
    dirs = tuple(_direction(datum, lam, k, x) for k, x in enumerate(directions, start=1))
    if not dirs:
        raise InputError("a path needs at least one direction")
    cuts = tuple(Fraction(b) for b in breaks)
    if len(cuts) != len(dirs) + 1:
        raise InputError("break count must be direction count plus one")
    if cuts[0] != 0 or cuts[-1] != 1:
        raise InputError("breaks must start at 0 and end at 1")
    if any(a >= b for a, b in zip(cuts, cuts[1:])):
        raise InputError("breaks must be strictly increasing")
    for k, (mu, length) in enumerate(dirs, start=1):
        # a word's point is always in the orbit
        if length is not None and length != graph.lengths[graph.coords_index[mu]]:
            raise InputError(f"direction {k} is not a minimal coset representative")
    points = tuple(graph.coords_index.get(mu, -1) for mu, _ in dirs)  # grid_path refuses -1
    scale = lcm(graph.L, *(b.denominator for b in cuts))
    return grid_path(graph, points, tuple(b.numerator * (scale // b.denominator) for b in cuts), scale)


def grid_path(graph: OrbitGraph, points: tuple[int, ...], cuts: tuple[int, ...], scale: int = 0) -> QLSPath:
    """The path through the vertices `points` of the orbit graph of its
    shape, with breaks cuts / scale (scale L by default), checked as qls_path
    checks its points.  Those checks put every break on the grid of 1/L,
    over which the path keeps them."""
    L, scale = graph.L, scale or graph.L
    for k, n in enumerate(points, start=1):
        if not 0 <= n < len(graph.points):
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
    return QLSPath(graph, points, cuts)


def straight_path(datum: RootDatum, lam: Weight) -> QLSPath:
    """The single-segment path in the direction lam, vertex 0 of its orbit graph."""
    return grid_path(orbit_graph(datum, lam), (0,), (0, 1), 1)


def _integral_coords(total: list[int], L: int) -> tuple[int, ...]:
    """The coordinates of the weight total / L, which must be integral."""
    if any([c % L for c in total]):
        raise InternalError(f"weight {tuple(Fraction(c, L) for c in total)} is not integral")
    return tuple([c // L for c in total])


def _whole(n: int, L: int, what: str) -> int:
    """n / L, which must be an integer."""
    q, r = divmod(n, L)
    if r:
        raise InternalError(f"{what} {Fraction(n, L)} is not an integer")
    return q


# --------------------------------------------------------------- enumeration


def break_children(graph: OrbitGraph) -> tuple[list[tuple[int, int]], list[dict[int, list]]]:
    """The candidate breaks a/L ascending, as (a, denominator v), and
    children[x][v]: the (y, path weight from y to x) pairs, y != x, that may
    follow x at a break of denominator v, by one unkept search per (v, y)."""
    L = graph.L
    cuts = [(a, L // gcd(a, L)) for a in sorted({a * L // p for p in graph.pairings for a in range(1, p)})]
    dens = {v for _, v in cuts}
    n = len(graph.points)
    children: list[dict[int, list]] = [{v: [] for v in dens} for _ in range(n)]
    for v in dens:
        for y in range(n):
            for x, w in graph.search(y, v).items():
                if x != y:
                    children[x][v].append((y, w))
    return cuts, children


def enumerate_paths(datum: RootDatum, lam: Weight):
    """Every path of QLS(lam) once, as (points, cuts, weight, -deg), the
    breaks being cuts / L.

    The paper's definition read as a search: a path is x_1, ..., x_s in W^J
    with breaks 0 = b_0 < ... < b_s = 1, where x_{k+1} != x_k reaches x_k in
    the graph restricted at b_k.  An explicit-stack DFS from each x_1 grows
    one segment per step; every node closes at 1 into a path, so each node
    is an output.  A break b is u/v in lowest terms with v dividing a pairing
    p = <alpha^vee, lam> of a label, so b is a multiple of 1/L, and the
    breaks, the weight and -deg are carried times L.  The points are the
    orbit graph's vertex indices, as a QLSPath holds them, and each point's
    followers come from `break_children`.
    """
    graph = orbit_graph(datum, lam)
    L = graph.L
    cuts, children = break_children(graph)
    points = graph.points
    zero = (0,) * datum.rank
    stack = [(x, 0, zero, 0, (x,), (0,)) for x in range(len(points))]
    while stack:
        x, start, wt, neg_deg, path, breaks = stack.pop()
        mu = points[x].coords
        weight = Weight(_integral_coords([c + (L - start) * m for c, m in zip(wt, mu)], L))
        yield path, breaks + (L,), weight, -_whole(-neg_deg, L, "degree")
        for a, v in reversed(cuts):
            if a <= start:
                break
            grown = tuple(c + (a - start) * m for c, m in zip(wt, mu))
            for y, w in children[x][v]:
                stack.append((y, a, grown, neg_deg + (L - a) * w, path + (y,), breaks + (a,)))


# ----------------------------------------------------------------- operators


def _h_breaks(pairings: list[int], points: tuple[int, ...], cuts: tuple[int, ...]) -> list[int]:
    """L times the values of <alpha_tilde_j^vee, eta(t)> at the breaks of
    (points, cuts): a running sum over `OrbitGraph.affine_pairings(j)`."""
    return list(accumulate(map(mul, map(sub, cuts[1:], cuts), map(pairings.__getitem__, points)), initial=0))


def _checked_minimum(vals: list[int], L: int) -> int:
    """The global minimum of H, after asserting every local minimum is
    integral: vals are L times H, so L must divide them."""
    if any(map(L.__rmod__, vals)):  # else every local minimum is integral
        runs = [v for v, _ in groupby(vals)]
        for i, v in enumerate(runs):
            left_up = i == 0 or runs[i - 1] > v
            right_up = i == len(runs) - 1 or runs[i + 1] > v
            if left_up and right_up and v % L:
                raise InternalError(f"local minimum {Fraction(v, L)} of H is not an integer")
    m = min(vals)
    if m % L or m > 0:
        raise InternalError(f"minimum {Fraction(m, L)} of H must be a nonpositive integer")
    return m // L


def _window(points: tuple[int, ...], cuts: tuple[int, ...], vals: list[int], m: int, L: int,
            reflected: list[int], raising: bool):
    """Littelmann's window rule for e_j (raising) or f_j on the path (points,
    cuts): the image's (points, cuts), or None when the operator is undefined.

    vals are L times H_j = <alpha_tilde_j^vee, eta(t)> at the breaks, m the
    checked minimum of H_j and reflected `OrbitGraph.affine_reflections(j)`.
    Scan from the first place H_j = m backwards (e_j) or from the last one
    forwards (f_j) to the nearest place where H_j = m + 1; the image
    reflects the window between them by s_j, and equal neighbouring points
    merge.  The operator is undefined when H_j stays below m + 1 all the way
    to t = 0 (e_j) or t = 1 (f_j).
    """
    # the window spans the segments a..b-1; where H_j crosses m + 1 inside
    # segment a (e_j) or b-1 (f_j), that segment is cut on the grid of 1/L
    low, high = m * L, m * L + L
    if (vals[0] if raising else vals[-1]) < high:
        return None
    if raising:
        b = vals.index(low)
        a = b - 1
        while vals[a] < high:
            a -= 1
        k = a if vals[a] > high else -1  # the segment cut at the level
    else:
        a = len(vals) - 1 - vals[::-1].index(low)
        b = a + 1
        while vals[b] < high:
            b += 1
        k = b - 1 if vals[b] > high else -1
    pts = list(points[:a]) + [reflected[n] for n in points[a:b]] + list(points[b:])
    start, end, image_cuts = a, b, list(cuts)
    if k >= 0:
        t, off = divmod((high - vals[k]) * (cuts[k + 1] - cuts[k]), vals[k + 1] - vals[k])
        if off:
            raise InternalError("H crosses the requested level between two points of the grid")
        image_cuts.insert(k + 1, cuts[k] + t)
        # segment k keeps its point on the side of the cut outside the window
        pts.insert(a if raising else b, points[k])
        start, end = (a + 1, b + 1) if raising else (a, b)
    if end < len(pts) and pts[end - 1] == pts[end]:
        del pts[end], image_cuts[end]
    if start > 0 and pts[start - 1] == pts[start]:
        del pts[start], image_cuts[start]
    return tuple(pts), tuple(image_cuts)


def _root_operator(eta: QLSPath, j: int, raising: bool) -> QLSPath | None:
    """Littelmann's root operator e_j (raising) or f_j on any path, or None
    when undefined; the image is validated from scratch."""
    graph, L = eta.graph, eta.L
    vals = _h_breaks(graph.affine_pairings(j), eta.points, eta.cuts)
    image = _window(eta.points, eta.cuts, vals, _checked_minimum(vals, L), L, graph.affine_reflections(j), raising)
    if image is None:
        return None
    try:
        new = grid_path(graph, *image)
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
    return -_checked_minimum(_h_breaks(eta.graph.affine_pairings(j), eta.points, eta.cuts), eta.L)


def phi(eta: QLSPath, j: int) -> int:
    """Number of times the lowering operator applies: H_j(1) minus its minimum."""
    vals = _h_breaks(eta.graph.affine_pairings(j), eta.points, eta.cuts)
    return _whole(vals[-1], eta.L, "H(1) =") - _checked_minimum(vals, eta.L)


# -------------------------------------------------------------------- degree


def deg(eta: QLSPath) -> int:
    """Degree: minus the sum of (1 - b_k) times the segment path weights,
    each read off the search restricted at its break b_k."""
    graph, points, cuts, L = eta.graph, eta.points, eta.cuts, eta.L
    total = -sum(
        (L - cuts[k]) * graph.path_weight(points[k], points[k - 1], L // gcd(cuts[k], L))
        for k in range(1, len(points))
    )
    return _whole(total, L, "degree")


# ------------------------------------------------------ duality and Lusztig S


def dual_indices(eta: QLSPath) -> tuple[OrbitGraph, tuple[int, ...], tuple[int, ...]]:
    """The (graph, points, cuts) of dual(eta), not validated."""
    graph = eta.graph
    dirs = tuple(graph.negated[n] for n in reversed(eta.points))
    return graph.dual, dirs, tuple(eta.L - c for c in reversed(eta.cuts))


def dual(eta: QLSPath) -> QLSPath:
    """Reverse the path and translate its endpoint to the origin: shape
    -w0(lambda), points -mu_k in reverse order."""
    return grid_path(*dual_indices(eta), eta.L)


def omega_indices(eta: QLSPath) -> tuple[OrbitGraph, tuple[int, ...], tuple[int, ...]]:
    """The (graph, points, cuts) of omega(eta), not validated."""
    graph = eta.graph
    return graph.dual, tuple(graph.omega_images[n] for n in eta.points), eta.cuts


def omega(eta: QLSPath) -> QLSPath:
    """Apply the diagram automorphism: every point mu goes to -w0(mu)."""
    return grid_path(*omega_indices(eta), eta.L)


def lusztig_S(eta: QLSPath) -> QLSPath:
    """The Lusztig involution: apply the longest element and reverse; w0(mu)
    is the negation of -w0(mu), back in the orbit of lambda."""
    graph = eta.graph
    images, negated = graph.omega_images, graph.dual.negated
    dirs = tuple(negated[images[n]] for n in reversed(eta.points))
    cuts = tuple(eta.L - c for c in reversed(eta.cuts))
    return grid_path(graph, dirs, cuts, eta.L)


# ------------------------------------------------------------------- crystals


def build_crystal(datum: RootDatum, lam: Weight) -> CrystalGraph:
    """The crystal on QLS(lam) under Littelmann's root operators.

    The vertices are the paths from enumerate_paths, with its integral
    weights, keyed by their (points, cuts) index tuples.  At every (vertex,
    label) one H_j and its checked minimum give both e_j and f_j, and each
    image must be an enumerated path: the rule qls_path applies, since it
    and the enumeration both read the orbit graph's restricted searches.
    Vertices are ordered by a BFS from the straight path over the arrows in
    (label, e then f) order, which must reach every enumerated path.
    """
    # the BFS reads index tuples and each label's tables; only the final
    # vertex list is made of paths
    graph = orbit_graph(datum, lam)
    L = graph.L
    rows = list(enumerate_paths(datum, lam))
    table = {(points, cuts): p for p, (points, cuts, _, _) in enumerate(rows)}
    n, labels = len(rows), range(datum.rank + 1)
    tables = [(graph.affine_pairings(j), graph.affine_reflections(j)) for j in labels]
    order = [table[((0,), (0, L))]]  # enumeration positions in BFS order; vertex 0 is lambda
    found = [-1] * n  # each enumerated path's BFS index
    found[order[0]] = 0
    e, f = [[-1] * n for _ in labels], [[-1] * n for _ in labels]
    for i, p in enumerate(order):  # order grows as the BFS finds vertices
        points, cuts = rows[p][0], rows[p][1]
        for j, (pairings, reflected) in enumerate(tables):
            vals = _h_breaks(pairings, points, cuts)
            m = _checked_minimum(vals, L)
            for arrows, raising in ((e, True), (f, False)):
                image = _window(points, cuts, vals, m, L, reflected, raising)
                if image is None:
                    continue
                q = table.get(image)
                if q is None:
                    op = "e" if raising else "f"
                    raise InternalError(
                        f"root operator produced an invalid path: {op}_{j} of "
                        f"{QLSPath(graph, points, cuts)!r} is not in QLS(lambda)"
                    )
                if found[q] < 0:
                    found[q] = len(order)
                    order.append(q)
                arrows[j][i] = found[q]
    if len(order) != n:
        raise InternalError(
            f"the root operators reach {len(order)} of the {n} paths of QLS(lambda)"
        )
    vertices = [QLSPath(graph, rows[p][0], rows[p][1]) for p in order]
    packing = shape_packing(datum, lam)
    graph = CrystalGraph(datum, vertices, [packing.pack(rows[p][2].coords) for p in order], e, f, 0, packing)
    graph.check()
    return graph
