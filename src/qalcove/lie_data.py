"""Exact finite root-system and Weyl-group data for types A-G.

Roots live as integer vectors in the simple-root basis, coroots in the
simple-coroot basis, and weights in the fundamental-weight basis; every
pairing is then an integer dot product through the Cartan matrix.  The
affine marks/comarks come from the highest root, so level and perfectness
need no tables, and the Weyl group is built one element at a time, as used.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

Vector = tuple[int, ...]


class InputError(ValueError):
    """Invalid user input (bad type, rank, weight, chain, ...)."""


class InternalError(RuntimeError):
    """A checked invariant failed; signals a bug, not bad input."""


UNSEEN = object()  # a QB(W) step not decided yet; None is no edge


@dataclass(frozen=True)
class Weight:
    """Integral weight in fundamental-weight coordinates."""

    coords: Vector

    def __add__(self, other: "Weight") -> "Weight":
        return Weight(tuple(a + b for a, b in zip(self.coords, other.coords, strict=True)))

    def __sub__(self, other: "Weight") -> "Weight":
        return Weight(tuple(a - b for a, b in zip(self.coords, other.coords, strict=True)))

    def __neg__(self) -> "Weight":
        return Weight(tuple(-a for a in self.coords))


def _chain_bonds(rank: int) -> dict[tuple[int, int], int]:
    bonds: dict[tuple[int, int], int] = {}
    for i in range(1, rank):
        bonds[(i, i + 1)] = -1
        bonds[(i + 1, i)] = -1
    return bonds


def _bonds(type_label: str, rank: int) -> dict[tuple[int, int], int]:
    # bonds[(i, j)] = <alpha_i^vee, alpha_j> for i != j, Bourbaki numbering.
    if type_label == "A" and rank >= 1:
        return _chain_bonds(rank)
    if type_label == "B" and rank >= 2:
        bonds = _chain_bonds(rank)
        bonds[(rank, rank - 1)] = -2  # alpha_rank is the short root
        return bonds
    if type_label == "C" and rank >= 2:
        bonds = _chain_bonds(rank)
        bonds[(rank - 1, rank)] = -2  # alpha_rank is the long root
        return bonds
    if type_label == "D" and rank >= 4:
        bonds = _chain_bonds(rank - 1)
        bonds[(rank - 2, rank)] = -1
        bonds[(rank, rank - 2)] = -1
        return bonds
    if type_label == "E" and rank in (6, 7, 8):
        edges = [(1, 3), (3, 4), (4, 5), (5, 6), (2, 4)]
        if rank >= 7:
            edges.append((6, 7))
        if rank == 8:
            edges.append((7, 8))
        bonds = {}
        for i, j in edges:
            bonds[(i, j)] = -1
            bonds[(j, i)] = -1
        return bonds
    if type_label == "F" and rank == 4:
        bonds = _chain_bonds(rank)
        bonds[(3, 2)] = -2  # alpha_3, alpha_4 are the short roots
        return bonds
    if type_label == "G" and rank == 2:
        return {(1, 2): -3, (2, 1): -1}  # alpha_1 is the short root
    raise InputError(f"unknown finite type {type_label}{rank}")


class RootDatum:
    """Immutable root-system data with the affine marks of its affinization."""

    def __init__(self, type_label: str, rank: int):
        bonds = _bonds(type_label, rank)
        self.type_label = type_label
        self.rank = rank
        self.cartan: tuple[Vector, ...] = tuple(
            tuple(2 if i == j else bonds.get((i + 1, j + 1), 0) for j in range(rank))
            for i in range(rank)
        )
        self._check_cartan()
        self.positive_roots, self.positive_coroots = self._generate_roots()
        self._root_index = {r: k for k, r in enumerate(self.positive_roots)}
        self._quantum_drops: dict[frozenset[int], dict[int, int]] = {}
        # quantum_bruhat's orbit graphs QB(W^J), keyed by lambda
        self._orbit_graphs: dict = {}
        self.simple_root_index: Vector = tuple(
            self._root_index[tuple(1 if j == i else 0 for j in range(rank))]
            for i in range(rank)
        )
        heights = [sum(r) for r in self.positive_roots]
        top = max(heights)
        if heights.count(top) != 1:
            raise InternalError("highest root is not unique")
        self.theta = heights.index(top)
        self.rho = Weight((1,) * rank)
        # theta = sum_i marks[i] alpha_i, theta^vee = sum_i comarks[i] alpha_i^vee,
        # and the affine node always carries mark = comark = 1.
        self.marks: Vector = (1,) + self.positive_roots[self.theta]
        self.comarks: Vector = (1,) + self.positive_coroots[self.theta]
        for alpha in range(len(self.positive_roots)):
            val = self.pairing_roots(self.theta, alpha)
            expect = (2,) if alpha == self.theta else (0, 1)
            if val not in expect:
                raise InternalError(f"<theta^vee, root {alpha}> = {val} out of range")

    def _check_cartan(self) -> None:
        a = self.cartan
        for i in range(self.rank):
            if a[i][i] != 2:
                raise InternalError("Cartan diagonal must be 2")
            for j in range(self.rank):
                if i != j and (a[i][j] > 0 or (a[i][j] == 0) != (a[j][i] == 0)):
                    raise InternalError("invalid Cartan off-diagonal pattern")

    def _generate_roots(self) -> tuple[tuple[Vector, ...], tuple[Vector, ...]]:
        # Closure of the simple (root, coroot) pairs under simple reflections.
        rank, a = self.rank, self.cartan
        seen: dict[Vector, Vector] = {}
        stack: list[tuple[Vector, Vector]] = []
        for i in range(rank):
            e = tuple(1 if j == i else 0 for j in range(rank))
            seen[e] = e
            stack.append((e, e))
        while stack:
            root, coroot = stack.pop()
            for i in range(rank):
                pr = sum(c * a[i][j] for j, c in enumerate(root))
                new_root = tuple(
                    c - (pr if j == i else 0) for j, c in enumerate(root)
                )
                if any(c < 0 for c in new_root) or new_root in seen:
                    continue
                pc = sum(c * a[j][i] for j, c in enumerate(coroot))
                new_coroot = tuple(
                    c - (pc if j == i else 0) for j, c in enumerate(coroot)
                )
                seen[new_root] = new_coroot
                stack.append((new_root, new_coroot))
        order = sorted(seen, key=lambda r: (sum(r), r[::-1]))
        return tuple(order), tuple(seen[r] for r in order)

    # ------------------------------------------------------------------ pairings

    def pairing(self, coroot: Vector, weight: Weight) -> int:
        """<beta^vee, mu> for a coroot in simple-coroot coordinates."""
        return sum(b * m for b, m in zip(coroot, weight.coords, strict=True))

    def pairing_index(self, root_index: int, weight: Weight) -> int:
        return self.pairing(self.positive_coroots[root_index], weight)

    def pairing_roots(self, coroot_index: int, root_index: int) -> int:
        """<beta^vee, gamma> for two positive roots given by index."""
        coroot = self.positive_coroots[coroot_index]
        root = self.positive_roots[root_index]
        return sum(
            b * self.cartan[i][j] * c
            for i, b in enumerate(coroot)
            for j, c in enumerate(root)
        )

    def root_index(self, coords: Vector) -> int | None:
        """Index of a positive root given in simple-root coordinates."""
        return self._root_index.get(tuple(coords))

    def root_as_weight(self, root: Vector | int) -> Weight:
        """Fundamental-weight coordinates of a root vector."""
        if isinstance(root, int):
            root = self.positive_roots[root]
        return Weight(
            tuple(sum(self.cartan[i][j] * c for j, c in enumerate(root)) for i in range(self.rank))
        )

    @cached_property
    def root_weights(self) -> tuple[Vector, ...]:
        """Fundamental-weight coordinates of every positive root, by index."""
        return tuple(self.root_as_weight(k).coords for k in range(len(self.positive_roots)))

    @cached_property
    def _cartan_inverse(self) -> tuple[tuple[Fraction, ...], ...]:
        n = self.rank
        m = [[Fraction(self.cartan[i][j]) for j in range(n)] + [Fraction(int(i == j)) for j in range(n)] for i in range(n)]
        for col in range(n):
            piv = next(r for r in range(col, n) if m[r][col] != 0)
            m[col], m[piv] = m[piv], m[col]
            inv = 1 / m[col][col]
            m[col] = [x * inv for x in m[col]]
            for r in range(n):
                if r != col and m[r][col] != 0:
                    f = m[r][col]
                    m[r] = [x - f * y for x, y in zip(m[r], m[col])]
        return tuple(tuple(row[n:]) for row in m)

    def weight_in_root_coords(self, weight: Weight) -> tuple[Fraction, ...]:
        inv = self._cartan_inverse
        return tuple(
            sum(inv[i][j] * weight.coords[j] for j in range(self.rank))
            for i in range(self.rank)
        )

    # ----------------------------------------------------------------- reflections

    def reflect(self, weight: Weight, root_index: int) -> Weight:
        """s_beta(weight) = weight - <beta^vee, weight> beta."""
        c = self.pairing_index(root_index, weight)
        return Weight(tuple(m - c * b for m, b in zip(weight.coords, self.root_weights[root_index])))

    def affine_root(self, j: int) -> tuple[int, int]:
        """alpha-tilde_j of the affine index set 0..rank as (positive-root
        index, sign): (theta, -1) at j = 0 and (alpha_j, +1) otherwise."""
        if not 0 <= j <= self.rank:
            raise InputError(f"label {j} outside the affine index set")
        return (self.theta if j == 0 else self.simple_root_index[j - 1]), (-1 if j == 0 else 1)

    def affine_root_weight(self, j: int) -> Weight:
        """The weight of alpha-tilde_j: -theta at j = 0 and alpha_j otherwise."""
        root, sign = self.affine_root(j)
        return Weight(tuple(sign * c for c in self.root_weights[root]))

    # ------------------------------------------------------------------- weights

    def fundamental_weight(self, i: int) -> Weight:
        if not 1 <= i <= self.rank:
            raise InputError(f"node {i} out of range 1..{self.rank}")
        return Weight(tuple(1 if j == i - 1 else 0 for j in range(self.rank)))

    def weight_from_coeffs(self, coeffs) -> Weight:
        coeffs = tuple(int(c) for c in coeffs)
        if len(coeffs) != self.rank:
            raise InputError(f"expected {self.rank} weight coefficients, got {len(coeffs)}")
        return Weight(coeffs)

    def is_dominant(self, weight: Weight) -> bool:
        return all(c >= 0 for c in weight.coords)

    def stabilizer(self, weight: Weight) -> frozenset[int]:
        """Nodes i (1-based) with <alpha_i^vee, weight> = 0."""
        if not self.is_dominant(weight):
            raise InputError(f"weight {weight.coords} is not dominant")
        return frozenset(i + 1 for i, c in enumerate(weight.coords) if c == 0)

    def parabolic_roots(self, J: frozenset[int]) -> frozenset[int]:
        """Indices of positive roots supported on the node set J."""
        if not all(1 <= j <= self.rank for j in J):
            raise InputError(f"node set {sorted(J)} out of range")
        return frozenset(
            k
            for k, r in enumerate(self.positive_roots)
            if all(c == 0 or (i + 1) in J for i, c in enumerate(r))
        )

    def two_rho_minus_two_rho_J(self, J: frozenset[int]) -> Weight:
        """Sum of the positive roots not supported on J, as a weight."""
        inside = self.parabolic_roots(J)
        total = Weight((0,) * self.rank)
        for k in range(len(self.positive_roots)):
            if k not in inside:
                total = total + self.root_as_weight(k)
        return total

    def quantum_drops(self, J: frozenset[int] = frozenset()) -> dict[int, int]:
        """<alpha^vee, 2rho - 2rho_J> for every positive root alpha outside the
        parabolic subsystem of J, keyed by root index in increasing order."""
        if J not in self._quantum_drops:
            depth, inside = self.two_rho_minus_two_rho_J(J), self.parabolic_roots(J)
            drops = {k: self.pairing(c, depth) for k, c in enumerate(self.positive_coroots) if k not in inside}
            if min(drops.values(), default=1) <= 0:
                raise InternalError("<alpha^vee, 2rho-2rho_J> must be positive")
            self._quantum_drops[J] = drops
        return self._quantum_drops[J]

    # -------------------------------------------------------------------- affine

    def level_of_affine_weight(self, eps_coeffs) -> int:
        coeffs = tuple(int(c) for c in eps_coeffs)
        if len(coeffs) != self.rank + 1 or any(c < 0 for c in coeffs):
            raise InputError("need nonnegative coefficients on nodes 0..rank")
        return sum(a * c for a, c in zip(self.comarks, coeffs))

    def c_r(self, r: int) -> Fraction:
        if not 1 <= r <= self.rank:
            raise InputError(f"node {r} out of range 1..{self.rank}")
        return max(Fraction(self.marks[r], self.comarks[r]), Fraction(1))

    @cached_property
    def symmetrizers(self) -> Vector:
        """Minimal positive integers d with d_i cartan[i][j] = d_j cartan[j][i]."""
        d = [Fraction(0)] * self.rank
        d[0] = Fraction(1)
        todo = [0]
        while todo:
            i = todo.pop()
            for j in range(self.rank):
                if self.cartan[i][j] != 0 and i != j and d[j] == 0:
                    d[j] = d[i] * Fraction(self.cartan[i][j], self.cartan[j][i])
                    todo.append(j)
        if any(x == 0 for x in d):
            raise InternalError("Dynkin diagram is not connected")
        scale = math.lcm(*(x.denominator for x in d))
        ints = [int(x * scale) for x in d]
        g = math.gcd(*ints)
        return tuple(x // g for x in ints)

    def long_nodes(self) -> tuple[int, ...]:
        d = self.symmetrizers
        top = max(d)
        return tuple(i + 1 for i, x in enumerate(d) if x == top)

    def short_nodes(self) -> tuple[int, ...]:
        d = self.symmetrizers
        if len(set(d)) == 1:
            return ()
        bottom = min(d)
        return tuple(i + 1 for i, x in enumerate(d) if x == bottom)

    # -------------------------------------------------------------------- output

    def to_json_dict(self) -> dict:
        return {
            "type": self.type_label,
            "rank": self.rank,
            "cartan": [list(row) for row in self.cartan],
            "positive_roots": [list(r) for r in self.positive_roots],
            "marks": list(self.marks),
            "comarks": list(self.comarks),
        }

    def root_name(self, root_index: int, sign: int = 1) -> str:
        """Readable form like 'a1+2a2' of a (signed) positive root."""
        parts = []
        for i, c in enumerate(sign * x for x in self.positive_roots[root_index]):
            if c == 0:
                continue
            mag = f"a{i + 1}" if abs(c) == 1 else f"{abs(c)}a{i + 1}"
            parts.append(("-" if c < 0 else ("+" if parts else "")) + mag)
        return "".join(parts) or "0"

    @cached_property
    def weyl(self) -> "WeylGroup":
        return WeylGroup(self)


def build_root_datum(type_label: str, rank: int) -> RootDatum:
    if not isinstance(rank, int) or rank < 1:
        raise InputError(f"invalid rank {rank!r}")
    return RootDatum(type_label, rank)


class WeylElement:
    """Group element stored as a signed permutation of the positive roots.

    perm[k] = +-(j+1) means the element maps positive root k to +-(positive
    root j).  Its group interns every element, so identity is equality: an
    element compares and hashes as the object it is, and elements of two
    root data never compare equal.  `steps` holds the QB(W) steps from the
    element (`quantum_bruhat.qbg_step`) by positive root, UNSEEN until
    decided.
    """

    __slots__ = ("group", "perm", "length", "_inverse", "steps")

    def __init__(self, group: "WeylGroup", perm: Vector):
        self.group = group
        self.perm = perm
        self.length = sum(1 for v in perm if v < 0)
        self._inverse: WeylElement | None = None
        self.steps: list = [UNSEEN] * len(perm)

    def __repr__(self) -> str:
        word = self.reduced_word()
        return "*".join(f"s{i}" for i in word) if word else "e"

    def __mul__(self, other: "WeylElement") -> "WeylElement":
        return self.group.product(self, other)

    @property
    def inverse(self) -> "WeylElement":
        inv = self._inverse
        if inv is None:
            # w(beta_k) = +-beta_j  <=>  w^-1(beta_j) = +-beta_k
            perm = [0] * len(self.perm)
            for k, v in enumerate(self.perm):
                perm[abs(v) - 1] = k + 1 if v > 0 else -(k + 1)
            inv = self.group._intern(tuple(perm))
            self._inverse, inv._inverse = inv, self
        return inv

    def act_weight(self, weight: Weight) -> Weight:
        """Action on a weight in fundamental coordinates."""
        datum = self.group.datum
        inv = self.inverse
        coords = []
        for i in range(datum.rank):
            v = inv.perm[datum.simple_root_index[i]]
            coroot = datum.positive_coroots[abs(v) - 1]
            val = datum.pairing(coroot, weight)
            coords.append(val if v > 0 else -val)
        return Weight(tuple(coords))

    def has_right_descent(self, i: int) -> bool:
        """True iff length(w s_i) < length(w), nodes 1-based."""
        return self.perm[self.group.datum.simple_root_index[i - 1]] < 0

    def has_left_descent(self, i: int) -> bool:
        return self.inverse.perm[self.group.datum.simple_root_index[i - 1]] < 0

    def reduced_word(self) -> tuple[int, ...]:
        """Lexicographically smallest reduced word (1-based node labels)."""
        w, word = self, []
        while w.length:
            i = next(i for i in range(1, self.group.datum.rank + 1) if w.has_left_descent(i))
            word.append(i)
            w = self.group.simple[i - 1] * w
        return tuple(word)


class WeylGroup:
    """The finite Weyl group.  `_intern` makes every element, one object per
    signed permutation, so elements compare by identity.  Construction
    interns only the identity and the simple reflections; every product,
    inverse or reflection is interned at first use, so only a walk that asks
    for all of W (`coset_reps` of the empty set) enumerates it, and |W| is
    read off the root heights.  The inversion set N(r_beta) of a reflection,
    the positive roots it negates, is kept per root from its first use
    (`inversions`): with it the alcove walk measures l(w r_beta) without
    composing w r_beta."""

    def __init__(self, datum: RootDatum):
        self.datum = datum
        # the elements interned so far, in order of first use; all of W only
        # after a walk over the whole group
        self.elements: list[WeylElement] = []
        self._by_perm: dict[Vector, WeylElement] = {}
        self._reflections: dict[int, WeylElement] = {}
        self._inversions: dict[int, tuple[int, ...]] = {}
        self.identity = self._intern(tuple(range(1, len(datum.positive_roots) + 1)))
        self.simple = tuple(self.reflection(k) for k in datum.simple_root_index)

    def _intern(self, perm: Vector) -> WeylElement:
        el = self._by_perm.get(perm)
        if el is None:
            el = WeylElement(self, perm)
            self.elements.append(el)
            self._by_perm[perm] = el
        return el

    @staticmethod
    def _compose(outer: Vector, inner: Vector) -> Vector:
        # (outer . inner)(beta_k) = outer(inner(beta_k))
        out = []
        for v in inner:
            w = outer[abs(v) - 1]
            out.append(w if v > 0 else -w)
        return tuple(out)

    def product(self, w: WeylElement, v: WeylElement) -> WeylElement:
        return self._intern(self._compose(w.perm, v.perm))

    def __len__(self) -> int:
        """|W| = prod over the positive roots of (ht + 1) / ht (Macdonald)."""
        size = Fraction(1)
        for root in self.datum.positive_roots:
            size *= Fraction(sum(root) + 1, sum(root))
        return int(size)

    def reflection(self, root_index: int) -> WeylElement:
        """The reflection r_beta for a positive root, as a group element."""
        el = self._reflections.get(root_index)
        if el is None:
            datum = self.datum
            beta = datum.positive_roots[root_index]
            coroot = datum.positive_coroots[root_index]
            perm = []
            for root, root_wt in zip(datum.positive_roots, datum.root_weights):
                c = sum(b * x for b, x in zip(coroot, root_wt))
                image = tuple(x - c * b for x, b in zip(root, beta))
                if all(x <= 0 for x in image):
                    perm.append(-(datum._root_index[tuple(-x for x in image)] + 1))
                else:
                    perm.append(datum._root_index[image] + 1)
            el = self._intern(tuple(perm))
            self._reflections[root_index] = el
        return el

    def inversions(self, root_index: int) -> tuple[int, ...]:
        """N(r_beta): the indices of the positive roots that r_beta negates."""
        negated = self._inversions.get(root_index)
        if negated is None:
            perm = self.reflection(root_index).perm
            negated = self._inversions[root_index] = tuple(k for k, v in enumerate(perm) if v < 0)
        return negated

    @cached_property
    def longest(self) -> WeylElement:
        """w_0, grown by right multiplication with simple ascents."""
        w = self.identity
        grown = True
        while grown:
            grown = False
            for i, s in enumerate(self.simple, 1):
                if not w.has_right_descent(i):
                    w, grown = w * s, True
        if w.length != len(self.datum.positive_roots):
            raise InternalError("longest element length != number of positive roots")
        return w

    def min_coset_rep(self, w: WeylElement, J: frozenset[int]) -> WeylElement:
        """Minimum-length element of the coset w W_J."""
        changed = True
        while changed:
            changed = False
            for i in J:
                if w.has_right_descent(i):
                    w = w * self.simple[i - 1]
                    changed = True
        return w

    def coset_reps(self, J: frozenset[int]) -> tuple[WeylElement, ...]:
        """All of W^J in a canonical (length, permutation) order, grown from the
        identity by left ascents: W^J is closed under removing a left descent."""
        if not all(1 <= j <= self.datum.rank for j in J):
            raise InputError(f"node set {sorted(J)} out of range")
        seen = {self.identity}
        stack = [self.identity]
        while stack:
            w = stack.pop()
            for s in self.simple:
                u = s * w
                if u.length > w.length and u not in seen and not any(u.has_right_descent(i) for i in J):
                    seen.add(u)
                    stack.append(u)
        return tuple(sorted(seen, key=lambda w: (w.length, w.perm)))

    @cached_property
    def omega(self) -> tuple[int, ...]:
        """Diagram automorphism with w_0(alpha_i) = -alpha_{omega(i)}, 1-based."""
        datum = self.datum
        out = []
        for i in range(datum.rank):
            v = self.longest.perm[datum.simple_root_index[i]]
            if v >= 0:
                raise InternalError("longest element must negate simple roots")
            image = datum.positive_roots[-v - 1]
            if sum(image) != 1:
                raise InternalError("w_0 image of a simple root is not simple")
            out.append(image.index(1) + 1)
        return tuple(out)
