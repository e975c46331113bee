"""Graded characters from both models, a multiplicity oracle, and the verdict.

The two model routes (heights folded over admissible subsets, weights and
degrees summed per break over QLS paths) give the same graded character; the
oracle computes irreducible characters by the multiplicity recursion on
dominant weights and shares no code with the models.  It runs in integers:
it pairs weights only with root-lattice elements, where the invariant form is
integral.  The decomposition does not call the oracle: it reads multiplicities
off the terms by the Brauer-Klimyk rule, ordered by the integer heights
<2 rho^vee, nu>.  Neither uses the Weyl group that the models walk: the
oracle, the symmetry check, the orbit form and the decomposition act on
weights by one rule, the simple reflection on fundamental-weight coordinates.
"""

from __future__ import annotations

from collections import Counter, defaultdict

from . import alcove_model, qls_model
from .alcove_model import LambdaChain, lex_chain
from .crystal import WeightPacking
from .lie_data import InputError, InternalError, RootDatum, Weight
from .quantum_bruhat import orbit_graph

Key = tuple[tuple[int, ...], int]


class GradedCharacter:
    """Finitely supported integer combination of monomials q^n x^weight."""

    __slots__ = ("rank", "terms")

    def __init__(self, rank: int, terms: dict[Key, int] | None = None):
        self.rank = rank
        self.terms: dict[Key, int] = {k: c for k, c in (terms or {}).items() if c}

    @classmethod
    def one(cls, rank: int) -> GradedCharacter:
        return cls(rank, {((0,) * rank, 0): 1})

    def __eq__(self, other) -> bool:
        return isinstance(other, GradedCharacter) and self.terms == other.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def coefficient(self, weight: Weight, q: int = 0) -> int:
        return self.terms.get((weight.coords, q), 0)

    def __add__(self, other: GradedCharacter) -> GradedCharacter:
        out = Counter(self.terms)
        out.update(other.terms)
        return GradedCharacter(self.rank, out)

    def __sub__(self, other: GradedCharacter) -> GradedCharacter:
        out = Counter(self.terms)
        out.subtract(other.terms)
        return GradedCharacter(self.rank, out)

    def __mul__(self, other) -> GradedCharacter:
        if isinstance(other, int):
            return GradedCharacter(self.rank, {k: other * c for k, c in self.terms.items()})
        out: Counter = Counter()
        for (w1, q1), c1 in self.terms.items():
            for (w2, q2), c2 in other.terms.items():
                key = (tuple(a + b for a, b in zip(w1, w2)), q1 + q2)
                out[key] += c1 * c2
        return GradedCharacter(self.rank, out)

    __rmul__ = __mul__

    def q_layer(self, n: int) -> GradedCharacter:
        return GradedCharacter(self.rank, {(w, 0): c for (w, q), c in self.terms.items() if q == n})

    def q_exponents(self) -> tuple[int, ...]:
        return tuple(sorted({q for _, q in self.terms}))

    def specialize_q_one(self) -> GradedCharacter:
        out: Counter = Counter()
        for (w, _), c in self.terms.items():
            out[(w, 0)] += c
        return GradedCharacter(self.rank, out)

    def is_symmetric(self, datum: RootDatum) -> bool:
        """Whether every simple reflection keeps each coefficient."""
        supports = _root_supports(datum)
        return all(_layer_is_symmetric(layer, supports) for layer in self._layers().values())

    def _layers(self) -> dict[int, dict[tuple[int, ...], int]]:
        """The terms split by power of q, in one pass: q -> weight -> coefficient."""
        layers: defaultdict[int, dict[tuple[int, ...], int]] = defaultdict(dict)
        for (w, q), c in self.terms.items():
            layers[q][w] = c
        return layers

    def _ordered(self) -> list[tuple[Key, int]]:
        """The terms by ascending q, then descending weight; neither sort needs a key."""
        layers = self._layers()
        return [((w, q), layer[w]) for q, layer in sorted(layers.items())
                for w in sorted(layer, reverse=True)]

    def to_json_list(self) -> list[dict]:
        return [
            {"weight": list(w), "q": q, "coeff": c} for (w, q), c in self._ordered()
        ]

    def json_terms(self) -> str:
        """Exactly the text of json.dumps(self.to_json_list(), indent=2) nested
        one level deep (every line after the first indented by two more
        spaces), written one term at a time."""
        if not self.terms:
            return "[]"
        sep = ",\n        "
        return "[\n" + ",\n".join(
            f'    {{\n      "weight": [\n        {sep.join(map(str, w))}\n      ],\n'
            f'      "q": {q},\n      "coeff": {c}\n    }}'
            for (w, q), c in self._ordered()
        ) + "\n  ]"

    def __str__(self) -> str:
        return _monomial_sum(((q, w, c) for (w, q), c in self._ordered()), "x^")

    def orbit_line(self, datum: RootDatum) -> str:
        """One-line form grouping each Weyl orbit into a single symbol."""
        if not self.is_symmetric(datum):
            raise InputError("character is not constant on a Weyl orbit")
        dominant = ((q, w, c) for (w, q), c in self._ordered() if datum.is_dominant(Weight(w)))
        return _monomial_sum(dominant, "m")


def _monomial_sum(terms, symbol: str) -> str:
    """Render (q, coords, coeff) triples as coeff*q^n*symbol(coords) joined by
    ' + '; a coefficient of 1 and the power q^0 are left out, and the empty sum
    is 0."""
    parts = []
    for q, coords, c in terms:
        factors = [] if c == 1 else [str(c)]
        if q == 1:
            factors.append("q")
        elif q > 1:
            factors.append(f"q^{q}")
        factors.append(symbol + "(" + ", ".join(str(x) for x in coords) + ")")
        parts.append("*".join(factors))
    return " + ".join(parts) if parts else "0"


# ------------------------------------------------------------- model routes


def character_from_alcove(chain: LambdaChain) -> GradedCharacter:
    """Sum of q^height x^weight over all admissible subsets of the chain,
    counted off the walk without building a subset; each distinct packed
    weight is unpacked once."""
    counts = Counter((x, height) for _, _, _, _, x, height in alcove_model.walk_admissible(chain))
    coords = {x: chain.packing.unpack(x).coords for x in {x for x, _ in counts}}
    terms = {(coords[x], height): c for (x, height), c in counts.items()}
    return GradedCharacter(chain.datum.rank, terms)


def character_from_qls(datum: RootDatum, lam: Weight) -> GradedCharacter:
    """Sum of q^(-deg) x^weight over QLS(lam), from the paper's definition of
    its paths without visiting them one by one; no root operator is applied.

    A path with points x_1, ..., x_s and cuts 0 = a_0 < ... < a_s = L has
    L wt = L mu_{x_s} + sum_{k<s} a_k (mu_{x_k} - mu_{x_{k+1}}) and
    -L deg = sum_{k<s} (L - a_k) w_k, w_k the weight with which x_{k+1}
    follows x_k in `break_children`: one term per break.  So the multiset
    F(y, a) of (L wt, -L deg) over the paths that start at y and break only
    after cut a is {L mu_y} plus, over the cuts a' > a and the followers
    (z, w) of y at a', F(z, a') shifted by (a' (mu_y - mu_z), (L - a') w).
    One table per point holds F(y, a) as the cuts go down, a cut copies only
    the tables of the points that follow there, and a table no later cut
    reads goes into the character, the sum of F(y, 0) over y.  A key is
    L wt under a `crystal.WeightPacking` plus -L deg times its `carry`, so a
    shift is one addition and `split` reads both back; every path lands in
    one key, so checking each distinct key once checks every path.
    """
    graph = orbit_graph(datum, lam)  # refuses a weight that is not dominant
    L, rank = graph.L, datum.rank
    cuts, children = qls_model.break_children(graph)
    # L wt lies in L conv(W lam), whose coordinates the orbit points bound
    packing = WeightPacking(datum, L * max(abs(c) for mu in graph.points for c in mu.coords))
    linear = [packing.linear(mu.coords) for mu in graph.points]
    # per denominator: the points with followers there, and those followers
    leaders = {v: [(y, kids[v]) for y, kids in enumerate(children) if kids[v]] for v in {v for _, v in cuts}}
    followers = {v: {z for _, kids in pairs for z, _ in kids} for v, pairs in leaders.items()}
    # F(y, L): y's straight path
    tables = [{L * x: 1} for x in linear]
    # a table that no later cut reads is added into the character, which then
    # takes its place, so only the tables still to be read are kept
    counts: Counter = Counter()
    last = {z: i for i, (_, v) in enumerate(reversed(cuts)) for z in followers[v]}
    read_last: defaultdict[int, list[int]] = defaultdict(list)
    for y in range(len(tables)):
        read_last[last.get(y, -1)].append(y)
    for i, (a, v) in enumerate(reversed(cuts)):
        for y in read_last[i - 1]:
            counts.update(tables[y])
            tables[y] = counts
        frozen = {z: dict(tables[z]) for z in followers[v]}
        for y, kids in leaders[v]:
            table = tables[y]
            for z, w in kids:
                shift = a * (linear[y] - linear[z]) + (L - a) * w * packing.carry
                for key, c in frozen[z].items():
                    key += shift
                    table[key] = table.get(key, 0) + c
    for table in tables:
        if table is not counts:
            counts.update(table)
    terms = {}
    for key, c in counts.items():
        neg_deg, total = packing.split(key)
        terms[(qls_model._integral_coords(total, L), -qls_model._whole(-neg_deg, L, "degree"))] = c
    return GradedCharacter(rank, terms)


# ----------------------------------------------------------- oracle route


def _reflect(datum: RootDatum, coords: tuple[int, ...], i: int) -> tuple[int, ...]:
    """s_i(mu) = mu - <alpha_i^vee, mu> alpha_i on fundamental-weight coordinates."""
    alpha = datum.root_weights[datum.simple_root_index[i]]
    return tuple(m - coords[i] * a for m, a in zip(coords, alpha))


def _root_supports(datum: RootDatum) -> list[list[tuple[int, int]]]:
    """Per node i, the nonzero fundamental-weight coordinates (j, a_j) of
    alpha_i: node i and its neighbours in the Dynkin diagram."""
    return [
        [(j, a) for j, a in enumerate(datum.root_weights[datum.simple_root_index[i]]) if a]
        for i in range(datum.rank)
    ]


def _layer_is_symmetric(layer: dict[tuple[int, ...], int], supports) -> bool:
    """Whether every simple reflection keeps each coefficient of one q-layer."""
    # s_i fixes the terms with mu_i = 0 and swaps the sides mu_i > 0 and
    # mu_i < 0; no coefficient is 0, so it suffices that each term with
    # mu_i > 0 meets its coefficient at its image and that both sides have
    # as many terms
    for i, support in enumerate(supports):
        balance = 0
        for mu, c in layer.items():
            m = mu[i]
            if m > 0:
                balance += 1
                image = list(mu)
                for j, a in support:
                    image[j] -= m * a
                if layer.get(tuple(image)) != c:
                    return False
            elif m < 0:
                balance -= 1
        if balance:
            return False
    return True


def dominant_representative(datum: RootDatum, wt: Weight) -> Weight:
    current = wt.coords
    while True:
        for i in range(datum.rank):
            if current[i] < 0:
                current = _reflect(datum, current, i)
                break
        else:
            return Weight(current)


def _dominant_multiplicities(datum: RootDatum, lam: Weight) -> dict[Weight, int]:
    """Multiplicity of every dominant weight of the module."""
    if not datum.is_dominant(lam):
        raise InputError(f"weight {lam.coords} is not dominant")
    # candidates: the dominant weights below lam, each reached from lam by
    # subtracting positive roots through dominant weights (Stembridge), with
    # its depth lam - mu in simple-root coordinates
    positive = list(zip(datum.root_weights, datum.positive_roots))
    candidates: dict[Weight, tuple[int, ...]] = {lam: (0,) * datum.rank}
    stack = [lam]
    while stack:
        wt = stack.pop()
        for alpha_wt, alpha_coords in positive:
            lower = Weight(tuple(m - a for m, a in zip(wt.coords, alpha_wt)))
            if lower not in candidates and datum.is_dominant(lower):
                candidates[lower] = tuple(d + a for d, a in zip(candidates[wt], alpha_coords))
                stack.append(lower)
    # the invariant form (mu, beta) = sum_j d_j mu_j beta_j of a weight and an
    # element in root coordinates is an integer, since the symmetrizers d_j
    # are; so is the denominator |lam+rho|^2 - |mu+rho|^2 = (lam-mu, lam+mu+2rho)
    sym = datum.symmetrizers
    lam_2rho = tuple(a + 2 * r for a, r in zip(lam.coords, datum.rho.coords))
    mult: dict[Weight, int] = {}
    for wt in sorted(candidates, key=lambda w: sum(candidates[w])):
        depth = candidates[wt]
        if sum(depth) == 0:
            mult[wt] = 1
            continue
        acc = 0
        for alpha_wt, alpha_coords in positive:
            k = 1
            while all(d - k * a >= 0 for d, a in zip(depth, alpha_coords)):
                shifted = wt + Weight(tuple(k * x for x in alpha_wt))
                m = mult.get(dominant_representative(datum, shifted), 0)
                if m:
                    acc += m * sum(s * x * a for s, x, a in zip(sym, shifted.coords, alpha_coords))
                k += 1
        denominator = sum(s * x * (a + t) for s, x, a, t in zip(sym, depth, wt.coords, lam_2rho))
        if denominator <= 0:
            raise InternalError("multiplicity recursion hit a nonpositive denominator")
        value, remainder = divmod(2 * acc, denominator)
        if remainder or value <= 0:
            raise InternalError(f"multiplicity at {wt.coords} is not a positive integer")
        mult[wt] = value
    return mult


def weyl_character(datum: RootDatum, lam: Weight) -> GradedCharacter:
    """Character of the irreducible highest-weight module; exact and q-free.

    Each dominant weight's orbit is walked down: from mu, s_i applies where mu_i > 0.
    """
    terms: dict[Key, int] = {}
    for wt, m in _dominant_multiplicities(datum, lam).items():
        stack = [wt.coords]
        terms[(wt.coords, 0)] = m
        while stack:
            mu = stack.pop()
            for i in (i for i, c in enumerate(mu) if c > 0):
                image = _reflect(datum, mu, i)
                if (image, 0) not in terms:
                    terms[(image, 0)] = m
                    stack.append(image)
    return GradedCharacter(datum.rank, terms)


def decompose(datum: RootDatum, character: GradedCharacter) -> list[tuple[int, tuple[int, ...], int]]:
    """Expansion into irreducible characters per q-layer, by the Brauer-Klimyk
    rule: a term mu with w(mu + rho) = nu + rho dominant and regular adds its
    coefficient, signed by w, to chi(nu); a term with mu + rho on a wall adds
    nothing.  Returns (q, highest weight, coefficient) triples, highest first by
    <2 rho^vee, nu>; fails if the input is not a nonnegative integer combination.
    """
    # <2 rho^vee, nu> is twice the height of nu in root coordinates
    unit = [sum(column) for column in zip(*datum.positive_coroots)]
    supports = _root_supports(datum)
    out: list[tuple[int, tuple[int, ...], int]] = []
    for q, layer in sorted(character._layers().items()):
        failure = InputError(
            f"layer q^{q} is not a nonnegative combination of irreducible characters"
        )
        if not _layer_is_symmetric(layer, supports):
            raise failure
        mult: Counter = Counter()
        for mu, c in layer.items():
            # x = mu + rho; rho is (1, ..., 1) in fundamental-weight coordinates,
            # and a zero coordinate puts x on a wall, where it cancels out
            x = [m + 1 for m in mu]
            while 0 not in x:
                low = min(x)
                if low > 0:
                    mult[tuple(a - 1 for a in x)] += c
                    break
                for j, a in supports[x.index(low)]:
                    x[j] -= low * a
                c = -c
        if any(m < 0 for m in mult.values()):
            raise failure
        height = {nu: sum(u * a for u, a in zip(unit, nu)) for nu, m in mult.items() if m}
        for nu in sorted(height, key=lambda nu: (height[nu], nu), reverse=True):
            out.append((q, nu, mult[nu]))
    return out


def format_decomposition(parts) -> str:
    return _monomial_sum(parts, "chi")


# ------------------------------------------------------------------ verdict


def verify_p_equals_x(datum: RootDatum, lam: Weight, chain: LambdaChain | None = None) -> dict:
    """Compare the two model characters and cross-check them on four axes."""
    if chain is None:
        chain = lex_chain(datum, lam)
    from_alcove = character_from_alcove(chain)
    from_paths = character_from_qls(datum, lam)
    mismatches: list[dict] = []
    keys = set(from_alcove.terms) | set(from_paths.terms)
    for w, q in sorted(keys):
        a, b = from_alcove.terms.get((w, q), 0), from_paths.terms.get((w, q), 0)
        if a != b:
            mismatches.append({"weight": list(w), "q": q, "alcove": a, "qls": b})
    models_agree = not mismatches

    oracle = weyl_character(datum, lam)
    classical = from_paths.q_layer(0)
    classical_ok = classical == oracle
    if not classical_ok:
        for w, q in sorted(set(classical.terms) | set(oracle.terms)):
            a, b = classical.terms.get((w, q), 0), oracle.terms.get((w, q), 0)
            if a != b:
                mismatches.append({"weight": list(w), "q": 0, "classical": a, "oracle": b})

    symmetric = from_paths.is_symmetric(datum)

    product = GradedCharacter.one(datum.rank)
    for i, c in enumerate(lam.coords, start=1):
        if c:
            omega = datum.fundamental_weight(i)
            # a fundamental lambda is its own single-column factor
            column = from_paths if omega == lam else character_from_qls(datum, omega)
            factor = column.specialize_q_one()
            for _ in range(c):
                product = product * factor
    factorization_ok = from_paths.specialize_q_one() == product
    if not factorization_ok:
        mismatches.append({"kind": "tensor_factorization"})

    ok = models_agree and classical_ok and symmetric and factorization_ok
    report = {
        "lambda": list(lam.coords),
        "checks": {
            "models_agree": models_agree,
            "classical_layer": classical_ok,
            "symmetric": symmetric,
            "tensor_factorization": factorization_ok,
        },
        "pass": ok,
        "mismatches": mismatches,
        "character": from_paths.to_json_list(),
        "decomposition": format_decomposition(decompose(datum, from_paths)) if ok else None,
    }
    return report
