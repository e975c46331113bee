"""Graded characters: both model routes, the multiplicity oracle, verdicts."""

import itertools
import json
import math
import re
from collections import Counter
from fractions import Fraction

import pytest

from qalcove import characters, qls_model
from qalcove.alcove_model import lex_chain
from qalcove.characters import (
    GradedCharacter,
    character_from_alcove,
    character_from_qls,
    decompose,
    dominant_representative,
    format_decomposition,
    verify_p_equals_x,
    weyl_character,
)
from qalcove.lie_data import InputError, InternalError, RootDatum, Weight, build_root_datum

A1 = build_root_datum("A", 1)
A2 = build_root_datum("A", 2)
A3 = build_root_datum("A", 3)
B2 = build_root_datum("B", 2)
C2 = build_root_datum("C", 2)
G2 = build_root_datum("G", 2)


def alcove_char(datum, lam):
    return character_from_alcove(lex_chain(datum, Weight(lam)))


# ----------------------------------------------------------- graded algebra


def test_container_drops_zero_coefficients():
    ch = GradedCharacter(1, {((2,), 0): 1, ((0,), 1): 0})
    assert ch.terms == {((2,), 0): 1}
    assert ch.coefficient(Weight((2,))) == 1
    assert ch.coefficient(Weight((0,)), 1) == 0


def test_sum_difference_and_scalar_multiple():
    a = GradedCharacter(1, {((2,), 0): 1, ((0,), 1): 3})
    b = GradedCharacter(1, {((2,), 0): 1})
    assert (a - b).terms == {((0,), 1): 3}
    assert (a + b).terms == {((2,), 0): 2, ((0,), 1): 3}
    assert (2 * b).terms == {((2,), 0): 2}


def test_product_adds_weights_and_degrees():
    a = GradedCharacter(1, {((1,), 0): 1, ((-1,), 1): 1})
    square = a * a
    assert square.terms == {((2,), 0): 1, ((0,), 1): 2, ((-2,), 2): 1}
    assert GradedCharacter.one(1) * a == a


def test_layers_and_q_one_specialization():
    a = GradedCharacter(2, {((1, 0), 0): 1, ((1, 0), 2): 4})
    assert a.q_exponents() == (0, 2)
    assert a.q_layer(2).terms == {((1, 0), 0): 4}
    assert a.specialize_q_one().terms == {((1, 0), 0): 5}


def test_string_form_sorts_by_degree_then_weight():
    a = GradedCharacter(1, {((0,), 1): 1, ((2,), 0): 1, ((-2,), 0): 2})
    assert str(a) == "x^(2) + 2*x^(-2) + q*x^(0)"
    assert str(GradedCharacter(1)) == "0"


def test_orbit_line_groups_weyl_orbits():
    ch = alcove_char(A1, (2,))
    assert ch.orbit_line(A1) == "m(2) + m(0) + q*m(0)"
    lopsided = GradedCharacter(1, {((1,), 0): 1})
    with pytest.raises(InputError, match="orbit"):
        lopsided.orbit_line(A1)
    assert weyl_character(G2, Weight((1, 0))).orbit_line(G2) == "m(1, 0) + m(0, 0)"


def test_all_three_forms_share_the_monomial_rule():
    # a coefficient other than 1 is printed, even when negative; q^n for n >= 2
    assert str(GradedCharacter(1, {((1,), 2): -1})) == "-1*q^2*x^(1)"
    orbit = GradedCharacter(1, {((1,), 2): -1, ((-1,), 2): -1})
    assert orbit.orbit_line(A1) == "-1*q^2*m(1)"
    assert format_decomposition([(2, (1,), -1)]) == "-1*q^2*chi(1)"
    assert GradedCharacter(1).orbit_line(A1) == "0"
    assert format_decomposition([]) == "0"


def test_json_form_is_sorted_and_round_trips():
    ch = alcove_char(A1, (2,))
    rows = ch.to_json_list()
    assert rows == [
        {"weight": [2], "q": 0, "coeff": 1},
        {"weight": [0], "q": 0, "coeff": 1},
        {"weight": [-2], "q": 0, "coeff": 1},
        {"weight": [0], "q": 1, "coeff": 1},
    ]


def _nested_once(text: str) -> str:
    """json.dumps(..., indent=2) text moved one nesting level deeper."""
    return text.replace("\n", "\n  ")


@pytest.mark.parametrize(
    "letter, rank, lam",
    [
        ("A", 1, (1,)),
        ("A", 1, (12,)),
        ("A", 3, (1, 1, 1)),
        ("B", 3, (0, 1, 1)),
        ("C", 3, (1, 0, 1)),
        ("D", 4, (0, 0, 1, 1)),
        ("E", 6, (1, 0, 0, 0, 0, 0)),
        ("F", 4, (0, 0, 0, 1)),
        ("G", 2, (2, 1)),
    ],
)
def test_json_terms_are_the_json_module_text_nested_once(letter, rank, lam):
    datum = build_root_datum(letter, rank)
    for ch in (alcove_char(datum, lam), character_from_qls(datum, Weight(lam))):
        assert ch.json_terms() == _nested_once(json.dumps(ch.to_json_list(), indent=2))


def test_json_terms_of_hand_made_characters():
    # a negative coefficient, a large one, a two-digit q and coordinates of
    # both signs; the zero character is the empty list
    ch = GradedCharacter(2, {((1, -1), 0): -3, ((0, 0), 15): 1, ((-10, 12), 3): 1234567})
    assert ch.json_terms() == _nested_once(json.dumps(ch.to_json_list(), indent=2))
    assert ch.json_terms().startswith('[\n    {\n      "weight": [\n        1,\n        -1\n')
    assert GradedCharacter(1).json_terms() == "[]" == json.dumps([], indent=2)


# ------------------------------------------------------------ model routes


def test_zero_weight_character_is_one():
    assert alcove_char(A2, (0, 0)) == GradedCharacter.one(2)
    assert character_from_qls(A2, Weight((0, 0))) == GradedCharacter.one(2)


def test_rank_one_doubled_weight_has_four_terms():
    ch = alcove_char(A1, (2,))
    assert ch.terms == {
        ((2,), 0): 1,
        ((0,), 0): 1,
        ((-2,), 0): 1,
        ((0,), 1): 1,
    }


def test_vector_weight_characters_match_orbit():
    ch = alcove_char(A2, (1, 0))
    assert ch.terms == {((1, 0), 0): 1, ((-1, 1), 0): 1, ((0, -1), 0): 1}
    assert ch == character_from_qls(A2, Weight((1, 0)))


@pytest.mark.parametrize(
    "datum, lam",
    [
        (A1, (3,)),
        (A2, (1, 1)),
        (A2, (2, 0)),
        (C2, (1, 0)),
        (C2, (0, 1)),
        (C2, (1, 1)),
        (B2, (1, 1)),
        (G2, (1, 0)),
        (A3, (0, 1, 0)),
    ],
)
def test_both_routes_agree(datum, lam):
    assert alcove_char(datum, lam) == character_from_qls(datum, Weight(lam))


@pytest.mark.parametrize(
    "label, rank, lam",
    [("C", 3, (1, 1, 1)), ("B", 3, (1, 1, 1)), ("G", 2, (2, 1)), ("D", 4, (1, 0, 1, 1))],
)
def test_both_routes_agree_beyond_the_benchmark_ladder(label, rank, lam):
    # the weights whose closure of the QLS crystal took a second or more
    datum = build_root_datum(label, rank)
    assert alcove_char(datum, lam) == character_from_qls(datum, Weight(lam))


# the alcove ladder's twelve weights, then B, C, F and G weights that break
# at several denominators
SUFFIX_SUM_CASES = [
    ("A", 3, (1, 1, 1)),
    ("G", 2, (1, 1)),
    ("C", 3, (1, 0, 1)),
    ("B", 3, (0, 1, 1)),
    ("D", 4, (0, 0, 1, 1)),
    ("C", 4, (1, 0, 0, 1)),
    ("A", 4, (1, 1, 1, 1)),
    ("B", 3, (1, 1, 1)),
    ("C", 3, (1, 1, 1)),
    ("G", 2, (2, 1)),
    ("D", 4, (1, 0, 1, 1)),
    ("C", 4, (0, 1, 0, 1)),
    ("G", 2, (2, 2)),
    ("C", 3, (0, 2, 0)),
    ("C", 4, (1, 1, 1, 1)),
    ("F", 4, (0, 1, 0, 0)),
    ("B", 4, (0, 0, 0, 2)),
]


@pytest.mark.parametrize("label, rank, lam", SUFFIX_SUM_CASES)
def test_qls_character_equals_the_sum_over_enumerated_paths(label, rank, lam):
    datum = build_root_datum(label, rank)
    reference = Counter((weight.coords, neg_deg) for _, _, weight, neg_deg
                        in qls_model.enumerate_paths(datum, Weight(lam)))
    assert character_from_qls(datum, Weight(lam)) == GradedCharacter(rank, reference)


def test_chain_order_does_not_change_the_character():
    lam = Weight((1, 1))
    reference = character_from_alcove(lex_chain(A2, lam))
    for order in itertools.permutations((1, 2)):
        chain = lex_chain(A2, lam, node_order=order)
        assert character_from_alcove(chain) == reference


# ------------------------------------------------------------ oracle route


def test_rank_one_irreducible_characters_are_strings_of_weights():
    ch = weyl_character(A1, Weight((2,)))
    assert ch.terms == {((2,), 0): 1, ((0,), 0): 1, ((-2,), 0): 1}
    for n in range(4):
        assert sum(weyl_character(A1, Weight((n,))).terms.values()) == n + 1


@pytest.mark.parametrize(
    "datum, lam, dim",
    [
        (A2, (1, 0), 3),
        (A2, (1, 1), 8),
        (A2, (2, 0), 6),
        (A3, (1, 0, 0), 4),
        (A3, (0, 1, 0), 6),
        (A3, (0, 0, 1), 4),
        (C2, (1, 0), 4),
        (C2, (0, 1), 5),
        (C2, (2, 0), 10),
        (C2, (0, 2), 14),
        (C2, (1, 1), 16),
        (B2, (1, 0), 5),
        (B2, (0, 1), 4),
        (B2, (1, 1), 16),
        (G2, (1, 0), 7),
        (G2, (0, 1), 14),
        (build_root_datum("E", 6), (1, 0, 0, 0, 0, 0), 27),
        (build_root_datum("E", 7), (0, 0, 0, 0, 0, 0, 1), 56),
        (build_root_datum("F", 4), (1, 0, 0, 0), 52),
        (build_root_datum("F", 4), (0, 0, 0, 1), 26),
        (build_root_datum("B", 5), (0, 0, 0, 0, 1), 32),
        (build_root_datum("D", 5), (1, 0, 0, 0, 0), 10),
        (build_root_datum("E", 8), (0, 0, 0, 0, 0, 0, 0, 1), 248),
        (build_root_datum("E", 8), (1, 0, 0, 0, 0, 0, 0, 0), 3875),
    ],
)
def test_classical_dimensions(datum, lam, dim):
    # textbook dimensions of the small irreducible modules
    ch = weyl_character(datum, Weight(lam))
    assert sum(ch.terms.values()) == dim
    assert ch.is_symmetric(datum)


def _symmetric_by_reflected_dicts(ch, datum):
    """The former rule: one whole reflected term dict per simple reflection."""
    return all(
        {(characters._reflect(datum, w, i), q): c for (w, q), c in ch.terms.items()} == ch.terms
        for i in range(datum.rank)
    )


@pytest.mark.parametrize(
    "datum, lam",
    [(A2, (1, 1)), (C2, (2, 1)), (G2, (1, 1)), (build_root_datum("B", 3), (0, 1, 1)), (A3, (1, 0, 1))],
)
def test_symmetry_check_equals_the_reflected_dict_rule(datum, lam):
    ch = character_from_qls(datum, Weight(lam))
    layers = [ch] + [ch.q_layer(q) for q in ch.q_exponents()]
    for layer in layers:
        assert layer.is_symmetric(datum) and _symmetric_by_reflected_dicts(layer, datum)
    # one term moved to a weight of another orbit breaks the symmetry
    top = next(layer for layer in reversed(layers) if any(any(w) for w, _ in layer.terms))
    (w, q), c = next((key, c) for key, c in top.terms.items() if any(key[0]))
    moved = dict(top.terms)
    del moved[(w, q)]
    moved[(tuple(x + 1 for x in w), q)] = moved.get((tuple(x + 1 for x in w), q), 0) + c
    broken = GradedCharacter(datum.rank, moved)
    assert not broken.is_symmetric(datum)
    assert not _symmetric_by_reflected_dicts(broken, datum)
    # a coefficient changed on one term of an orbit, keeping the key set
    changed = GradedCharacter(datum.rank, {**top.terms, (w, q): c + 1})
    assert not changed.is_symmetric(datum)
    assert not _symmetric_by_reflected_dicts(changed, datum)
    # an extra term at an antidominant weight of a new orbit has mu_i < 0 for
    # every i: each term with mu_i > 0 still meets its image, and only the
    # count of the two sides catches it
    low = -1 - max(abs(x) for key in top.terms for x in key[0])
    unmatched = GradedCharacter(datum.rank, {**top.terms, ((low,) * datum.rank, q): 1})
    assert all(
        unmatched.terms.get((characters._reflect(datum, mu, i), n)) == c
        for i in range(datum.rank)
        for (mu, n), c in unmatched.terms.items()
        if mu[i] > 0
    )
    assert not unmatched.is_symmetric(datum)
    assert not _symmetric_by_reflected_dicts(unmatched, datum)


def test_interior_multiplicities():
    # adjoint modules carry the zero weight with multiplicity = rank
    assert weyl_character(A2, Weight((1, 1))).coefficient(Weight((0, 0))) == 2
    assert weyl_character(G2, Weight((0, 1))).coefficient(Weight((0, 0))) == 2
    assert weyl_character(G2, Weight((1, 0))).coefficient(Weight((0, 0))) == 1
    # 16-dimensional C2 module: orbit of (1,1) has size 8, orbit of (1,0) size 4
    assert weyl_character(C2, Weight((1, 1))).coefficient(Weight((1, 0))) == 2


def _inner(datum, wt, root_coords):
    """Invariant pairing of a weight with an element given in root coordinates."""
    d = datum.symmetrizers
    return sum(
        (Fraction(d[j]) * wt.coords[j] * Fraction(root_coords[j]) for j in range(datum.rank)),
        Fraction(0),
    )


def _root_coords(datum, wt):
    """The coordinates of a weight in the simple roots, as fractions."""
    return tuple(Fraction(c, datum.cartan_inverse[1]) for c in datum.weight_in_root_coords(wt))


def _norm(datum, wt):
    return _inner(datum, wt, _root_coords(datum, wt))


def _fraction_multiplicities(datum, lam):
    """The Freudenthal recursion in Fractions, as the oracle computed it before
    it ran in integers: norms from root coordinates, an exact quotient."""
    positive = list(zip(datum.root_weights, datum.positive_roots))
    candidates = {lam: (0,) * datum.rank}
    stack = [lam]
    while stack:
        wt = stack.pop()
        for alpha_wt, alpha_coords in positive:
            lower = Weight(tuple(m - a for m, a in zip(wt.coords, alpha_wt)))
            if lower not in candidates and datum.is_dominant(lower):
                candidates[lower] = tuple(d + a for d, a in zip(candidates[wt], alpha_coords))
                stack.append(lower)
    rho = datum.rho
    top_norm = _norm(datum, lam + rho)
    mult = {}
    for wt in sorted(candidates, key=lambda w: sum(candidates[w])):
        depth = candidates[wt]
        if sum(depth) == 0:
            mult[wt] = 1
            continue
        acc = Fraction(0)
        for alpha_wt, alpha_coords in positive:
            k = 1
            while all(d - k * a >= 0 for d, a in zip(depth, alpha_coords)):
                shifted = wt + Weight(tuple(k * x for x in alpha_wt))
                m = mult.get(dominant_representative(datum, shifted), 0)
                if m:
                    acc += m * _inner(datum, shifted, alpha_coords)
                k += 1
        denominator = top_norm - _norm(datum, wt + rho)
        assert denominator > 0
        value = 2 * acc / denominator
        assert value.denominator == 1 and value > 0
        mult[wt] = int(value)
    return mult


def _weyl_dimension(datum, lam):
    """prod over the positive roots of <alpha^vee, lam + rho> / <alpha^vee, rho>."""
    dim = Fraction(1)
    for coroot in datum.positive_coroots:
        dim *= Fraction(sum(c * (x + 1) for c, x in zip(coroot, lam)), sum(coroot))
    return dim


# the alcove-ladder weights of the benchmark, then four beyond any workload,
# then the big-group weights and the minuscule E7 omega_7
ORACLE_CASES = [
    ("A", 3, (1, 1, 1)),
    ("G", 2, (1, 1)),
    ("C", 3, (1, 0, 1)),
    ("B", 3, (0, 1, 1)),
    ("D", 4, (0, 0, 1, 1)),
    ("C", 4, (1, 0, 0, 1)),
    ("A", 4, (1, 1, 1, 1)),
    ("B", 3, (1, 1, 1)),
    ("C", 3, (1, 1, 1)),
    ("G", 2, (2, 1)),
    ("D", 4, (1, 0, 1, 1)),
    ("C", 4, (0, 1, 0, 1)),
    ("E", 6, (0, 1, 0, 0, 0, 0)),
    ("F", 4, (1, 0, 0, 1)),
    ("A", 5, (1, 1, 1, 1, 1)),
    ("E", 8, (0, 0, 0, 0, 0, 0, 0, 1)),
    ("F", 4, (1, 0, 0, 0)),
    ("B", 5, (0, 0, 0, 0, 1)),
    ("D", 5, (1, 0, 0, 0, 0)),
    ("A", 6, (0, 0, 1, 0, 0, 0)),
    ("E", 7, (0, 0, 0, 0, 0, 0, 1)),
]
ORACLE_IDS = [f"{t}{n}-{''.join(map(str, lam))}" for t, n, lam in ORACLE_CASES]


@pytest.mark.parametrize("label, rank, lam", ORACLE_CASES, ids=ORACLE_IDS)
def test_integer_oracle_equals_the_fraction_recursion(label, rank, lam):
    datum = RootDatum(label, rank)
    mult = characters._dominant_multiplicities(datum, Weight(lam))
    assert mult == {wt.coords: m for wt, m in _fraction_multiplicities(datum, Weight(lam)).items()}
    assert all(type(m) is int for m in mult.values())
    assert sum(weyl_character(datum, Weight(lam)).terms.values()) == _weyl_dimension(datum, lam)


@pytest.mark.parametrize(
    "label, rank, lam, symmetrizers, message",
    [
        ("G", 2, (1, 1), (1, 4), "multiplicity at (0, 1) is not a positive integer"),
        ("F", 4, (1, 0, 0, 0), (2, 3, 1, 1), "multiplicity at (0, 0, 0, 0) is not a positive integer"),
        ("G", 2, (1, 1), (1, -3), "nonpositive denominator"),
    ],
    ids=["G2-one-entry-off", "F4-one-entry-off", "G2-one-sign-off"],
)
def test_oracle_fails_on_a_corrupted_symmetrizer(label, rank, lam, symmetrizers, message):
    # one entry of the invariant form's symmetrizers changed: the recursion no
    # longer yields positive integers, and the oracle says so
    datum = RootDatum(label, rank)
    assert sum(a != b for a, b in zip(datum.symmetrizers, symmetrizers)) == 1
    datum.__dict__["symmetrizers"] = symmetrizers
    with pytest.raises(InternalError, match=re.escape(message)):
        weyl_character(datum, Weight(lam))


def test_decomposition_never_runs_the_oracle(monkeypatch):
    A4 = build_root_datum("A", 4)
    ch = character_from_qls(A4, A4.rho)
    calls = []
    oracle = characters._dominant_multiplicities

    def counted(datum, lam):
        calls.append(lam)
        return oracle(datum, lam)

    monkeypatch.setattr(characters, "_dominant_multiplicities", counted)
    parts = decompose(A4, ch)
    # 16 (q, top) pairs over 9 distinct tops, read off the terms alone
    assert len(parts) == 16
    assert len({top for _, top, _ in parts}) == 9
    assert calls == []


def _peel(datum, character):
    """The greedy peel that decomposed characters before the Brauer-Klimyk
    rule: subtract the irreducible character of the highest remaining dominant
    weight, found by Fraction heights in root coordinates, until none is left."""
    omegas = (datum.fundamental_weight(i) for i in range(1, datum.rank + 1))
    heights = [sum(_root_coords(datum, omega)) for omega in omegas]
    scale = math.lcm(*(h.denominator for h in heights))
    unit = [int(h * scale) for h in heights]
    known = {}
    out = []
    for q in character.q_exponents():
        layer = character.q_layer(q)
        failure = InputError(
            f"layer q^{q} is not a nonnegative combination of irreducible characters"
        )
        if not layer.is_symmetric(datum):
            raise failure
        rest = {w: c for (w, _), c in layer.terms.items() if datum.is_dominant(Weight(w))}
        height = {w: sum(u * x for u, x in zip(unit, w)) for w in rest}
        while rest:
            if any(c < 0 for c in rest.values()):
                raise failure
            top = max(rest, key=lambda w: (height[w], w))
            coeff = rest[top]
            if top not in known:
                known[top] = characters._dominant_multiplicities(datum, Weight(top))
            for wt, m in known[top].items():
                rest[wt] = rest.get(wt, 0) - coeff * m
            rest = {w: c for w, c in rest.items() if c}
            out.append((q, top, coeff))
    return out


# the two crystals that take seconds to enumerate; the oracle gives a character
QLS_TOO_SLOW = {("A", 5), ("E", 8)}


@pytest.mark.parametrize("label, rank, lam", ORACLE_CASES, ids=ORACLE_IDS)
def test_decomposition_equals_the_peel(label, rank, lam):
    datum = RootDatum(label, rank)
    if (label, rank) in QLS_TOO_SLOW:
        ch = weyl_character(datum, Weight(lam))
    else:
        ch = character_from_qls(datum, Weight(lam))
    assert decompose(datum, ch) == _peel(datum, ch)


def test_oracle_rejects_non_dominant_weight():
    with pytest.raises(InputError, match="dominant"):
        weyl_character(A2, Weight((-1, 0)))


def test_dominant_representative():
    assert dominant_representative(A2, Weight((-1, 1))) == Weight((1, 0))
    assert dominant_representative(C2, Weight((0, -1))) == Weight((0, 1))
    assert dominant_representative(A1, Weight((3,))) == Weight((3,))
    assert dominant_representative(G2, Weight((2, -1))) == Weight((1, 0))
    B3 = build_root_datum("B", 3)
    assert dominant_representative(B3, Weight((0, 1, -2))) == Weight((1, 0, 0))


@pytest.mark.parametrize(
    "type_label, rank, node, orbit",
    [
        ("E", 6, 1, "m(1, 0, 0, 0, 0, 0)"),  # minuscule
        ("E", 7, 7, "m(0, 0, 0, 0, 0, 0, 1)"),  # minuscule
        ("E", 8, 8, "m(0, 0, 0, 0, 0, 0, 0, 1) + 8*m(0, 0, 0, 0, 0, 0, 0, 0)"),  # adjoint
    ],
    ids=["E-6-1", "E-7-7", "E-8-8"],
)
def test_oracle_never_builds_the_weyl_group(type_label, rank, node, orbit):
    # the oracle, the orbit form and the decomposition act by simple
    # reflections on coordinates; W(E8) has 696,729,600 elements
    datum = RootDatum(type_label, rank)
    lam = datum.fundamental_weight(node)
    ch = weyl_character(datum, lam)
    assert decompose(datum, ch) == [(0, lam.coords, 1)]
    assert ch.orbit_line(datum) == orbit
    assert "weyl" not in vars(datum)


# ----------------------------------------------------------- decomposition


def test_decomposition_of_rank_one_square():
    ch = alcove_char(A1, (2,))
    parts = decompose(A1, ch)
    assert parts == [(0, (2,), 1), (1, (0,), 1)]
    assert format_decomposition(parts) == "chi(2) + q*chi(0)"


def test_decomposition_of_adjoint_weight():
    parts = decompose(A2, alcove_char(A2, (1, 1)))
    assert format_decomposition(parts) == "chi(1, 1) + q*chi(0, 0)"


def test_decomposition_of_five_dimensional_column():
    # the long-node column sits in a single classical piece: no q terms
    ch = alcove_char(C2, (0, 1))
    assert ch.q_exponents() == (0,)
    parts = decompose(C2, ch)
    assert format_decomposition(parts) == "chi(0, 1)"


def test_decomposition_with_multiplicity_and_higher_degree():
    base = weyl_character(A2, Weight((1, 0)))
    mixed = 2 * base + GradedCharacter(2, {((1, 0), 3): 1, ((-1, 1), 3): 1, ((0, -1), 3): 1})
    parts = decompose(A2, mixed)
    assert parts == [(0, (1, 0), 2), (3, (1, 0), 1)]
    assert parts == _peel(A2, mixed)
    assert format_decomposition(parts) == "2*chi(1, 0) + q^3*chi(1, 0)"


def test_decomposition_rejects_negative_combinations():
    lopsided = GradedCharacter(1, {((1,), 0): 1})
    negative = GradedCharacter(1, {((1,), 0): -1, ((-1,), 0): -1})
    for bad in (lopsided, negative):
        with pytest.raises(InputError, match="nonnegative") as new:
            decompose(A1, bad)
        with pytest.raises(InputError) as old:
            _peel(A1, bad)
        assert str(new.value) == str(old.value)


def test_decomposition_rejects_a_positive_orbit_sum_with_a_negative_expansion():
    # e^2 + e^-2 = chi(2) - chi(0): invariant, every term positive
    orbit_sum = GradedCharacter(1, {((2,), 0): 1, ((-2,), 0): 1})
    with pytest.raises(InputError, match="nonnegative"):
        decompose(A1, orbit_sum)
    with pytest.raises(InputError, match="nonnegative"):
        _peel(A1, orbit_sum)


def test_decomposition_names_the_only_failing_layer():
    valid = weyl_character(A1, Weight((2,)))
    higher = GradedCharacter(1, {((2,), 1): 1, ((-2,), 1): 1})
    with pytest.raises(InputError, match=r"layer q\^1 "):
        decompose(A1, valid + higher)
    assert decompose(A1, valid) == [(0, (2,), 1)]


# ----------------------------------------------------------------- verdict


@pytest.mark.parametrize(
    "datum, lam",
    [
        (A1, (1,)),
        (A1, (2,)),
        (A1, (3,)),
        (A2, (1, 1)),
        (A2, (2, 0)),
        (C2, (1, 1)),
        (B2, (0, 1)),
        (G2, (0, 1)),
        (A3, (0, 1, 0)),
    ],
)
def test_verdict_passes_across_types(datum, lam):
    report = verify_p_equals_x(datum, Weight(lam))
    assert report["pass"]
    assert all(report["checks"].values())
    assert report["mismatches"] == []
    assert report["decomposition"]


@pytest.mark.parametrize(
    "rank, decomposition",
    [
        (7, "chi(0, 0, 0, 0, 0, 0, 1)"),
        (8, "chi(0, 0, 0, 0, 0, 0, 0, 1) + q*chi(0, 0, 0, 0, 0, 0, 0, 0)"),
    ],
    ids=["E7", "E8"],
)
def test_verdict_on_e7_and_e8_interns_a_sliver_of_the_weyl_group(rank, decomposition):
    # P = X on the last fundamental column of E7 (minuscule) and E8 (adjoint);
    # both model routes intern under 1% of W, and |W(E8)| = 696,729,600
    datum = RootDatum("E", rank)
    report = verify_p_equals_x(datum, datum.fundamental_weight(rank))
    assert report["pass"]
    assert report["decomposition"] == decomposition
    assert len(datum.weyl.elements) < datum.weyl_order // 100


def test_verdict_report_content():
    report = verify_p_equals_x(A1, Weight((2,)))
    assert report["lambda"] == [2]
    assert report["decomposition"] == "chi(2) + q*chi(0)"
    assert {"weight": [0], "q": 1, "coeff": 1} in report["character"]


def test_verdict_accepts_custom_chain():
    lam = Weight((1, 1))
    chain = lex_chain(C2, lam, node_order=(2, 1))
    report = verify_p_equals_x(C2, lam, chain=chain)
    assert report["pass"]


def test_verdict_on_a_fundamental_weight_sums_its_qls_character_once(monkeypatch):
    # the q = 1 factor of a fundamental lambda is lambda's own character, no
    # character closes a crystal under root operators, and the QLS character
    # is a sum over the break tables, not over enumerated paths
    calls = []
    real = characters.character_from_qls

    def counted(datum, lam):
        calls.append(lam.coords)
        return real(datum, lam)

    def refused(*args):
        raise AssertionError("the verdict must neither build a crystal nor enumerate paths")

    monkeypatch.setattr(characters, "character_from_qls", counted)
    monkeypatch.setattr(qls_model, "build_crystal", refused)
    monkeypatch.setattr(qls_model, "enumerate_paths", refused)
    assert verify_p_equals_x(A2, Weight((1, 0)))["pass"]
    assert calls == [(1, 0)]


def test_verdict_on_zero_weight():
    report = verify_p_equals_x(A2, Weight((0, 0)))
    assert report["pass"]
    assert report["decomposition"] == "chi(0, 0)"
