"""Root data, pairings, reflections, and the Weyl group."""

import itertools
import math
import random
from fractions import Fraction

import pytest

from qalcove.crystal import shape_packing
from qalcove.lie_data import InputError, InternalError, Weight, build_root_datum
from inverse_reference import parabolic_longest
from qbg_reference import element, left_descent_word, longest, reflect


def test_positive_root_counts():
    assert len(build_root_datum("A", 2).positive_roots) == 3
    assert len(build_root_datum("A", 1).positive_roots) == 1
    assert len(build_root_datum("G", 2).positive_roots) == 6
    assert len(build_root_datum("C", 2).positive_roots) == 4
    assert len(build_root_datum("B", 3).positive_roots) == 9
    assert len(build_root_datum("A", 3).positive_roots) == 6
    assert len(build_root_datum("D", 4).positive_roots) == 12
    assert len(build_root_datum("F", 4).positive_roots) == 24


def test_highest_root_a1():
    d = build_root_datum("A", 1)
    assert d.positive_roots[d.theta] == (1,)
    assert d.rho.coords == (1,)
    assert d.root_weights[d.theta] == (2,)


def test_highest_root_pairing_is_two():
    for label, rank in [("A", 2), ("C", 2), ("G", 2), ("B", 3)]:
        d = build_root_datum(label, rank)
        assert d.pairing_index(d.theta, Weight(d.root_weights[d.theta])) == 2


def test_theta_pairing_range():
    # every other positive root pairs to 0 or 1 against theta^vee
    for label, rank in [("A", 3), ("C", 2), ("B", 2), ("G", 2), ("F", 4)]:
        d = build_root_datum(label, rank)
        for k in range(len(d.positive_roots)):
            if k != d.theta:
                assert d.pairing_index(d.theta, Weight(d.root_weights[k])) in (0, 1)


def test_cartan_matrices():
    assert build_root_datum("C", 2).cartan == ((2, -2), (-1, 2))
    assert build_root_datum("B", 2).cartan == ((2, -1), (-2, 2))
    assert build_root_datum("G", 2).cartan == ((2, -3), (-1, 2))
    assert build_root_datum("A", 2).cartan == ((2, -1), (-1, 2))


def test_coroot_tracking_c2():
    d = build_root_datum("C", 2)
    coroot = dict(zip(d.positive_roots, d.positive_coroots))
    assert coroot[(1, 1)] == (1, 2)  # (a1+a2)^vee = a1^vee + 2 a2^vee
    assert coroot[(2, 1)] == (1, 1)  # theta = 2a1+a2, theta^vee = a1^vee + a2^vee


def test_coroot_tracking_g2():
    d = build_root_datum("G", 2)
    coroot = dict(zip(d.positive_roots, d.positive_coroots))
    assert coroot[(1, 1)] == (1, 3)
    assert coroot[(2, 1)] == (2, 3)
    assert coroot[(3, 1)] == (1, 1)
    assert coroot[(3, 2)] == (1, 2)  # theta


def test_marks_and_comarks():
    assert build_root_datum("A", 3).marks == (1, 1, 1, 1)
    assert build_root_datum("A", 3).comarks == (1, 1, 1, 1)
    assert build_root_datum("C", 2).marks == (1, 2, 1)
    assert build_root_datum("C", 2).comarks == (1, 1, 1)
    assert build_root_datum("B", 2).marks == (1, 1, 2)
    assert build_root_datum("B", 2).comarks == (1, 1, 1)
    assert build_root_datum("G", 2).marks == (1, 3, 2)
    assert build_root_datum("G", 2).comarks == (1, 1, 2)
    assert build_root_datum("B", 3).marks == (1, 1, 2, 2)
    assert build_root_datum("B", 3).comarks == (1, 1, 2, 1)
    assert build_root_datum("F", 4).marks == (1, 2, 3, 4, 2)
    assert build_root_datum("F", 4).comarks == (1, 2, 3, 2, 1)


@pytest.mark.parametrize("label,rank", [("A", 1), ("A", 2), ("B", 2), ("C", 2), ("G", 2)])
def test_affine_root_is_minus_theta_at_zero_and_simple_elsewhere(label, rank):
    d = build_root_datum(label, rank)
    top, sign = d.affine_root(0)
    assert sign == -1
    assert sum(d.positive_roots[top]) == max(sum(r) for r in d.positive_roots)
    assert d.affine_root_weight(0) == -Weight(d.root_weights[top])
    for j in range(1, rank + 1):
        index, sign = d.affine_root(j)
        assert sign == 1
        assert d.positive_roots[index] == tuple(int(i == j - 1) for i in range(rank))
        # alpha_j in fundamental-weight coordinates is column j of the Cartan matrix
        assert d.affine_root_weight(j).coords == tuple(d.cartan[i][j - 1] for i in range(rank))
    for bad in (-1, rank + 1):
        with pytest.raises(InputError, match="outside"):
            d.affine_root(bad)
        with pytest.raises(InputError, match="outside"):
            d.affine_root_weight(bad)


def test_pairing_examples():
    a2 = build_root_datum("A", 2)
    w1 = a2.fundamental_weight(1)
    w2 = a2.fundamental_weight(2)
    a1 = a2.simple_root_index[0]
    assert a2.pairing_index(a1, w1) == 1
    assert a2.pairing_index(a1, w2) == 0
    a1_ = build_root_datum("A", 1)
    assert a1_.pairing_index(0, Weight((2,))) == 2


def test_reflections_a1():
    d = build_root_datum("A", 1)
    assert d.weyl.reflection(0).act_weight(Weight((1,))) == Weight((-1,))


def test_reflect_is_involution():
    # r_beta acts on a weight as mu - <beta^vee, mu> beta, twice as the identity
    d = build_root_datum("C", 2)
    for k in range(len(d.positive_roots)):
        mu = Weight((2, -1))
        r = d.weyl.reflection(k)
        assert r.act_weight(mu) == reflect(d, mu, k)
        assert r.act_weight(r.act_weight(mu)) == mu


@pytest.mark.parametrize("label,rank,coords", [
    ("G", 2, (0, 1)), ("B", 3, (0, 1, 0)), ("C", 3, (1, 0, 1)), ("D", 4, (0, 1, 0, 0)),
])
def test_dominant_word_is_the_left_descent_word_of_the_minimal_representative(label, rank, coords):
    # every point w(lam) of the orbit reads back the word of its minimal
    # representative, found on the element, and ends at lam
    d = build_root_datum(label, rank)
    lam = Weight(coords)
    J = d.stabilizer(lam)
    for w in d.weyl.coset_reps(frozenset()):
        x = d.weyl.min_coset_rep(w, J)
        assert d.dominant_word(w.act_weight(lam).coords) == (left_descent_word(x), lam.coords)
    assert d.dominant_word(lam.coords) == ((), lam.coords)


def test_levels():
    a1 = build_root_datum("A", 1)
    assert a1.level_of_affine_weight((1, 0)) == 1
    assert a1.level_of_affine_weight((1, 1)) == 2
    c2 = build_root_datum("C", 2)
    assert c2.level_of_affine_weight((0, 1, 0)) == 1
    g2 = build_root_datum("G", 2)
    assert g2.level_of_affine_weight((0, 0, 1)) == 2


def test_c_r_values():
    assert build_root_datum("A", 2).c_r(1) == 1
    assert build_root_datum("C", 2).c_r(1) == 2
    assert build_root_datum("C", 2).c_r(2) == 1
    g2 = build_root_datum("G", 2)
    assert g2.c_r(1) == 3
    assert g2.c_r(2) == 1
    b3 = build_root_datum("B", 3)
    assert b3.c_r(1) == 1
    assert b3.c_r(2) == 1
    assert b3.c_r(3) == 2


def test_long_short_nodes():
    g2 = build_root_datum("G", 2)
    assert g2.long_nodes() == (2,)
    assert g2.short_nodes() == (1,)
    c2 = build_root_datum("C", 2)
    assert c2.long_nodes() == (2,)
    b2 = build_root_datum("B", 2)
    assert b2.long_nodes() == (1,)
    a2 = build_root_datum("A", 2)
    assert a2.long_nodes() == (1, 2)
    assert a2.short_nodes() == ()
    f4 = build_root_datum("F", 4)
    assert f4.long_nodes() == (1, 2)
    assert f4.short_nodes() == (3, 4)


def test_weight_in_root_coords():
    # the coordinates times the denominator of the inverse Cartan matrix
    a2 = build_root_datum("A", 2)
    assert a2.cartan_inverse[1] == 3
    assert a2.weight_in_root_coords(a2.rho) == (3, 3)
    c2 = build_root_datum("C", 2)
    assert c2.cartan_inverse[1] == 2
    assert c2.weight_in_root_coords(c2.fundamental_weight(1)) == (2, 1)


ALL_TYPES = (
    [("A", n) for n in range(1, 5)]
    + [("B", n) for n in range(2, 6)]
    + [("C", n) for n in range(2, 5)]
    + [("D", 4), ("D", 5), ("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2)]
)


@pytest.mark.parametrize("label,rank", ALL_TYPES)
def test_root_coords_invert_root_as_weight(label, rank):
    d = build_root_datum(label, rank)
    scale = d.cartan_inverse[1]
    for k, root in enumerate(d.positive_roots):
        assert d.weight_in_root_coords(Weight(d.root_weights[k])) == tuple(scale * c for c in root)


THROUGH_RANK_8 = (
    [("A", n) for n in range(1, 9)]
    + [("B", n) for n in range(2, 9)]
    + [("C", n) for n in range(2, 9)]
    + [("D", n) for n in range(4, 9)]
    + [("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2)]
)


def _gram(cartan):
    """G[i][j] = eps_i cartan[i][j] with eps_i cartan[i][j] = eps_j cartan[j][i]
    the integral, symmetric Gram matrix of the simple roots (up to a scale)."""
    n = len(cartan)
    eps = [Fraction(0)] * n
    eps[0], todo = Fraction(1), [0]
    while todo:
        i = todo.pop()
        for j in range(n):
            if i != j and cartan[i][j] and not eps[j]:
                eps[j] = eps[i] * cartan[i][j] / cartan[j][i]
                todo.append(j)
    scale = math.lcm(*(e.denominator for e in eps))
    gram = [[int(eps[i] * scale) * cartan[i][j] for j in range(n)] for i in range(n)]
    assert all(gram[i][j] == gram[j][i] for i in range(n) for j in range(n))
    return gram


@pytest.mark.parametrize("label,rank", THROUGH_RANK_8)
def test_reflection_tables_equal_the_direct_rule(label, rank):
    # r_beta(alpha) = alpha - <beta^vee, alpha> beta through the Gram matrix,
    # against the reflections built by conjugation and the carried weights
    d = build_root_datum(label, rank)
    roots, cartan, weyl = d.positive_roots, d.cartan, d.weyl
    gram = _gram(cartan)
    index = {r: k + 1 for k, r in enumerate(roots)}
    index.update({tuple(-c for c in r): -(k + 1) for k, r in enumerate(roots)})
    image = [tuple(sum(g * c for g, c in zip(row, r)) for row in gram) for r in roots]
    for k, root in enumerate(roots):
        assert d.root_weights[k] == tuple(sum(a * c for a, c in zip(row, root)) for row in cartan)
    for m, beta in enumerate(roots):
        norm = sum(b * g for b, g in zip(beta, image[m]))
        perm = []
        for k, alpha in enumerate(roots):
            twice, rest = divmod(2 * sum(b * g for b, g in zip(beta, image[k])), norm)
            assert rest == 0
            perm.append(index[tuple(a - twice * b for a, b in zip(alpha, beta))])
        assert weyl.reflection(m).perm == tuple(perm)
    longest(weyl)
    for el in weyl.elements:
        negated = [k for k, v in enumerate(el.perm) if v < 0]
        assert [k for k in range(len(roots)) if el.mask >> k & 1] == negated
        assert bin(el.mask).count("1") == el.length == len(negated)


@pytest.mark.parametrize("label,rank", THROUGH_RANK_8)
def test_the_simple_table_is_the_simple_reflections(label, rank):
    # the datum reads s_i off its roots without a group; the group's simple
    # reflections, built from the table, are checked against the Gram rule
    # by test_reflection_tables_equal_the_direct_rule
    d = build_root_datum(label, rank)
    table = d.simple_perms
    assert "weyl" not in vars(d)
    assert len(table) == rank
    assert table == tuple(s.perm for s in d.weyl.simple)


@pytest.mark.parametrize("label,rank", THROUGH_RANK_8)
def test_omega_equals_the_permutation_of_the_longest_element(label, rank):
    # w_0(alpha_i) = -alpha_omega(i), read off the signed permutation of w_0
    d = build_root_datum(label, rank)
    w0 = longest(d.weyl)
    assert all(w0.perm[k] < 0 for k in d.simple_root_index)
    images = [d.positive_roots[-w0.perm[k] - 1] for k in d.simple_root_index]
    assert all(sum(root) == 1 for root in images)
    assert d.omega == tuple(root.index(1) + 1 for root in images)


@pytest.mark.parametrize("label,rank", THROUGH_RANK_8)
def test_the_highest_coroot_pairs_to_the_maximum(label, rank):
    d = build_root_datum(label, rank)
    rng = random.Random(rank)
    weights = [d.fundamental_weight(i) for i in range(1, rank + 1)] + [d.rho, Weight((0,) * rank)]
    weights += [Weight(tuple(rng.randrange(4) for _ in range(rank))) for _ in range(8)]
    for lam in weights:
        top = max(d.pairing(c, lam) for c in d.positive_coroots)
        assert d.pairing_index(d.highest_coroot, lam) == top
        assert shape_packing(d, lam).bound == top


def test_bad_inputs():
    with pytest.raises(InputError):
        build_root_datum("Z", 2)
    with pytest.raises(InputError):
        build_root_datum("G", 3)
    with pytest.raises(InputError):
        build_root_datum("D", 3)
    with pytest.raises(InputError):
        build_root_datum("A", 0)
    d = build_root_datum("A", 2)
    with pytest.raises(InputError):
        d.weight_from_coeffs((1, 2, 3))
    with pytest.raises(InputError):
        d.fundamental_weight(3)
    with pytest.raises(InputError):
        d.stabilizer(Weight((-1, 0)))


def test_weyl_group_a2():
    d = build_root_datum("A", 2)
    w = d.weyl
    assert d.weyl_order == 6
    assert longest(w).length == 3
    reps = w.coset_reps(frozenset({2}))
    words = [r.reduced_word() for r in reps]
    assert words == [(), (1,), (2, 1)]
    assert d.omega == (2, 1)


def test_weyl_group_sizes():
    for label, rank, size in [
        ("C", 2, 8), ("G", 2, 12), ("A", 3, 24), ("B", 3, 48), ("D", 4, 192), ("F", 4, 1152),
        ("E", 6, 51840), ("E", 7, 2903040), ("E", 8, 696729600),
    ]:
        d = build_root_datum(label, rank)
        assert d.weyl_order == size
        assert "weyl" not in vars(d)  # read off the root heights, with no group built
        w = d.weyl
        assert len(w.elements) == rank + 1  # the identity and the simple reflections
        if size <= 5040:
            # the root-height formula against an enumeration of the whole group
            assert len(w.coset_reps(frozenset())) == size
    # every classical family through rank 8 against its closed form
    families = [
        ("A", 1, lambda n: math.factorial(n + 1)),
        ("B", 2, lambda n: 2**n * math.factorial(n)),
        ("C", 2, lambda n: 2**n * math.factorial(n)),
        ("D", 4, lambda n: 2 ** (n - 1) * math.factorial(n)),
    ]
    for label, first, closed_form in families:
        for rank in range(first, 9):
            size = build_root_datum(label, rank).weyl_order
            assert type(size) is int and size == closed_form(rank), (label, rank)


def test_weyl_order_refuses_a_fractional_quotient():
    # a lone root of height 2 gives the quotient 3/2, which is no group order
    d = build_root_datum("A", 1)
    d.positive_roots = ((2,),)
    with pytest.raises(InternalError, match="not a multiple"):
        d.weyl_order


@pytest.mark.parametrize("label, rank", [("A", 3), ("B", 3), ("C", 3), ("D", 4), ("G", 2)])
def test_coset_reps_match_the_full_group(label, rank):
    w = build_root_datum(label, rank).weyl
    full = w.coset_reps(frozenset())
    nodes = range(1, rank + 1)
    for size in range(rank + 1):
        for J in map(frozenset, itertools.combinations(nodes, size)):
            expect = [x for x in full if not any(x.has_right_descent(i) for i in J)]
            assert list(w.coset_reps(J)) == expect


def test_omega_involution_and_theta_fixed():
    for label, rank in [("A", 3), ("C", 2), ("B", 2), ("G", 2), ("D", 4)]:
        d = build_root_datum(label, rank)
        om = d.omega
        assert tuple(om[i - 1] for i in om) == tuple(range(1, rank + 1))
        # w_0 sends -theta to theta
        assert longest(d.weyl).perm[d.theta] == -(d.theta + 1)


def test_omega_identity_on_c2_b2():
    assert build_root_datum("C", 2).omega == (1, 2)
    assert build_root_datum("B", 2).omega == (1, 2)
    assert build_root_datum("A", 3).omega == (3, 2, 1)
    assert build_root_datum("D", 4).omega == (1, 2, 3, 4)
    assert build_root_datum("D", 5).omega == (1, 2, 3, 5, 4)
    assert build_root_datum("E", 6).omega == (6, 2, 5, 4, 3, 1)


def test_elements_are_interned_and_compare_by_identity():
    d, twin = build_root_datum("B", 3), build_root_datum("B", 3)
    group, twins = d.weyl.coset_reps(frozenset()), twin.weyl.coset_reps(frozenset())
    for u in group[::5]:
        for v in group[::7]:
            assert u * v is u * v
            assert (u * v).inverse is v.inverse * u.inverse
    # a twin datum's elements have the same permutations, but none is equal
    assert [u.perm for u in group] == [v.perm for v in twins]
    assert not any(u == v for u in group for v in twins)
    assert not set(group) & set(twins)


def test_length_changes_by_one_under_simple_mult():
    for label, rank in [("A", 2), ("C", 2), ("G", 2)]:
        w = build_root_datum(label, rank).weyl
        for el in w.coset_reps(frozenset()):
            for s in w.simple:
                assert abs((el * s).length - el.length) == 1
                assert abs((s * el).length - el.length) == 1


def test_inverse_and_product():
    for label, rank in [("C", 2), ("G", 2), ("B", 3)]:
        w = build_root_datum(label, rank).weyl
        for el in w.coset_reps(frozenset()):
            assert el * el.inverse == w.identity
            assert el.inverse.length == el.length


def test_reduced_words_are_reduced_and_lex_minimal():
    for label, rank in [("C", 2), ("G", 2), ("B", 3)]:
        d = build_root_datum(label, rank)
        for el in d.weyl.coset_reps(frozenset()):
            word = el.reduced_word()
            assert len(word) == el.length
            assert element(d, word) == el
            # the least left descent first, as the walk on the element finds it
            assert word == left_descent_word(el)
            assert repr(el) == ("*".join(f"s{i}" for i in word) or "e")
    # s1 s2 s1 s2 = s2 s1 s2 s1 = longest, lex-min picks the former
    assert longest(build_root_datum("C", 2).weyl).reduced_word() == (1, 2, 1, 2)


def test_min_coset_rep_projection_stable():
    d = build_root_datum("C", 2)
    w = d.weyl
    J = frozenset({2})
    for el in w.coset_reps(frozenset()):
        rep = w.min_coset_rep(el, J)
        assert not any(rep.has_right_descent(i) for i in J)
        for i in J:
            assert w.min_coset_rep(rep * w.simple[i - 1], J) == rep


def test_coset_reps_counts():
    c2 = build_root_datum("C", 2)
    assert len(c2.weyl.coset_reps(frozenset({2}))) == 4
    assert len(c2.weyl.coset_reps(frozenset())) == 8
    g2 = build_root_datum("G", 2)
    assert len(g2.weyl.coset_reps(frozenset({1}))) == 6


def test_parabolic_longest():
    d = build_root_datum("C", 2)
    w = d.weyl
    wj = parabolic_longest(w, frozenset({2}))
    assert wj == w.simple[1]
    assert parabolic_longest(w, frozenset({1, 2})) == longest(w)
    assert parabolic_longest(w, frozenset()) == w.identity


def test_weight_action():
    a2 = build_root_datum("A", 2)
    w = a2.weyl
    s1, s2 = w.simple
    mu = a2.fundamental_weight(1)
    assert s1.act_weight(mu) == Weight((-1, 1))
    assert s2.act_weight(mu) == mu
    assert longest(w).act_weight(a2.rho) == Weight((-1, -1))
    # action of the reflection element matches direct reflection
    for k in range(3):
        assert w.reflection(k).act_weight(a2.rho) == reflect(a2, a2.rho, k)


def test_stabilizer_and_parabolic_roots():
    c2 = build_root_datum("C", 2)
    lam = c2.fundamental_weight(1)
    J = c2.stabilizer(lam)
    assert J == frozenset({2})
    inside = c2.parabolic_roots(J)
    assert {c2.positive_roots[k] for k in inside} == {(0, 1)}
    # roots outside the parabolic pair strictly positively with the weight
    for k in range(len(c2.positive_roots)):
        if k not in inside:
            assert c2.pairing_index(k, lam) > 0


def test_two_rho_values():
    a2 = build_root_datum("A", 2)
    assert a2.two_rho_minus_two_rho_J(frozenset()) == Weight((2, 2))
    assert a2.two_rho_minus_two_rho_J(frozenset({2})) == Weight((3, 0))
    c2 = build_root_datum("C", 2)
    assert c2.two_rho_minus_two_rho_J(frozenset({1, 2})) == Weight((0, 0))


def bruhat_covers(weyl, w):
    """The elements w r_beta one length above w."""
    reflections = (weyl.reflection(k) for k in range(len(weyl.datum.positive_roots)))
    return [v for r in reflections if (v := w * r).length == w.length + 1]


def test_bruhat_covers_a2():
    w = build_root_datum("A", 2).weyl
    assert len(bruhat_covers(w, w.identity)) == 2
    assert len(bruhat_covers(w, longest(w))) == 0


def test_root_name():
    c2 = build_root_datum("C", 2)
    assert c2.root_name(c2.theta) == "2a1+a2"
    assert c2.root_name(c2.simple_root_index[0], -1) == "-a1"


@pytest.mark.parametrize("label,rank", THROUGH_RANK_8)
def test_integer_inverse_cartan_over_its_denominator(label, rank):
    d = build_root_datum(label, rank)
    inverse, den = d.cartan_inverse
    fractions = [[Fraction(x, den) for x in row] for row in inverse]
    # the Fraction inverse: cartan times it is the identity
    for i, row in enumerate(d.cartan):
        assert [sum(a * f[j] for a, f in zip(row, fractions)) for j in range(rank)] == [int(i == j) for j in range(rank)]
    # the least common denominator
    assert den == math.lcm(*(f.denominator for row in fractions for f in row))
    # the one solver reads it, as fractions and scaled into integers
    for i in range(1, rank + 1):
        omega = d.fundamental_weight(i)
        scaled = d.weight_in_root_coords(omega)
        assert scaled == tuple(row[i - 1] for row in inverse)
        assert tuple(Fraction(c, den) for c in scaled) == tuple(row[i - 1] for row in fractions)
