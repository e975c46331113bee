"""Root data, pairings, reflections, and the Weyl group."""

import itertools
from fractions import Fraction

import pytest

from qalcove.lie_data import InputError, Weight, build_root_datum
from inverse_reference import parabolic_longest


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
    assert d.root_as_weight(d.theta).coords == (2,)


def test_highest_root_pairing_is_two():
    for label, rank in [("A", 2), ("C", 2), ("G", 2), ("B", 3)]:
        d = build_root_datum(label, rank)
        assert d.pairing_roots(d.theta, d.theta) == 2


def test_theta_pairing_range():
    # every other positive root pairs to 0 or 1 against theta^vee
    for label, rank in [("A", 3), ("C", 2), ("B", 2), ("G", 2), ("F", 4)]:
        d = build_root_datum(label, rank)
        for k in range(len(d.positive_roots)):
            if k != d.theta:
                assert d.pairing_roots(d.theta, k) in (0, 1)


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
    assert d.affine_root_weight(0) == -d.root_as_weight(top)
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
    assert d.reflect(Weight((1,)), 0) == Weight((-1,))


def test_reflect_is_involution():
    d = build_root_datum("C", 2)
    for k in range(len(d.positive_roots)):
        mu = Weight((2, -1))
        assert d.reflect(d.reflect(mu, k), k) == mu


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
    a2 = build_root_datum("A", 2)
    assert a2.weight_in_root_coords(a2.rho) == (Fraction(1), Fraction(1))
    c2 = build_root_datum("C", 2)
    assert c2.weight_in_root_coords(c2.fundamental_weight(1)) == (Fraction(1), Fraction(1, 2))


ALL_TYPES = (
    [("A", n) for n in range(1, 5)]
    + [("B", n) for n in range(2, 6)]
    + [("C", n) for n in range(2, 5)]
    + [("D", 4), ("D", 5), ("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2)]
)


@pytest.mark.parametrize("label,rank", ALL_TYPES)
def test_root_coords_invert_root_as_weight(label, rank):
    d = build_root_datum(label, rank)
    for k, root in enumerate(d.positive_roots):
        assert d.weight_in_root_coords(d.root_as_weight(k)) == root


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
    assert len(w) == 6
    assert w.longest.length == 3
    reps = w.coset_reps(frozenset({2}))
    words = [r.reduced_word() for r in reps]
    assert words == [(), (1,), (2, 1)]
    assert w.omega == (2, 1)


def test_weyl_group_sizes():
    for label, rank, size in [
        ("C", 2, 8), ("G", 2, 12), ("A", 3, 24), ("B", 3, 48), ("D", 4, 192), ("F", 4, 1152),
        ("E", 6, 51840), ("E", 7, 2903040), ("E", 8, 696729600),
    ]:
        w = build_root_datum(label, rank).weyl
        assert len(w) == size
        assert len(w.elements) == rank + 1  # the identity and the simple reflections
        if size <= 5040:
            # the root-height formula against an enumeration of the whole group
            assert len(w.coset_reps(frozenset())) == size


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
        om = d.weyl.omega
        assert tuple(om[i - 1] for i in om) == tuple(range(1, rank + 1))
        # w_0 sends -theta to theta
        assert d.weyl.longest.perm[d.theta] == -(d.theta + 1)


def test_omega_identity_on_c2_b2():
    assert build_root_datum("C", 2).weyl.omega == (1, 2)
    assert build_root_datum("B", 2).weyl.omega == (1, 2)
    assert build_root_datum("A", 3).weyl.omega == (3, 2, 1)
    assert build_root_datum("D", 4).weyl.omega == (1, 2, 3, 4)


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
    w = build_root_datum("C", 2).weyl
    for el in w.coset_reps(frozenset()):
        word = el.reduced_word()
        assert len(word) == el.length
        prod = w.identity
        for i in word:
            prod = prod * w.simple[i - 1]
        assert prod == el
    # s1 s2 s1 s2 = s2 s1 s2 s1 = longest, lex-min picks the former
    assert w.longest.reduced_word() == (1, 2, 1, 2)


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
    assert parabolic_longest(w, frozenset({1, 2})) == w.longest
    assert parabolic_longest(w, frozenset()) == w.identity


def test_weight_action():
    a2 = build_root_datum("A", 2)
    w = a2.weyl
    s1, s2 = w.simple
    mu = a2.fundamental_weight(1)
    assert s1.act_weight(mu) == Weight((-1, 1))
    assert s2.act_weight(mu) == mu
    assert w.longest.act_weight(a2.rho) == Weight((-1, -1))
    # action of the reflection element matches direct reflection
    for k in range(3):
        assert w.reflection(k).act_weight(a2.rho) == a2.reflect(a2.rho, k)


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
    assert len(bruhat_covers(w, w.longest)) == 0


def test_json_dict_shape():
    d = build_root_datum("C", 2)
    out = d.to_json_dict()
    assert out["type"] == "C" and out["rank"] == 2
    assert out["cartan"] == [[2, -2], [-1, 2]]
    assert len(out["positive_roots"]) == 4
    assert out["marks"] == [1, 2, 1] and out["comarks"] == [1, 1, 1]


def test_root_name():
    c2 = build_root_datum("C", 2)
    assert c2.root_name(c2.theta) == "2a1+a2"
    assert c2.root_name(c2.simple_root_index[0], -1) == "-a1"
