"""Quantum LS paths: validation, operators, degree, involutions, tensors."""

import bisect
import gc
import itertools
import json
import weakref
from fractions import Fraction

import pytest

import crystal_reference
from crystal_reference import indexed
from qalcove import qls_model
from qalcove.characters import character_from_qls
from qalcove.crystal import WeightPacking, tensor
from qalcove.lie_data import InputError, InternalError, Weight, WeylGroup, build_root_datum
from qalcove.qls_model import (
    QLSPath,
    build_crystal,
    deg,
    dual,
    e_operator,
    enumerate_paths,
    epsilon,
    f_operator,
    lusztig_S,
    omega,
    phi,
    qls_path,
    straight_path,
)
from qalcove.quantum_bruhat import OrbitGraph, orbit_graph
from qbg_reference import build_qbg, coset_reps, element, longest, min_coset_rep, reflect

A1 = build_root_datum("A", 1)
A2 = build_root_datum("A", 2)
C2 = build_root_datum("C", 2)
B2 = build_root_datum("B", 2)
G2 = build_root_datum("G", 2)


def path(datum, lam, directions, breaks):
    return qls_path(datum, Weight(lam), directions, breaks)


def cosets(eta):
    """The minimal coset representatives x_k with x_k(lambda) = mu_k, built
    from the printed words."""
    return tuple(element(eta.datum, word) for word in eta.words)


def omega_affine(datum, j):
    return 0 if j == 0 else datum.omega[j - 1]


def deg_of_involution(eta):
    """Degree of the Lusztig involution of eta from eta's own break data:
    minus the sum of b_k times the segment path weights, read off the
    unrestricted graph."""
    graph = orbit_graph(eta.datum, eta.lam)
    points = eta.points
    total = -sum(
        eta.breaks[k] * graph.path_weight(points[k], points[k - 1], 1)
        for k in range(1, len(points))
    )
    assert total.denominator == 1
    return int(total)


def _closure(datum, lam):
    """Reference crystal: close the straight path under the public e_j and f_j,
    each image validated from scratch, in BFS order with (label, e then f)."""
    start = straight_path(datum, lam)
    order, seen = [start], {start}
    e_arrows, f_arrows = {}, {}
    for v in order:
        for j in range(datum.rank + 1):
            for table, op in ((e_arrows, e_operator), (f_arrows, f_operator)):
                w = op(v, j)
                if w is not None:
                    table[(v, j)] = w
                    if w not in seen:
                        seen.add(w)
                        order.append(w)
    weights = {v: v.weight for v in order}
    return indexed(datum, order, weights, e_arrows, f_arrows, start)


# ------------------------------------------------------------------ validation


def test_valid_half_break_path():
    eta = path(A1, (2,), [(1,), ()], (0, Fraction(1, 2), 1))
    assert len(eta.directions) == 2
    # the same path given by its orbit points s1(2w1) = -2w1 and 2w1
    assert path(A1, (2,), [Weight((-2,)), Weight((2,))], (0, Fraction(1, 2), 1)) == eta


def test_invalid_third_break_path():
    with pytest.raises(InputError, match="segment 1"):
        path(A1, (2,), [(1,), ()], (0, Fraction(1, 3), 1))


def test_straight_paths_always_valid():
    for datum, lam in [(A1, (1,)), (A2, (1, 1)), (C2, (0, 1))]:
        lam = Weight(lam)
        J = datum.stabilizer(lam)
        for x in coset_reps(datum.weyl, J):
            eta = qls_path(datum, lam, [x.reduced_word()], (0, 1))
            assert eta.directions == (x.act_weight(lam),)
            assert cosets(eta) == (x,)


def test_rejects_non_dominant_weight():
    with pytest.raises(InputError, match="dominant"):
        path(A1, (-1,), [()], (0, 1))


def test_rejects_bad_break_counts_and_ranges():
    with pytest.raises(InputError, match="plus one"):
        path(A1, (2,), [()], (0, Fraction(1, 2), 1))
    with pytest.raises(InputError, match="start at 0"):
        path(A1, (2,), [()], (Fraction(1, 2), 1))
    with pytest.raises(InputError, match="increasing"):
        path(A1, (2,), [(1,), ()], (0, 1, 1))


def test_rejects_equal_consecutive_directions():
    with pytest.raises(InputError, match="coincide"):
        path(A1, (2,), [(1,), (1,)], (0, Fraction(1, 2), 1))


def test_rejects_non_minimal_coset_representative():
    # s2 fixes w1 in A2, so s2 is not the minimal representative of its coset
    with pytest.raises(InputError, match="minimal coset"):
        path(A2, (1, 0), [(2,)], (0, 1))
    # a point outside the orbit W(w1) = {w1, w2 - w1, -w2}
    with pytest.raises(InputError, match="direction 1 is not in the orbit"):
        path(A2, (1, 0), [Weight((0, 1))], (0, 1))


def test_grid_path_refuses_an_index_outside_the_orbit():
    # -1 would otherwise read the last vertex
    graph = orbit_graph(A2, Weight((1, 0)))
    for n in (-1, len(graph.points)):
        with pytest.raises(InputError, match="direction 1 is not in the orbit"):
            qls_model.grid_path(graph, (n,), (0, graph.L))


def test_rejects_node_out_of_range():
    with pytest.raises(InputError, match="outside"):
        path(A1, (2,), [(3,)], (0, 1))


def test_refuses_a_direction_that_is_neither_a_weight_nor_a_word():
    for x in (A2.weyl.simple[0], ("a",), (1.0,), 1):
        with pytest.raises(InputError, match="direction 1 is neither a weight nor a word of nodes"):
            path(A2, (1, 1), [x], (0, 1))


def test_refusals_keep_their_order():
    # a node out of range before the breaks, the breaks before minimality,
    # minimality before the orbit
    with pytest.raises(InputError, match="outside"):
        path(A2, (1, 0), [(3,)], (0, Fraction(1, 2)))
    with pytest.raises(InputError, match="start at 0"):
        path(A2, (1, 0), [(2,)], (Fraction(1, 2), 1))
    with pytest.raises(InputError, match="direction 2 is not a minimal coset"):
        path(A2, (1, 0), [Weight((0, 1)), (2,)], (0, Fraction(1, 2), 1))
    with pytest.raises(InputError, match="direction 1 is not in the orbit"):
        path(A2, (1, 0), [Weight((0, 1)), (1,)], (0, Fraction(1, 2), 1))


def _words(rank, longest_word):
    return itertools.chain.from_iterable(
        itertools.product(range(1, rank + 1), repeat=n) for n in range(longest_word + 1)
    )


@pytest.mark.parametrize("label,rank,coords", [
    ("A", 2, (1, 0)), ("B", 2, (0, 1)), ("G", 2, (1, 0)), ("G", 2, (0, 1)),
    ("B", 3, (0, 1, 1)), ("C", 3, (1, 0, 1)), ("D", 4, (0, 1, 0, 0)),
])
def test_words_are_read_on_weights_as_the_group_reads_them(label, rank, coords):
    # every word of length at most 5: accepted exactly when the product x is
    # its own minimal coset representative, and then its point is x(lambda)
    datum = build_root_datum(label, rank)
    lam = Weight(coords)
    J = datum.stabilizer(lam)
    assert J
    accepted = 0
    for word in _words(rank, 5):
        x = element(datum, word)
        if min_coset_rep(datum.weyl, x, J) == x:
            assert qls_path(datum, lam, [word], (0, 1)).directions == (x.act_weight(lam),)
            accepted += 1
        else:
            with pytest.raises(InputError, match="direction 1 is not a minimal coset representative"):
                qls_path(datum, lam, [word], (0, 1))
    assert accepted > 1


# ---------------------------------------------------------------------- weight


def test_half_break_path_has_zero_weight():
    eta = path(A1, (2,), [(1,), ()], (0, Fraction(1, 2), 1))
    assert eta.weight == Weight((0,))


def test_straight_path_weight_is_orbit_point():
    lam = Weight((1, 1))
    for x in coset_reps(A2.weyl, frozenset()):
        assert qls_path(A2, lam, [x.reduced_word()], (0, 1)).weight == x.act_weight(lam)


# -------------------------------------------------------------- root operators


def test_raising_simple_label_on_lowest_a1():
    lam = Weight((1,))
    low = path(A1, (1,), [(1,)], (0, 1))
    assert e_operator(low, 1) == straight_path(A1, lam)


def test_raising_undefined_on_dominant_straight_path():
    for datum, lam in [(A1, (1,)), (A2, (1, 1)), (C2, (0, 1))]:
        eta = straight_path(datum, Weight(lam))
        for j in range(1, datum.rank + 1):
            assert e_operator(eta, j) is None


def test_lowering_simple_label_on_dominant_a1():
    lam = Weight((1,))
    assert f_operator(straight_path(A1, lam), 1) == path(A1, (1,), [(1,)], (0, 1))


def test_affine_label_pair_on_a1_fundamental():
    lam = Weight((1,))
    top = straight_path(A1, lam)
    low = path(A1, (1,), [(1,)], (0, 1))
    assert e_operator(top, 0) == low
    assert f_operator(low, 0) == top


def test_affine_raising_splits_a1_doubled():
    eta = e_operator(straight_path(A1, Weight((2,))), 0)
    assert eta == path(A1, (2,), [(), (1,)], (0, Fraction(1, 2), 1))


def test_affine_raising_merges_back_to_straight():
    eta = path(A1, (2,), [(), (1,)], (0, Fraction(1, 2), 1))
    assert e_operator(eta, 0) == path(A1, (2,), [(1,)], (0, 1))


def test_operator_rejects_label_outside_affine_set():
    with pytest.raises(InputError, match="outside"):
        e_operator(straight_path(A1, Weight((1,))), 2)


def test_string_lengths_on_a1_fundamental():
    lam = Weight((1,))
    top = straight_path(A1, lam)
    low = path(A1, (1,), [(1,)], (0, 1))
    assert (epsilon(top, 1), phi(top, 1)) == (0, 1)
    assert (epsilon(low, 1), phi(low, 1)) == (1, 0)
    assert (epsilon(top, 0), phi(top, 0)) == (1, 0)
    assert (epsilon(low, 0), phi(low, 0)) == (0, 1)


def test_string_lengths_match_arrow_walks():
    # D4 omega_2 has stabilizer {1, 3, 4}
    cases = [
        (A1, (2,)), (A2, (1, 1)), (C2, (0, 1)), (C2, (2, 1)), (G2, (1, 1)),
        (build_root_datum("A", 3), (1, 1, 1)), (build_root_datum("D", 4), (0, 1, 0, 0)),
    ]
    for datum, lam in cases:
        graph = build_crystal(datum, Weight(lam))
        for i, v in enumerate(graph.vertices):
            for j in graph.labels:
                assert epsilon(v, j) == graph.eps[j][i]
                assert phi(v, j) == graph.phi[j][i]


# --------------------------------------------------------------------- degree


def test_degree_of_straight_dominant_path_is_zero():
    for datum, lam in [(A1, (3,)), (A2, (2, 1)), (C2, (1, 1)), (G2, (1, 0))]:
        assert deg(straight_path(datum, Weight(lam))) == 0


def test_degree_of_split_paths_a1_doubled():
    assert deg(path(A1, (2,), [(), (1,)], (0, Fraction(1, 2), 1))) == -1
    assert deg(path(A1, (2,), [(1,), ()], (0, Fraction(1, 2), 1))) == 0


def test_degree_nonpositive_crystal_wide():
    for datum, lam in [(A1, (3,)), (A2, (1, 1)), (C2, (0, 1)), (B2, (1, 0))]:
        graph = build_crystal(datum, Weight(lam))
        assert all(deg(v) <= 0 for v in graph.vertices)


def test_degree_recursion_along_raising_arrows():
    # label 0 drops the degree by 1 when the initial direction survives and
    # jumps by <theta^vee, initial> - 1 when it gets reflected; other labels
    # leave the degree alone
    for datum, lam in [(A1, (2,)), (A1, (3,)), (A2, (1, 1)), (C2, (0, 1)), (C2, (1, 0)), (B2, (0, 1))]:
        graph = build_crystal(datum, Weight(lam))
        theta_vee = datum.positive_coroots[datum.theta]
        for (v, j), w in graph.e_arrows.items():
            if j != 0:
                assert deg(w) == deg(v)
            elif w.directions[0] == v.directions[0]:
                assert deg(w) == deg(v) - 1
            else:
                assert deg(w) == deg(v) + datum.pairing(theta_vee, v.directions[0]) - 1


# ------------------------------------------------- duality, omega, Lusztig's S


def test_s_of_straight_dominant_path():
    for datum, lam in [(A2, (1, 1)), (C2, (0, 1)), (A2, (1, 0))]:
        lam = Weight(lam)
        J = datum.stabilizer(lam)
        expect = min_coset_rep(datum.weyl, longest(datum.weyl), J)
        assert lusztig_S(straight_path(datum, lam)) == qls_path(datum, lam, [expect.act_weight(lam)], (0, 1))


def test_s_fixes_the_zero_weight_split_path():
    eta = path(A1, (2,), [(1,), ()], (0, Fraction(1, 2), 1))
    assert lusztig_S(eta) == eta


def test_s_degree_by_both_formulas():
    eta = path(A1, (2,), [(), (1,)], (0, Fraction(1, 2), 1))
    assert deg_of_involution(eta) == -1
    assert deg(lusztig_S(eta)) == -1


def test_s_is_an_involution_with_reflected_weight():
    for datum, lam in [(A1, (2,)), (A2, (1, 1)), (C2, (0, 1))]:
        graph = build_crystal(datum, Weight(lam))
        w0 = longest(datum.weyl)
        for v in graph.vertices:
            assert lusztig_S(lusztig_S(v)) == v
            assert lusztig_S(v).weight == w0.act_weight(v.weight)
            assert deg_of_involution(v) == deg(lusztig_S(v))


def test_s_swaps_raising_and_lowering_with_relabel():
    for datum, lam in [(A1, (2,)), (A2, (1, 1)), (A2, (1, 0)), (C2, (0, 1))]:
        graph = build_crystal(datum, Weight(lam))
        for v in graph.vertices:
            for j in graph.labels:
                image = f_operator(lusztig_S(v), omega_affine(datum, j))
                lifted = e_operator(v, j)
                assert (lifted is None) == (image is None)
                if lifted is not None:
                    assert lusztig_S(lifted) == image


def test_dual_factors_through_s_and_omega():
    for datum, lam in [(A1, (2,)), (A2, (1, 0)), (C2, (1, 0)), (B2, (1, 0))]:
        graph = build_crystal(datum, Weight(lam))
        for v in graph.vertices:
            assert dual(v) == omega(lusztig_S(v))
            assert dual(dual(v)) == v


def test_dual_swaps_raising_and_lowering_same_label():
    for datum, lam in [(A1, (2,)), (A2, (1, 0)), (C2, (0, 1))]:
        graph = build_crystal(datum, Weight(lam))
        for v in graph.vertices:
            for j in graph.labels:
                image = f_operator(dual(v), j)
                lifted = e_operator(v, j)
                assert (lifted is None) == (image is None)
                if lifted is not None:
                    assert dual(lifted) == image


def test_points_and_representatives_agree():
    # the involutions act on orbit points; the reference formulas act on the
    # coset representatives: dual x -> floor(x w0) in W^omega(J), S x ->
    # floor(w0 x) in W^J (both reversed), omega x -> the omega-image of x's word
    cases = [
        (build_root_datum("A", 3), (1, 1, 1)), (C2, (1, 1)), (G2, (1, 1)),
        (build_root_datum("D", 4), (0, 1, 0, 0)), (build_root_datum("E", 6), (1, 0, 0, 0, 0, 0)),
    ]
    for datum, lam in cases:
        weyl = datum.weyl
        w0 = longest(weyl)
        J = datum.stabilizer(Weight(lam))
        om_J = frozenset(datum.omega[i - 1] for i in J)

        def omega_image(x):
            out = weyl.identity
            for i in x.reduced_word():
                out = out * weyl.simple[datum.omega[i - 1] - 1]
            return out

        for eta in build_crystal(datum, Weight(lam)).vertices:
            assert eta.directions == tuple(x.act_weight(eta.lam) for x in cosets(eta))
            assert all(min_coset_rep(weyl, x, J) == x for x in cosets(eta))
            assert cosets(dual(eta)) == tuple(min_coset_rep(weyl, x * w0, om_J) for x in reversed(cosets(eta)))
            assert cosets(lusztig_S(eta)) == tuple(min_coset_rep(weyl, w0 * x, J) for x in reversed(cosets(eta)))
            assert cosets(omega(eta)) == tuple(omega_image(x) for x in cosets(eta))


def test_dual_lands_in_the_contragredient_shape():
    eta = straight_path(A2, Weight((1, 0)))
    assert dual(eta).lam == Weight((0, 1))
    assert omega(eta).lam == Weight((0, 1))


# ------------------------------------------------------------- crystal closure


def test_crystal_sizes_small_cases():
    cases = [
        (A1, (1,), 2),
        (A1, (2,), 4),
        (A1, (3,), 8),
        (A2, (1, 0), 3),
        (A2, (1, 1), 9),
        (C2, (1, 0), 4),
        (C2, (0, 1), 5),
        (B2, (1, 0), 5),
        (B2, (0, 1), 4),
    ]
    for datum, lam, size in cases:
        graph = build_crystal(datum, Weight(lam))
        assert len(graph.vertices) == size
        assert graph.is_connected()


def test_crystal_distinguished_is_straight_dominant():
    graph = build_crystal(A2, Weight((1, 1)))
    assert graph.vertices[graph.distinguished] == straight_path(A2, Weight((1, 1)))
    assert graph.weight_of[graph.distinguished] == Weight((1, 1))


def test_weight_multiset_is_reflection_invariant():
    for datum, lam in [(A1, (3,)), (A2, (1, 1)), (C2, (0, 1)), (B2, (1, 0)), (G2, (1, 0))]:
        graph = build_crystal(datum, Weight(lam))
        weights = sorted(graph.weights[v].coords for v in graph.vertices)
        for s in datum.weyl.simple:
            image = sorted(s.act_weight(graph.weights[v]).coords for v in graph.vertices)
            assert image == weights


def test_arrow_reversibility_explicitly():
    graph = build_crystal(C2, Weight((0, 1)))
    for (v, j), w in graph.f_arrows.items():
        assert graph.e_arrows[(w, j)] == v
    for (v, j), w in graph.e_arrows.items():
        assert graph.f_arrows[(w, j)] == v


@pytest.mark.parametrize(
    "arrays,value,message",
    [
        ("e", -1, "f then e is not the identity at label 1"),  # an f-arrow has no way back
        ("f", -1, "e then f is not the identity at label 1"),  # an e-arrow has no way back
        # the weight is stored as its key: write another weight's key
        ("weight_of", Weight((1, 1)), "weight step along an f-arrow at label"),
    ],
)
def test_check_rejects_a_broken_crystal(arrays, value, message):
    graph = build_crystal(C2, Weight((0, 1)))
    graph.check()
    v = next(i for i, w in enumerate(graph.f[1]) if w >= 0)
    w = graph.f[1][v]
    if arrays == "e":
        graph.e[1][w] = -1
    elif arrays == "f":
        graph.f[1][v] = -1
    else:
        assert graph.weight_of[w] != value
        graph.keys[w] = graph.packing.pack(value.coords)
        assert graph.weight_of[w] == value
    with pytest.raises(InternalError, match=message):
        graph.check()


def brute_force_paths(datum, lam):
    """Every valid path whose breaks have denominator at most the largest
    pairing of a positive coroot against lam."""
    lam = Weight(lam)
    J = datum.stabilizer(lam)
    reps = [x.reduced_word() for x in coset_reps(datum.weyl, J)]
    top = max(datum.pairing(c, lam) for c in datum.positive_coroots)
    values = sorted(
        {Fraction(p, q) for q in range(2, top + 1) for p in range(1, q)}
    )
    found = set()
    for s in range(1, len(values) + 2):
        for dirs in itertools.product(reps, repeat=s):
            if any(a == b for a, b in zip(dirs, dirs[1:])):
                continue
            for mids in itertools.combinations(values, s - 1):
                breaks = (Fraction(0),) + mids + (Fraction(1),)
                try:
                    found.add(qls_path(datum, lam, dirs, breaks))
                except InputError:
                    continue
    return found


def test_closure_matches_brute_force_enumeration():
    for datum, lam in [(A1, (2,)), (A1, (3,)), (A2, (1, 0)), (A2, (1, 1)),
                       (C2, (1, 0)), (C2, (0, 1)), (B2, (1, 0)), (B2, (0, 1))]:
        graph = build_crystal(datum, Weight(lam))
        assert set(graph.vertices) == brute_force_paths(datum, lam)


# ---------------------------------------------------------------- enumeration

# the qls-ladder weights of the benchmark, plus small and zero cases
ENUMERATION_CASES = [
    ("A", 3, (1, 1, 1)),
    ("G", 2, (1, 1)),
    ("C", 3, (1, 0, 1)),
    ("B", 3, (0, 1, 1)),
    ("D", 4, (0, 0, 1, 1)),
    ("C", 4, (1, 0, 0, 1)),
    ("A", 2, (1, 1)),
    ("G", 2, (2, 1)),
    ("A", 2, (0, 0)),
]


@pytest.mark.parametrize("label,rank,coords", ENUMERATION_CASES)
def test_enumeration_equals_the_closure_of_the_straight_path(label, rank, coords):
    # QLS(lambda) is connected, so closing the straight path under the root
    # operators reaches exactly the paths that the definition enumerates
    datum = build_root_datum(label, rank)
    lam = Weight(coords)
    found = [(points, cuts) for points, cuts, _, _ in enumerate_paths(datum, lam)]
    assert len(found) == len(set(found))
    graph = _closure(datum, lam)
    assert set(found) == {(v.points, v.cuts) for v in graph.vertices}


@pytest.mark.parametrize("label,rank,coords", ENUMERATION_CASES)
def test_enumerated_paths_are_valid_with_their_weight_and_degree(label, rank, coords):
    datum = build_root_datum(label, rank)
    lam = Weight(coords)
    graph = orbit_graph(datum, lam)
    for points, cuts, weight, neg_deg in enumerate_paths(datum, lam):
        directions = [graph.points[n] for n in points]
        eta = qls_path(datum, lam, directions, [Fraction(c, graph.L) for c in cuts])
        assert (eta.points, eta.cuts) == (points, cuts)
        assert eta.weight == weight
        assert -deg(eta) == neg_deg


def test_enumeration_rejects_non_dominant_weight():
    with pytest.raises(InputError, match="dominant"):
        list(enumerate_paths(A2, Weight((1, -1))))


def _assert_integrality_checks(monkeypatch, run):
    """run(datum, lam) on two faked orbit graphs must raise both checks."""
    # each fake acts on the orbit graph of a fresh datum, so the faked searches
    # neither meet nor leave a cached graph
    search = OrbitGraph.search

    def weights_one(self, y, v):
        return {x: 0 if x == y else 1 for x in search(self, y, v)}

    with monkeypatch.context() as m:
        m.setattr(OrbitGraph, "search", weights_one)
        # (s1, e; 0, 1/2, 1) of shape 2w1 has -deg (1 - 1/2) * 1 = 1/2
        with pytest.raises(InternalError, match=r"degree -1/2 is not an integer"):
            run(build_root_datum("A", 1), Weight((2,)))
    graph = orbit_graph(fresh := build_root_datum("A", 1), Weight((1,)))
    monkeypatch.setattr(graph, "pairings", (3,))
    monkeypatch.setattr(graph, "L", 3)
    # and every vertex reachable at denominator 3, at its true path weight
    monkeypatch.setattr(graph, "search", lambda y, v: search(graph, y, 1))
    # with every pairing 3, (s1, e; 0, 1/3, 1) of shape w1 weighs -1/3 + 2/3
    with pytest.raises(InternalError, match=r"weight .* is not integral"):
        run(fresh, Weight((1,)))


def test_enumeration_keeps_the_integrality_checks(monkeypatch):
    _assert_integrality_checks(monkeypatch, lambda datum, lam: list(enumerate_paths(datum, lam)))


def test_qls_character_keeps_the_integrality_checks(monkeypatch):
    # the character checks each distinct key once instead of each path
    _assert_integrality_checks(monkeypatch, character_from_qls)


def _enumerate_on_a_fresh_datum():
    d = build_root_datum("C", 2)
    assert sum(1 for _ in enumerate_paths(d, d.rho)) == 20
    assert list(d._orbit_graphs) == [d.rho]
    return weakref.ref(d)


def test_enumeration_keeps_no_datum_alive():
    # the orbit graph lives on the datum, so nothing outlives it
    ref = _enumerate_on_a_fresh_datum()
    gc.collect()
    assert ref() is None


# ------------------------------------------------------------ crystal builder

LADDER = ENUMERATION_CASES[:6]


@pytest.mark.parametrize(
    "label,rank,coords",
    LADDER
    + [("G", 2, (2, 1)), ("C", 3, (1, 1, 1)), ("C", 2, (2, 1)), ("E", 6, (1, 0, 0, 0, 0, 0))],
)
def test_builder_equals_the_closure(label, rank, coords):
    datum = build_root_datum(label, rank)
    lam = Weight(coords)
    graph, ref = build_crystal(datum, lam), _closure(datum, lam)
    assert graph.vertices == ref.vertices
    assert graph.e_arrows == ref.e_arrows
    assert graph.f_arrows == ref.f_arrows
    assert graph.weights == ref.weights


@pytest.mark.parametrize("label,rank,coords", [("A", 3, (1, 1, 0)), ("B", 3, (0, 1, 1))])
def test_paths_read_in_equal_the_crystal_vertices(label, rank, coords):
    # qls_path turns weights and words of nodes into orbit-graph indices; either
    # way the path equals, and hashes as, the builder's vertex
    datum = build_root_datum(label, rank)
    lam = Weight(coords)
    graph = build_crystal(datum, lam)
    for i, v in enumerate(graph.vertices):
        for directions in (v.directions, v.words):
            eta = qls_path(datum, lam, directions, v.breaks)
            assert eta == v and hash(eta) == hash(v)
            assert eta.points == v.points and graph.index[eta] == i


@pytest.mark.parametrize("label,rank,coords", LADDER)
def test_public_operators_reproduce_every_arrow(label, rank, coords):
    graph = build_crystal(build_root_datum(label, rank), Weight(coords))
    for v in graph.vertices:
        for j in graph.labels:
            assert e_operator(v, j) == graph.e_arrows.get((v, j))
            assert f_operator(v, j) == graph.f_arrows.get((v, j))


def test_builder_rejects_an_image_outside_the_enumeration(monkeypatch):
    window = qls_model._window

    def off_by_a_break(points, cuts, vals, m, L, reflected, raising):
        image = window(points, cuts, vals, m, L, reflected, raising)
        if image is None:
            return None
        points, cuts = image
        assert all(0 <= n < len(reflected) for n in points)  # orbit-graph indices
        # the last break moved from 1 to 2
        return points, cuts[:-1] + (2 * L,)

    monkeypatch.setattr(qls_model, "_window", off_by_a_break)
    with pytest.raises(InternalError, match="root operator produced an invalid path"):
        build_crystal(A2, Weight((1, 1)))


def test_builder_requires_the_operators_to_reach_every_path(monkeypatch):
    enumerate_paths = qls_model.enumerate_paths

    def with_a_stray(datum, lam):
        yield from enumerate_paths(datum, lam)
        graph = orbit_graph(datum, lam)
        # a vertex index past the orbit, which no arrow can reach
        yield (len(graph.points),), (0, graph.L), Weight((5, 5)), 0

    monkeypatch.setattr(qls_model, "enumerate_paths", with_a_stray)
    with pytest.raises(InternalError, match="reach 9 of the 10 paths"):
        build_crystal(A2, Weight((1, 1)))


# ------------------------------------------- the rational operator rule
# _h_breaks, _checked_minimum, _reach and _window as they read with breaks
# held as fractions; the integer rule over L must give the same images


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
    pieces += [(reflect(datum, dirs[k], root), breaks[k + 1]) for k in range(i0, i1 - 1)]
    pieces.append((reflect(datum, dirs[i1 - 1], root), t1))
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


@pytest.mark.parametrize(
    "label,rank,coords",
    LADDER + [("G", 2, (2, 1)), ("C", 3, (1, 1, 1)), ("E", 6, (1, 0, 0, 0, 0, 0))],
)
def test_integer_operator_rule_equals_the_rational_one(label, rank, coords):
    datum = build_root_datum(label, rank)
    lam = Weight(coords)
    orbit = orbit_graph(datum, lam)
    L = orbit.L
    if (label, coords) == ("G", (2, 1)):
        assert L == 420  # the largest grid of break points among these cases
    graph = build_crystal(datum, lam)
    for v in graph.vertices:
        assert v.L == L and v.breaks == tuple(Fraction(c, L) for c in v.cuts)
        for j in graph.labels:
            vals = _h_breaks(v, j)
            m = _checked_minimum(vals)
            scaled = qls_model._h_breaks(orbit.affine_pairings(j), v.points, v.cuts)
            assert scaled == [L * h for h in vals]
            assert (epsilon(v, j), phi(v, j)) == (-m, vals[-1] - m)
            for arrows, raising in ((graph.e_arrows, True), (graph.f_arrows, False)):
                ref = _window(v, j, vals, m, raising)
                image = qls_model._window(v.points, v.cuts, scaled, m, L, orbit.affine_reflections(j), raising)
                assert (image is None) == (ref is None) == ((v, j) not in arrows)
                if ref is not None:
                    # the integer rule's images are orbit-graph indices
                    points = tuple(orbit.points[n] for n in image[0])
                    assert (points, tuple(Fraction(c, L) for c in image[1])) == ref
                    w = arrows[(v, j)]
                    assert (w.directions, w.breaks) == ref


# -------------------------------------------------------------------- tensors


def test_tensor_of_two_strings():
    b = build_crystal(A1, Weight((1,)))
    square = tensor(b, b)
    assert len(square.vertices) == 4
    assert square.is_connected()


def test_tensor_weights_are_sums():
    b = build_crystal(A1, Weight((1,)))
    square = tensor(b, b)
    for u, v in square.vertices:
        assert square.weights[(u, v)] == b.weights[u] + b.weights[v]


@pytest.mark.parametrize("label", ["C", "B"])
def test_tensor_square_keys_unpack_to_the_factor_weight_sums(label):
    # the squares perfect builds on C3 and B3, one per node
    datum = build_root_datum(label, 3)
    for node in range(1, 4):
        b = build_crystal(datum, datum.fundamental_weight(node))
        square = tensor(b, b)
        assert square.packing.bound == 2 * b.packing.bound
        weights = b.weight_of
        pairs = itertools.product(weights, weights)
        assert square.weight_of == [u + v for u, v in pairs]


def test_packing_refuses_a_coordinate_outside_its_range():
    packing = WeightPacking(A2, 2)
    for coords in [(2, -2), (0, 0), (-1, 2)]:
        assert packing.unpack(packing.pack(coords)) == Weight(coords)
    # digits run over [-4, 4], the bound plus alpha_1's coordinate 2, so
    # (5, 0) would alias (-4, 1)
    assert packing.base == 9
    for coords in [(3, 0), (0, -3), (5, 0)]:
        with pytest.raises(InternalError, match="outside the packing range"):
            packing.pack(coords)
    with pytest.raises(InternalError, match="digits past"):
        packing.unpack(packing.base**2)
    # the digits past the last coordinate hold a whole number t, which split
    # reads back and unpack refuses
    carry = packing.base**2
    assert packing.carry == carry
    key = packing.pack((-1, 2))
    for t in (-2, 0, 3):
        assert packing.split(key + t * carry) == (t, (-1, 2))
    for t in (-2, 3):
        with pytest.raises(InternalError, match="digits past"):
            packing.unpack(key + t * carry)


def test_the_crystal_of_lambda_packs_as_its_fundamental_factors_do():
    # so the tensor isomorphism compares keys without repacking
    lam = Weight((1, 1))
    square = tensor(*(build_crystal(C2, C2.fundamental_weight(i)) for i in (1, 2)))
    source = build_crystal(C2, lam)
    assert source.packing.bound == square.packing.bound
    assert source.keys_in(square.packing) is source.keys
    wider = WeightPacking(C2, 5)
    assert [wider.unpack(k) for k in source.keys_in(wider)] == source.weight_of


def test_tensor_lowering_acts_on_left_when_right_is_exhausted():
    b = build_crystal(A1, Weight((1,)))
    square = tensor(b, b)
    top = straight_path(A1, Weight((1,)))
    low = path(A1, (1,), [(1,)], (0, 1))
    assert square.f_arrows[((top, top), 1)] == (low, top)


def test_tensor_contains_the_classical_singlet():
    b = build_crystal(A1, Weight((1,)))
    square = tensor(b, b)
    top = straight_path(A1, Weight((1,)))
    low = path(A1, (1,), [(1,)], (0, 1))
    i = square.index[(top, low)]
    assert square.eps[1][i] == 0
    assert square.phi[1][i] == 0


def test_tensor_requires_two_factors_sharing_a_datum():
    b = build_crystal(A1, Weight((1,)))
    with pytest.raises(InputError, match="two factors"):
        tensor(b)
    with pytest.raises(InputError, match="share"):
        tensor(b, build_crystal(A2, Weight((1, 0))))


def test_triple_tensor_associates_in_size_and_weights():
    b = build_crystal(A1, Weight((1,)))
    cube = tensor(b, b, b)
    assert len(cube.vertices) == 8
    weights = sorted(cube.weights[v].coords[0] for v in cube.vertices)
    assert weights == [-3, -1, -1, -1, 1, 1, 1, 3]


def kashiwara_pair(left, right):
    """left (x) right by the two-factor rule: f_j acts on the left factor when
    phi_j(b1) > eps_j(b2), e_j on the right factor when eps_j(b2) > phi_j(b1)."""
    vertices = tuple(itertools.product(left.vertices, right.vertices))
    weights, e_arrows, f_arrows = {}, {}, {}
    pairs = itertools.product(enumerate(left.vertices), enumerate(right.vertices))
    for (i1, b1), (i2, b2) in pairs:
        weights[(b1, b2)] = left.weights[b1] + right.weights[b2]
        for j in left.labels:
            if left.phi[j][i1] > right.eps[j][i2]:
                f_arrows[((b1, b2), j)] = (left.f_arrows[(b1, j)], b2)
            elif (b := right.f_arrows.get((b2, j))) is not None:
                f_arrows[((b1, b2), j)] = (b1, b)
            if right.eps[j][i2] > left.phi[j][i1]:
                e_arrows[((b1, b2), j)] = (b1, right.e_arrows[(b2, j)])
            elif (b := left.e_arrows.get((b1, j))) is not None:
                e_arrows[((b1, b2), j)] = (b, b2)
    distinguished = (left.vertices[left.distinguished], right.vertices[right.distinguished])
    return indexed(left.datum, vertices, weights, e_arrows, f_arrows, distinguished)


def flat(b):
    """(b1, (b2, b3)) -> (b1, b2, b3); a pair of paths stays as it is."""
    head, tail = b
    return (head,) + tail if isinstance(tail, tuple) else b


# the columns of each product; the G2 case has two factors
PRODUCTS = pytest.mark.parametrize(
    "datum,columns",
    [(A2, [(1, 0), (0, 1), (1, 0)]), (C2, [(1, 0), (0, 1), (0, 1)]), (G2, [(1, 0), (0, 1)])],
    ids=["A2", "C2", "G2"],
)


@PRODUCTS
def test_signature_rule_matches_the_nested_two_factor_rule(datum, columns):
    # B1 (x) (B2 (x) B3) by the two-factor rule, flattened, has the same arrows
    factors = [build_crystal(datum, Weight(c)) for c in columns]
    nested = factors[-1]
    for left in reversed(factors[:-1]):
        nested = kashiwara_pair(left, nested)
    product = tensor(*factors)
    assert set(product.vertices) == {flat(b) for b in nested.vertices}
    for mine, ref in ((product.e_arrows, nested.e_arrows), (product.f_arrows, nested.f_arrows)):
        assert mine == {(flat(b), j): flat(t) for (b, j), t in ref.items()}


def assert_same_crystal(graph, ref):
    """The index-array crystal equals the dict-based reference: vertex order,
    distinguished vertex, arrows, weights, eps and phi at every (vertex,
    label), and connectedness."""
    assert graph.vertices == ref.vertices
    assert graph.vertices[graph.distinguished] == ref.distinguished
    assert graph.e_arrows == ref.e_arrows
    assert graph.f_arrows == ref.f_arrows
    assert graph.weights == ref.weights
    for i, v in enumerate(graph.vertices):
        for j in graph.labels:
            assert (graph.eps[j][i], graph.phi[j][i]) == (ref.eps(v, j), ref.phi(v, j))
    assert graph.is_connected() == ref.is_connected()


@pytest.mark.parametrize("label,rank", [("B", 3), ("C", 3), ("D", 4), ("G", 2)])
def test_indexed_squares_match_the_dict_reference(label, rank):
    # every node's tensor square, as the perfectness check builds it
    datum = build_root_datum(label, rank)
    for node in range(1, rank + 1):
        b = build_crystal(datum, datum.fundamental_weight(node))
        ref = crystal_reference.reference(b)
        assert_same_crystal(b, ref)
        assert_same_crystal(tensor(b, b), crystal_reference.tensor(ref, ref))


@PRODUCTS
def test_indexed_tensor_matches_the_dict_reference(datum, columns):
    factors = [build_crystal(datum, Weight(c)) for c in columns]
    refs = [crystal_reference.reference(b) for b in factors]
    assert_same_crystal(tensor(*factors), crystal_reference.tensor(*refs))


# -------------------------------------------------------------------- exports


def test_path_json_round_trips_deterministically():
    eta = path(A1, (2,), [(), (1,)], (0, Fraction(1, 2), 1))
    blob = eta.to_json_dict()
    assert blob["directions"] == [[], [1]]
    assert blob["breaks"] == ["0/1", "1/2", "1/1"]
    assert blob["weight"] == [0]
    assert blob["deg"] == -1
    assert json.dumps(blob) == json.dumps(eta.to_json_dict())


def test_crystal_exports():
    graph = build_crystal(A1, Weight((2,)))
    blob = graph.to_json_dict()
    assert len(blob["vertices"]) == 4
    assert blob["connected"] is True
    assert blob["distinguished"] == 0
    assert all({"j", "source", "target"} <= set(a) for a in blob["arrows"])
    dot = graph.to_dot()
    assert dot.startswith("digraph") and dot.endswith("}")


def test_larger_rank_two_closures_stay_consistent():
    for datum, lam in [(C2, (1, 1)), (G2, (1, 0)), (G2, (0, 1))]:
        graph = build_crystal(datum, Weight(lam))
        assert graph.is_connected()
        weights = sorted(graph.weights[v].coords for v in graph.vertices)
        for s in datum.weyl.simple:
            image = sorted(s.act_weight(graph.weights[v]).coords for v in graph.vertices)
            assert image == weights


# J over the empty set, {1}, all nodes but 1 and all nodes but the last
PARABOLIC_HOOK = sorted({
    (label, rank, J)
    for label, rank in [("A", 2), ("A", 3), ("B", 3), ("C", 3), ("G", 2), ("D", 4), ("F", 4), ("B", 5), ("A", 6), ("D", 5)]
    for J in ((), (1,), tuple(range(2, rank + 1)), tuple(range(1, rank)))
})


@pytest.mark.parametrize("label, rank, J", PARABOLIC_HOOK)
def test_parabolic_hook_is_qbg_on_the_orbit(monkeypatch, label, rank, J):
    # the benchmark replay's hook reads QB(W^J) as the orbit graph of the sum
    # of omega_i outside J, and builds no Weyl group
    def refused(self, datum):
        raise AssertionError("the parabolic hook must not build a Weyl group")

    datum, J = build_root_datum(label, rank), frozenset(J)
    with monkeypatch.context() as m:
        m.setattr(WeylGroup, "__init__", refused)
        m.setattr(qls_model, "_parabolic_cache", {})
        graph = qls_model._parabolic_graph(datum, J)
    reference = build_qbg(datum, J)
    lam = Weight(tuple(int(i not in J) for i in range(1, rank + 1)))
    assert len(graph.vertices) == len(reference.vertices)
    assert set(graph.vertices) == {x.act_weight(lam) for x in reference.vertices}
    assert graph.edge_count() == reference.edge_count()
