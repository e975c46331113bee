"""Lex chains, admissible subsets, folding, and the root operators."""

import gc
import itertools
import weakref
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

import pytest

from qalcove import alcove_model
from qalcove.alcove_model import (
    AdmissibleSubset,
    ChainEntry,
    LambdaChain,
    _alpha_signed,
    _label_feeds,
    _label_samples,
    build_crystal,
    chain_from_roots,
    enumerate_admissible,
    lex_chain,
)
from qalcove.characters import character_from_alcove, decompose
from qalcove.correspondence import verify_intertwining
from qalcove.lie_data import InputError, InternalError, Weight, WeylElement, build_root_datum
from qalcove.quantum_bruhat import BRUHAT, QUANTUM
import alcove_reference


# The weights of the alcove-ladder benchmark workload, with their types.
LADDER = [
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
]


def _ladder_chains():
    """Each ladder weight's lex chain, C2 (2,1)'s, C3 rho's chain on every
    other node order, and a chain_from_roots chain that is not lex."""
    for label, rank, lam in LADDER + [("C", 2, (2, 1))]:
        yield pytest.param(label, rank, lam, None, None, id=f"{label}{rank}-{lam}")
    for order in list(itertools.permutations(range(1, 4)))[1:]:
        yield pytest.param("C", 3, (1, 1, 1), order, None, id=f"C3-rho-order-{order}")
    # a1 and a1+2a2+a3 are orthogonal, so swapping entries 8 and 9 of C3
    # rho's lex chain keeps it a reduced alcove walk
    yield pytest.param("C", 3, (1, 1, 1), None, (8, 9), id="C3-rho-swapped")


def _chain(label, rank, lam, order, swap):
    d = build_root_datum(label, rank)
    chain = lex_chain(d, Weight(lam), order)
    if swap is None:
        return chain
    roots = [e.root for e in chain.entries]
    i, j = swap
    roots[i], roots[j] = roots[j], roots[i]
    chain = chain_from_roots(d, Weight(lam), roots)
    assert not chain.lex
    return chain


def names(datum, chain):
    return [(datum.root_name(e.root), e.level) for e in chain.entries]


@dataclass(frozen=True)
class FoldedChain:
    gammas: tuple[int, ...]  # signed 1-based positive-root indices
    heights: tuple[int, ...]  # l_i^A
    gamma_inf: Weight  # image of rho under the full folding
    linear: WeylElement  # linear part of the full affine composition
    translation: Weight  # translation part


def fold(chain, positions):
    """Reference: fold the whole walk at the given 1-based positions (any
    subset of [m]), composing the affine reflections one by one."""
    datum = chain.datum
    weyl = datum.weyl
    w = weyl.identity
    v = Weight((0,) * datum.rank)
    pos_set = set(positions)
    gammas, heights = [], []
    for i, entry in enumerate(chain.entries, start=1):
        g = w.perm[entry.root]
        sign = 1 if g > 0 else -1
        c = datum.pairing(datum.positive_coroots[abs(g) - 1], v)
        gammas.append(g)
        heights.append(sign * entry.level - c)
        if i in pos_set:
            shift = w.act_weight(Weight(datum.root_weights[entry.root]))
            v = v - Weight(tuple(entry.level * x for x in shift.coords))
            w = w * weyl.reflection(entry.root)
    return FoldedChain(tuple(gammas), tuple(heights), w.act_weight(datum.rho), w, v)


def weight_of(chain, positions):
    """wt(A) = -(composition of the affine reflections applied to -lambda)."""
    folded = fold(chain, tuple(positions))
    return folded.linear.act_weight(chain.lam) - folded.translation


def test_lex_chain_a1_doubled():
    d = build_root_datum("A", 1)
    chain = lex_chain(d, Weight((2,)))
    assert names(d, chain) == [("a1", 0), ("a1", 1)]


def test_lex_chain_a2_fundamental():
    d = build_root_datum("A", 2)
    chain = lex_chain(d, Weight((1, 0)))
    assert names(d, chain) == [("a1", 0), ("a1+a2", 0)]


def test_lex_chain_zero_weight():
    d = build_root_datum("C", 2)
    assert len(lex_chain(d, Weight((0, 0)))) == 0


def test_lex_chain_c2_fundamental():
    d = build_root_datum("C", 2)
    chain = lex_chain(d, Weight((1, 0)))
    assert names(d, chain) == [("a1", 0), ("2a1+a2", 0), ("a1+a2", 0)]


def test_lex_chain_total_length():
    for label, rank, lam in [
        ("A", 2, (1, 1)),
        ("C", 2, (1, 1)),
        ("G", 2, (0, 1)),
        ("A", 3, (0, 1, 0)),
    ]:
        d = build_root_datum(label, rank)
        w = Weight(lam)
        m = sum(
            d.pairing_index(k, w) for k in range(len(d.positive_roots))
        )
        assert len(lex_chain(d, w)) == m


def test_chain_levels_count_earlier_crossings():
    d = build_root_datum("C", 2)
    chain = lex_chain(d, Weight((2, 1)))
    seen = {}
    for e in chain.entries:
        assert e.level == seen.get(e.root, 0)
        seen[e.root] = seen.get(e.root, 0) + 1


def test_lex_chain_rejects_non_dominant():
    d = build_root_datum("A", 2)
    with pytest.raises(InputError):
        lex_chain(d, Weight((-1, 0)))
    with pytest.raises(InputError):
        lex_chain(d, d.rho, (1, 1))


def test_user_chain_roundtrip_is_lex():
    d = build_root_datum("A", 2)
    base = lex_chain(d, d.rho)
    again = chain_from_roots(d, d.rho, [d.positive_roots[e.root] for e in base.entries])
    assert again.lex
    assert again.entries == base.entries


def test_user_chain_other_node_order_is_valid_but_not_lex():
    d = build_root_datum("A", 2)
    other = lex_chain(d, d.rho, (2, 1))
    rebuilt = chain_from_roots(d, d.rho, [d.positive_roots[e.root] for e in other.entries])
    assert not rebuilt.lex
    with pytest.raises(InputError):
        build_crystal(enumerate_admissible(rebuilt))


@pytest.mark.parametrize(
    "label, rank, lam",
    [("A", 3, (1, 1, 1)), ("C", 3, (1, 0, 0)), ("B", 3, (1, 1, 1)), ("G", 2, (2, 1))],
)
def test_user_chain_accepts_every_lex_chain(label, rank, lam):
    # the last wall of the fundamental alcove belongs to the highest short
    # root, and a weight outside the root lattice ends the walk at a
    # translate that is not (identity, -lambda)
    d = build_root_datum(label, rank)
    for order in itertools.permutations(range(1, rank + 1)):
        base = lex_chain(d, Weight(lam), order)
        again = chain_from_roots(d, Weight(lam), [e.root for e in base.entries])
        assert again.entries == base.entries


@pytest.mark.parametrize("label, rank, lam", LADDER)
def test_integer_lex_keys_match_the_fraction_rule(label, rank, lam):
    # the integer keys are the rational ones scaled by one positive lcm, so
    # every node order sorts the hyperplanes as the Fraction keys do
    d = build_root_datum(label, rank)
    for order in itertools.permutations(range(1, rank + 1)):
        assert lex_chain(d, Weight(lam), order).entries == alcove_reference.lex_entries(d, Weight(lam), order)


def test_user_chain_rejects_wrong_counts():
    d = build_root_datum("A", 2)
    with pytest.raises(InputError):
        chain_from_roots(d, d.rho, [(1, 0), (0, 1), (1, 1)])  # a1+a2 only once


def test_user_chain_rejects_non_wall_crossing():
    d = build_root_datum("A", 2)
    # crossing the level-zero hyperplane of a1+a2 first is not a wall of the
    # fundamental alcove
    with pytest.raises(InputError):
        chain_from_roots(d, d.rho, [(1, 1), (1, 1), (1, 0), (0, 1)])


def test_admissible_enumeration_a2():
    d = build_root_datum("A", 2)
    chain = lex_chain(d, Weight((1, 0)))
    subsets = enumerate_admissible(chain)
    assert [a.positions for a in subsets] == [(), (1,), (1, 2)]


def test_admissible_enumeration_a1():
    d = build_root_datum("A", 1)
    chain = lex_chain(d, Weight((2,)))
    subsets = enumerate_admissible(chain)
    assert {a.positions for a in subsets} == {(), (1,), (2,), (1, 2)}


def test_admissible_enumeration_empty_chain():
    d = build_root_datum("A", 2)
    chain = lex_chain(d, Weight((0, 0)))
    subsets = enumerate_admissible(chain)
    assert [a.positions for a in subsets] == [()]


@pytest.mark.parametrize("label, rank, lam, order, swap", _ladder_chains())
def test_enumeration_equals_the_former_one(label, rank, lam, order, swap):
    chain = _chain(label, rank, lam, order, swap)
    ours, former = enumerate_admissible(chain), alcove_reference.enumerate_admissible(chain)
    assert [(a.positions, a.path, a.edge_kinds, a.weight, a.height) for a in ours] == [
        (a.positions, a.path, a.edge_kinds, a.weight, a.height) for a in former
    ]
    # the walk's packed weights unpack to the former ones, whose coordinates
    # reach the packing's bound and never pass it
    walked = [chain.packing.unpack(x).coords for _, _, _, _, x, _ in alcove_model.walk_admissible(chain)]
    assert walked == [a.weight.coords for a in former]
    assert max(abs(c) for coords in walked for c in coords) == chain.packing.bound
    assert all(a.chain is chain for a in ours)
    # the character counted off the walk is the (weight, height) bag of the subsets
    bag = Counter((a.weight.coords, a.height) for a in former)
    assert character_from_alcove(chain).terms == bag


def test_packing_round_trips_within_the_offset():
    # an alcove chain packs its weights under the shape's packing: it round-trips
    # at +-bound, refuses a coordinate past it, and a carry past the last digit,
    # up or down, is an internal failure
    g2 = build_root_datum("G", 2)
    packing = lex_chain(g2, Weight((2, 1))).packing
    b, half = packing.bound, packing.half
    for coords in itertools.product((-b, -1, 0, 1, b), repeat=2):
        assert packing.unpack(packing.pack(coords)) == Weight(coords)
    for coords in [(b + 1, 0), (0, -b - 1)]:
        with pytest.raises(InternalError, match="outside the packing range"):
            packing.pack(coords)
    for key in (packing.linear((half, half)) + 1, packing.linear((-half, -half)) - 1):
        with pytest.raises(InternalError, match="digits past its last coordinate"):
            packing.unpack(key)
    # the zero weight's chain is empty and still packs
    empty = lex_chain(g2, Weight((0, 0))).packing
    assert (empty.bound, empty.unpack(empty.pack((0, 0)))) == (0, Weight((0, 0)))


def test_a_nonpositive_l_tilde_is_refused():
    d = build_root_datum("A", 2)
    # <alpha_1^vee, omega_1> = 1, so a crossing at level 1 leaves l-tilde 0
    with pytest.raises(InternalError, match="height must be nonnegative"):
        LambdaChain(d, Weight((1, 0)), (ChainEntry(d.simple_root_index[0], 1),), None, lex=False)


def test_alcove_character_builds_no_subset(monkeypatch):
    chain = lex_chain(build_root_datum("B", 3), Weight((1, 1, 1)))
    built = []

    class Counted(AdmissibleSubset):
        __slots__ = ()

        def __new__(cls, *args):
            built.append(cls)
            return super().__new__(cls)

    # every subset the model builds goes through its module's class
    monkeypatch.setattr(alcove_model, "AdmissibleSubset", Counted)
    character = character_from_alcove(chain)
    assert built == []
    # the counter sees what enumerate_admissible builds
    subsets = enumerate_admissible(chain)
    assert len(built) == len(subsets) == sum(character.terms.values())


def _check_carried_statistics(chain):
    """The weight and height carried along the walk agree with folding the
    whole chain, with the complementary heights summed here, and with a
    subset rebuilt from its positions."""
    for a in enumerate_admissible(chain):
        assert a.weight == weight_of(chain, a.positions)
        quantum = [p for p, kind in zip(a.positions, a.edge_kinds) if kind == QUANTUM]
        entries = [chain.entries[p - 1] for p in quantum]
        assert a.height == sum(chain.datum.pairing_index(e.root, chain.lam) - e.level for e in entries)
        again = AdmissibleSubset(chain, a.positions)
        assert (again.path, again.edge_kinds, again.weight, again.height) == (
            a.path, a.edge_kinds, a.weight, a.height
        )


@pytest.mark.parametrize(
    "label, rank, lam, node_order",
    [
        ("A", 3, (1, 1, 1), None),
        ("C", 3, (1, 1, 1), (2, 1, 3)),
        ("B", 3, (1, 1, 1), (3, 2, 1)),
        ("G", 2, (2, 1), None),
        ("D", 4, (1, 0, 1, 1), None),
        ("F", 4, (1, 0, 0, 0), None),
    ],
)
def test_carried_statistics_match_folding(label, rank, lam, node_order):
    d = build_root_datum(label, rank)
    _check_carried_statistics(lex_chain(d, Weight(lam), node_order))


def test_carried_statistics_match_folding_on_a_non_lex_chain():
    d = build_root_datum("C", 3)
    roots = [e.root for e in lex_chain(d, d.rho).entries]
    roots[8], roots[9] = roots[9], roots[8]  # a1 and a1+2a2+a3 are orthogonal
    chain = chain_from_roots(d, d.rho, roots)
    assert not chain.lex
    _check_carried_statistics(chain)


def test_enumeration_leaves_no_cycles():
    d = build_root_datum("C", 3)
    chain = lex_chain(d, d.rho)
    character = character_from_alcove(chain)
    decompose(d, character)  # warm-up: fills the cached root tables of the datum
    gc.collect()
    gc.disable()
    try:
        enumerate_admissible(chain)
        assert gc.collect() == 0
        decompose(d, character)
        assert gc.collect() == 0
    finally:
        gc.enable()


def _walk_the_alcove_route():
    d = build_root_datum("B", 2)
    build_crystal(enumerate_admissible(lex_chain(d, d.rho)))
    return weakref.ref(d)


def test_alcove_route_keeps_no_datum_alive():
    # no module-level cache may hold on to a root datum the caller dropped
    ref = _walk_the_alcove_route()
    gc.collect()
    assert ref() is None


def test_weights_a1():
    d = build_root_datum("A", 1)
    chain = lex_chain(d, Weight((2,)))
    assert weight_of(chain, ()) == Weight((2,))
    assert weight_of(chain, (1,)) == Weight((-2,))
    assert weight_of(chain, (2,)) == Weight((0,))
    assert weight_of(chain, (1, 2)) == Weight((0,))


def test_weight_of_non_admissible_subset():
    d = build_root_datum("A", 2)
    chain = lex_chain(d, Weight((1, 0)))
    with pytest.raises(InputError, match="not admissible"):
        AdmissibleSubset(chain, (2,))
    assert weight_of(chain, (2,)) == Weight((0, -1))


def test_fold_empty():
    d = build_root_datum("C", 2)
    chain = lex_chain(d, d.rho)
    folded = fold(chain, ())
    assert folded.gammas == tuple(e.root + 1 for e in chain.entries)
    assert folded.heights == tuple(e.level for e in chain.entries)
    assert folded.gamma_inf == d.rho


def test_fold_a1_single_position():
    d = build_root_datum("A", 1)
    chain = lex_chain(d, Weight((2,)))
    folded = fold(chain, (1,))
    assert folded.gammas == (1, -1)
    assert folded.heights == (0, -1)
    assert folded.gamma_inf == Weight((-1,))


def _operators(graph):
    """f_p and e_p of the alcove crystal as maps on its subsets, None where
    undefined."""
    def op(arrows):
        def apply(A, p):
            k = arrows[p][graph.index[A]]
            return graph.vertices[k] if k >= 0 else None
        return apply
    return op(graph.f), op(graph.e)


def test_operator_examples_a1_fundamental():
    d = build_root_datum("A", 1)
    chain = lex_chain(d, Weight((1,)))
    f_operator, e_operator = _operators(build_crystal(enumerate_admissible(chain)))
    empty = AdmissibleSubset(chain, ())
    one = f_operator(empty, 1)
    assert one.positions == (1,)
    assert f_operator(one, 1) is None
    assert e_operator(empty, 1) is None


def test_operator_examples_a1_doubled():
    d = build_root_datum("A", 1)
    chain = lex_chain(d, Weight((2,)))
    f_operator, e_operator = _operators(build_crystal(enumerate_admissible(chain)))
    empty = AdmissibleSubset(chain, ())
    a2 = f_operator(empty, 1)
    assert a2.positions == (2,)
    a12 = f_operator(a2, 1)
    assert a12.positions == (1,)
    assert f_operator(a12, 1) is None
    assert e_operator(a2, 1).positions == ()
    # the zero-node operator climbs back up the theta string
    assert f_operator(empty, 0) is None
    up = f_operator(a12, 0)
    assert up.positions == (1, 2)
    assert up.weight == Weight((0,))


def _string_lengths(A, p):
    """(phi_p, eps_p) of a subset from the maximum M of its g samples:
    M - delta_{p,0} and M - g(infinity), both 0 below the threshold."""
    finite, inf_sample = _label_samples(A, _label_feeds(A.chain.datum))[p]
    M = max([s for _, s in finite] + [inf_sample])
    delta = 1 if p == 0 else 0
    return (M - delta, M - inf_sample) if M >= delta else (0, 0)


def test_phi_epsilon_a1_doubled():
    d = build_root_datum("A", 1)
    chain = lex_chain(d, Weight((2,)))
    graph = build_crystal(enumerate_admissible(chain))
    empty = graph.index[AdmissibleSubset(chain, ())]
    assert graph.phi[1][empty] == 2
    assert graph.eps[1][empty] == 0
    assert graph.phi[0][empty] == 0
    assert graph.eps[0][empty] == 0
    full = graph.index[AdmissibleSubset(chain, (1,))]
    assert graph.phi[1][full] == 0
    assert graph.eps[1][full] == 2


def test_height_examples():
    a1 = build_root_datum("A", 1)
    chain = lex_chain(a1, Weight((2,)))
    assert AdmissibleSubset(chain, ()).height == 0
    assert AdmissibleSubset(chain, (1, 2)).height == 1
    a2 = build_root_datum("A", 2)
    chain2 = lex_chain(a2, Weight((1, 0)))
    assert AdmissibleSubset(chain2, (1, 2)).height == 0


def test_edge_kinds_a1_doubled():
    d = build_root_datum("A", 1)
    chain = lex_chain(d, Weight((2,)))
    a = AdmissibleSubset(chain, (1, 2))
    assert a.edge_kinds == (BRUHAT, QUANTUM)


def _continuous_max(datum, chain, A, p):
    """Maximum of the piecewise-linear g function, rebuilt from its defining
    slopes; used to confirm the half-integer samples are sufficient."""
    folded = fold(chain, A.positions)
    theta = datum.theta
    root = datum.simple_root_index[p - 1] if p else theta
    sign = 1 if p else -1
    idx = [i for i, g in enumerate(folded.gammas) if abs(g) - 1 == root]
    slopes = []
    for i in idx:
        sgn_gamma = 1 if folded.gammas[i] > 0 else -1
        eps = -1 if (i + 1) in A.positions else 1
        slopes.append(sgn_gamma)
        slopes.append(eps * sgn_gamma)
    last = datum.pairing(datum.positive_coroots[root], folded.gamma_inf)
    assert last != 0
    slopes.append(1 if last > 0 else -1)
    value = Fraction(-1, 2)
    best = value
    for s in slopes:
        value += Fraction(s, 2)
        best = max(best, value)
    if sign < 0:
        # g for a negative root is the reflection of the positive-root graph
        value = Fraction(1, 2)
        best = value
        for s in slopes:
            value -= Fraction(s, 2)
            best = max(best, value)
    return best


def test_samples_match_continuous_maximum():
    # wherever the operator threshold is reached, the continuous maximum is
    # attained at a half-integer sample point
    for label, lam in [("A", (2,)), ("A", (3,))]:
        d = build_root_datum(label, 1)
        chain = lex_chain(d, Weight(lam))
        _sweep_continuous(d, chain)
    for label, lam in [("A", (1, 1)), ("C", (1, 0)), ("C", (0, 1)), ("C", (1, 1)), ("G", (0, 1))]:
        d = build_root_datum(label, 2)
        chain = lex_chain(d, Weight(lam))
        _sweep_continuous(d, chain)


def _sweep_continuous(d, chain):
    feeds = _label_feeds(d)
    for a in enumerate_admissible(chain):
        for p, (finite, inf_sample) in enumerate(_label_samples(a, feeds)):
            delta = 1 if p == 0 else 0
            cont = _continuous_max(d, chain, a, p)
            m_val = max([s for _, s in finite] + [inf_sample])
            if m_val >= delta:
                assert cont == m_val, (a.positions, p)
            else:
                # below threshold the continuous max may exceed the samples
                # by at most 1/2, never enough to reach the threshold
                assert cont <= m_val + Fraction(1, 2)


@pytest.mark.parametrize(
    "label, rank, lam",
    [
        ("A", 2, (1, 1)),
        ("A", 3, (1, 1, 1)),
        ("C", 2, (2, 1)),
        ("C", 3, (1, 0, 1)),
        ("B", 3, (0, 1, 1)),
        ("G", 2, (2, 1)),
        ("D", 4, (0, 1, 0, 0)),
    ],
)
def test_samples_read_off_the_walk_match_folding(label, rank, lam):
    d = build_root_datum(label, rank)
    chain = lex_chain(d, Weight(lam))
    feeds = _label_feeds(d)
    for a in enumerate_admissible(chain):
        folded = fold(chain, a.positions)
        for p, (finite, inf_sample) in enumerate(_label_samples(a, feeds)):
            alpha = _alpha_signed(d, p)
            sign = 1 if alpha > 0 else -1
            expected = [
                (i + 1, sign * folded.heights[i])
                for i, g in enumerate(folded.gammas)
                if abs(g) == abs(alpha)
            ]
            assert finite == expected, (a.positions, p)
            coroot = d.positive_coroots[abs(alpha) - 1]
            assert inf_sample == sign * d.pairing(coroot, weight_of(chain, a.positions))


@pytest.mark.parametrize(
    "label, rank, lam",
    [
        # the verify-crystal workload's weights
        ("G", 2, (1, 1)),
        ("A", 3, (1, 1, 1)),
        ("C", 3, (1, 0, 1)),
        ("D", 4, (0, 1, 0, 0)),
        ("C", 2, (2, 1)),
        # theta = alpha_1: labels 0 and 1 read the same root
        ("A", 1, (2,)),
        ("A", 1, (3,)),
    ],
)
def test_one_walk_samples_every_label_as_the_reference_does(label, rank, lam):
    d = build_root_datum(label, rank)
    feeds = _label_feeds(d)
    assert sum(len(readers) for readers in feeds.values()) == d.rank + 1
    for a in enumerate_admissible(lex_chain(d, Weight(lam))):
        expected = [alcove_reference._samples(a, _alpha_signed(d, p)) for p in range(d.rank + 1)]
        assert _label_samples(a, feeds) == expected, a.positions


@pytest.mark.parametrize("label, rank, lam", [("A", 3, (1, 1, 1)), ("C", 3, (1, 0, 1))])
def test_root_operators_never_fold(label, rank, lam):
    # whole-chain folding lives only in this file, as the reference
    assert not hasattr(alcove_model, "fold")
    d = build_root_datum(label, rank)
    chain = lex_chain(d, Weight(lam))
    assert verify_intertwining(d, Weight(lam), chain=chain)["violations"] == []
    graph = build_crystal(enumerate_admissible(chain))
    for i, a in enumerate(graph.vertices):
        for p in graph.labels:
            lengths = []
            for arrows in (graph.f, graph.e):
                n, cur = 0, arrows[p][i]
                while cur >= 0:
                    n, cur = n + 1, arrows[p][cur]
                lengths.append(n)
            assert tuple(lengths) == _string_lengths(a, p), (a.positions, p)


def test_crystal_axioms_small_sweep():
    cases = [
        ("A", 1, (2,)),
        ("A", 2, (1, 1)),
        ("C", 2, (0, 1)),
        ("C", 2, (1, 0)),
        ("G", 2, (0, 1)),
    ]
    for label, rank, lam in cases:
        d = build_root_datum(label, rank)
        chain = lex_chain(d, Weight(lam))
        subsets = enumerate_admissible(chain)
        graph = build_crystal(subsets)  # postconditions run inside
        f_operator, e_operator = _operators(graph)
        index = {a.positions: a for a in subsets}
        theta_wt = Weight(d.root_weights[d.theta])
        for a in subsets:
            for p in range(0, d.rank + 1):
                phi, epsilon = _string_lengths(a, p)
                down = f_operator(a, p)
                if down is not None:
                    assert down.positions in index
                    step = theta_wt if p == 0 else Weight(d.root_weights[d.simple_root_index[p - 1]])
                    if p == 0:
                        assert down.weight == a.weight + step
                    else:
                        assert down.weight == a.weight - step
                    assert phi >= 1
                up = e_operator(a, p)
                if up is not None:
                    assert f_operator(up, p).positions == a.positions
                    assert epsilon >= 1
                # string formulas, exactly as displayed
                if phi == 0 and epsilon == 0:
                    assert down is None
                else:
                    assert (down is not None) == (phi >= 1)
                    assert (up is not None) == (epsilon >= 1)


def _corrupted(subset, **changes):
    """A copy of an enumerated subset with some of its fields replaced."""
    copy = AdmissibleSubset.__new__(AdmissibleSubset)
    for name in AdmissibleSubset.__slots__:
        setattr(copy, name, changes.get(name, getattr(subset, name)))
    return copy


def _swap_two_paths(subsets):
    # (3,) = f_1(()) and (1,) = f_2(()): both one fold deep
    i, j = (next(k for k, a in enumerate(subsets) if a.positions == p) for p in ((1,), (3,)))
    subsets[i], subsets[j] = _corrupted(subsets[i], path=subsets[j].path), _corrupted(subsets[j], path=subsets[i].path)


def _drop_the_last_subset(subsets):
    subsets.pop()


def _shift_one_weight(subsets):
    subsets[0] = _corrupted(subsets[0], weight=subsets[0].weight + Weight((1, 1)))


def _repeat_one_subset(subsets):
    # the positions now name the copy, so e_p of an f_p image returns to it
    subsets.append(subsets[1])


@pytest.mark.parametrize(
    "corrupt, message",
    [
        (_swap_two_paths, "did not conjugate a contiguous path segment"),
        (_drop_the_last_subset, "root operator produced a non-admissible subset"),
        (_shift_one_weight, "weight step along an f-arrow at label 1 is wrong"),
        (_repeat_one_subset, "f then e is not the identity at label 1"),
    ],
)
def test_alcove_crystal_rejects_a_corrupted_enumeration(corrupt, message):
    d = build_root_datum("A", 2)
    subsets = list(enumerate_admissible(lex_chain(d, d.rho)))
    build_crystal(tuple(subsets))  # the uncorrupted enumeration builds
    corrupt(subsets)
    with pytest.raises(InternalError, match=message):
        build_crystal(tuple(subsets))


def test_weight_multiset_is_invariant_under_chain_choice():
    d = build_root_datum("A", 2)
    default = lex_chain(d, d.rho)
    other = lex_chain(d, d.rho, (2, 1))
    bag1 = sorted((a.weight.coords, a.height) for a in enumerate_admissible(default))
    bag2 = sorted((a.weight.coords, a.height) for a in enumerate_admissible(other))
    assert bag1 == bag2


def test_admissible_json():
    d = build_root_datum("A", 1)
    chain = lex_chain(d, Weight((2,)))
    a = AdmissibleSubset(chain, (1, 2))
    out = a.to_json_dict()
    assert out == {
        "positions": [1, 2],
        "weight": [0],
        "height": 1,
        "path": [[], [1], []],
        "edge_kinds": [BRUHAT, QUANTUM],
    }
    chain_json = chain.to_json_dict()
    assert chain_json["lex"] and len(chain_json["entries"]) == 2
