"""End-to-end acceptance battery; each test prints one pass/fail line."""

import itertools
import time

from qalcove.alcove_model import enumerate_admissible, lex_chain
from qalcove.characters import (
    character_from_alcove,
    character_from_qls,
    decompose,
    format_decomposition,
    weyl_character,
)
from qalcove.correspondence import (
    build_isomorphism_to_tensor,
    forgetful,
    verify_energy,
    verify_intertwining,
)
from qalcove.lie_data import Weight, build_root_datum
from qalcove.perfectness import check_perfect
from qalcove.crystal import tensor
from qalcove.qls_model import build_crystal, deg
from qalcove.quantum_bruhat import orbit_graph
from inverse_reference import increasing_paths_from, inverse, reflection_ordering
from qbg_reference import build_qbg, is_strongly_connected, longest, shortest_paths

A1 = build_root_datum("A", 1)
A2 = build_root_datum("A", 2)
A3 = build_root_datum("A", 3)
B2 = build_root_datum("B", 2)
C2 = build_root_datum("C", 2)
G2 = build_root_datum("G", 2)

# the full battery of weights: every type with its small dominant weights
CASES = [
    (A1, (1,)),
    (A1, (2,)),
    (A1, (3,)),
    (A2, (1, 0)),
    (A2, (0, 1)),
    (A2, (1, 1)),
    (A2, (2, 0)),
    (C2, (1, 0)),
    (C2, (0, 1)),
    (C2, (1, 1)),
    (B2, (1, 0)),
    (B2, (0, 1)),
    (B2, (1, 1)),
    (G2, (1, 0)),
    (G2, (0, 1)),
    (A3, (0, 1, 0)),
]

RANK_TWO = [A2, B2, C2, G2]


def _verdict(number, fallback, func):
    try:
        text = func() or fallback
    except BaseException:
        print(f"ACCEPTANCE {number}: FAIL - {fallback}")
        raise
    print(f"ACCEPTANCE {number}: PASS - {text}")


def _mirror(datum, lam: Weight) -> Weight:
    return -longest(datum.weyl).act_weight(lam)


def test_criterion_01_characters_agree():
    def check():
        start = time.monotonic()
        for datum, lam in CASES:
            lam = Weight(lam)
            assert character_from_alcove(lex_chain(datum, lam)) == character_from_qls(datum, lam)
        elapsed = time.monotonic() - start
        assert elapsed < 60
        return f"both model characters agree for all {len(CASES)} weights ({elapsed:.1f}s)"

    _verdict(1, "both model characters agree for every listed weight", check)


def test_criterion_02_graded_decompositions():
    def check():
        expected = {
            (A1, (2,)): "chi(2) + q*chi(0)",
            (A2, (1, 1)): "chi(1, 1) + q*chi(0, 0)",
            (C2, (0, 1)): "chi(0, 1)",
        }
        for (datum, lam), want in expected.items():
            ch = character_from_qls(datum, Weight(lam))
            parts = decompose(datum, ch)
            assert format_decomposition(parts) == want
            # rebuild every q-layer from the independent multiplicity oracle
            for q in ch.q_exponents():
                rebuilt = None
                for qq, coords, coeff in parts:
                    if qq == q:
                        piece = coeff * weyl_character(datum, Weight(coords))
                        rebuilt = piece if rebuilt is None else rebuilt + piece
                assert rebuilt is not None and ch.q_layer(q) == rebuilt
        return (
            "graded decompositions match the oracle layer by layer; "
            "the five-element column is chi(0, 1) alone, with an empty q-layer"
        )

    _verdict(2, "graded decompositions match the multiplicity oracle", check)


def test_criterion_03_bijection_suite():
    def check():
        for datum, lam in CASES:
            lam = Weight(lam)
            chain = lex_chain(datum, lam)
            subsets = enumerate_admissible(chain)
            crystal = build_crystal(datum, _mirror(datum, lam))
            assert len(subsets) == len(crystal.vertices)
            images = set()
            for A in subsets:
                record = forgetful(A)
                assert record.pi_star.weight == A.weight
                assert inverse(record.pi, chain) == A
                images.add(record.pi)
            assert images == set(crystal.vertices)
            for eta in crystal.vertices:
                assert forgetful(inverse(eta, chain)).pi == eta
        return "counts, weights, and both round trips hold for every weight"

    _verdict(3, "the bijection suite holds for every weight", check)


def test_criterion_04_intertwining_suite():
    def check():
        total = 0
        for datum, lam in CASES:
            report = verify_intertwining(datum, Weight(lam))
            assert report["violations"] == []
            expected = report["counts"]["subsets"] * (datum.rank + 1)
            assert report["counts"]["checks"] == expected
            total += report["counts"]["checks"]
        return f"operators intertwine through the bijection ({total} checks, all labels)"

    _verdict(4, "operators intertwine through the bijection", check)


def test_criterion_05_energy_suite():
    def check():
        total = 0
        for datum, lam in CASES:
            report = verify_energy(datum, Weight(lam))
            assert report["violations"] == []
            total += report["counts"]["checks"]
        return f"height equals minus degree along both routes ({total} checks)"

    _verdict(5, "height equals minus degree along both routes", check)


def test_criterion_06_degree_recursion():
    def check():
        edges = 0
        for datum, lam in CASES:
            graph = build_crystal(datum, Weight(lam))
            theta_vee = datum.positive_coroots[datum.theta]
            for (v, j), w in graph.e_arrows.items():
                if j != 0:
                    assert deg(w) == deg(v)
                elif w.directions[0] == v.directions[0]:
                    assert deg(w) == deg(v) - 1
                else:
                    assert deg(w) == deg(v) + datum.pairing(theta_vee, v.directions[0]) - 1
                edges += 1
        return f"the degree recursion holds on every raising arrow ({edges} arrows)"

    _verdict(6, "the degree recursion holds on every raising arrow", check)


def test_criterion_07_quantum_bruhat_properties():
    def check():
        for datum in [A1] + RANK_TWO:
            rho = datum.rho
            full = build_qbg(datum)
            assert is_strongly_connected(full)
            # well-defined shortest-path weights, full and parabolic
            weights = [rho] + [datum.fundamental_weight(i) for i in range(1, datum.rank + 1)]
            for lam in weights:
                graph = build_qbg(datum, datum.stabilizer(lam))
                orbit = orbit_graph(datum, lam)
                assert is_strongly_connected(graph)
                for x in graph.vertices:
                    for y in graph.vertices:
                        paths = shortest_paths(graph, x, y)
                        vals = {
                            datum.pairing(
                                tuple(sum(e.weight[i] for e in p) for i in range(datum.rank)),
                                lam,
                            )
                            for p in paths
                        }
                        at = orbit.coords_index
                        assert vals == {orbit.path_weight(at[x.act_weight(lam).coords], at[y.act_weight(lam).coords], 1)}
            # unique label-increasing path between every pair of elements
            order = reflection_ordering(datum, frozenset(), lex_chain(datum, rho))
            for x in full.vertices:
                for y in full.vertices:
                    found = increasing_paths_from(full, x, frozenset({y}), order)
                    assert len(found) == 1
        return "connectivity, path weights, and shellability verified exhaustively"

    _verdict(7, "the quantum Bruhat graphs pass their exhaustive checks", check)


def test_criterion_08_chain_independence():
    def check():
        for datum in (A2, C2):
            lam = Weight((1, 1))
            reference = character_from_alcove(lex_chain(datum, lam))
            for order in itertools.permutations(range(1, datum.rank + 1)):
                chain = lex_chain(datum, lam, node_order=order)
                assert character_from_alcove(chain) == reference
        return "the character is independent of the chain's node order"

    _verdict(8, "the character is independent of the chain's node order", check)


def test_criterion_09_perfectness():
    def check():
        runs = [
            (G2, 2, True),
            (A1, 1, True),
            (A2, 1, True),
            (A2, 2, True),
            (C2, 1, False),
        ]
        worst = 0.0
        for datum, node, expected in runs:
            start = time.monotonic()
            report = check_perfect(datum, node, 1)
            elapsed = time.monotonic() - start
            worst = max(worst, elapsed)
            assert elapsed < 30
            assert report.is_perfect is expected
            assert report.prediction_matches
        return f"perfectness verdicts match the comark prediction (worst run {worst:.1f}s)"

    _verdict(9, "perfectness verdicts match the comark prediction", check)


def test_criterion_10_tensor_isomorphisms():
    def check():
        for datum, lam in [(A1, (2,)), (A2, (1, 1)), (C2, (1, 1))]:
            lam = Weight(lam)
            mapping = build_isomorphism_to_tensor(datum, lam)
            source = build_crystal(datum, lam)
            assert set(mapping) == set(source.vertices)
            factors = []
            for i, c in enumerate(lam.coords, start=1):
                if c:
                    factor = build_crystal(datum, datum.fundamental_weight(i))
                    factors.extend([factor] * c)
            target = tensor(*factors)
            for v, image in mapping.items():
                total = image[0].weight
                for part in image[1:]:
                    total = total + part.weight
                assert total == source.weights[v]
            for (v, j), w in source.f_arrows.items():
                assert target.f_arrows[(mapping[v], j)] == mapping[w]
            for (v, j), w in source.e_arrows.items():
                assert target.e_arrows[(mapping[v], j)] == mapping[w]
        return "each multi-column crystal matches its tensor of single columns"

    _verdict(10, "each multi-column crystal matches its tensor of single columns", check)
