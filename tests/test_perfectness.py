"""Perfectness reports: conditions, witnesses, and the comark prediction."""

import json

import pytest

from qalcove.lie_data import InputError, build_root_datum
from qalcove.perfectness import check_perfect, level_weights, minimal_elements
from qalcove.qls_model import build_crystal

A1 = build_root_datum("A", 1)
A2 = build_root_datum("A", 2)
B2 = build_root_datum("B", 2)
C2 = build_root_datum("C", 2)
G2 = build_root_datum("G", 2)


# ----------------------------------------------------------- level weights


def test_level_one_weights_follow_comarks():
    assert level_weights(A2, 1) == ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    # the long node of G2 carries comark 2, so it cannot appear at level 1
    assert level_weights(G2, 1) == ((1, 0, 0), (0, 1, 0))
    assert level_weights(G2, 2) == (
        (2, 0, 0),
        (1, 1, 0),
        (0, 2, 0),
        (0, 0, 1),
    )


def test_level_weights_reject_negative_level():
    with pytest.raises(InputError, match="nonnegative"):
        level_weights(A1, -1)


# -------------------------------------------------------- minimal elements


def test_two_element_crystal_is_all_minimal():
    graph = build_crystal(A1, A1.fundamental_weight(1))
    assert minimal_elements(graph, 1) == set(graph.vertices)
    assert minimal_elements(graph, 5) == set()


def test_vector_crystal_minimal_elements_hit_each_level_one_weight():
    graph = build_crystal(A2, A2.fundamental_weight(1))
    minimal = minimal_elements(graph, 1)
    assert minimal == set(graph.vertices)
    eps_vectors = {eps for v, eps in zip(graph.vertices, zip(*graph.eps)) if v in minimal}
    assert eps_vectors == {(1, 0, 0), (0, 1, 0), (0, 0, 1)}


def test_minimal_elements_demand_affine_arrows():
    graph = build_crystal(A1, A1.fundamental_weight(1))
    graph.labels = (1,)
    with pytest.raises(InputError, match="affine"):
        minimal_elements(graph, 1)


# ----------------------------------------------------------- full verdicts


@pytest.mark.parametrize(
    "datum, node, expected",
    [
        (A1, 1, True),
        (A2, 1, True),
        (A2, 2, True),
        (B2, 1, True),
        (B2, 2, False),
        (C2, 1, False),
        (C2, 2, True),
        (G2, 1, False),
        (G2, 2, True),
    ],
)
def test_level_one_verdicts_match_comark_prediction(datum, node, expected):
    report = check_perfect(datum, node, 1)
    assert report.is_perfect is expected
    assert report.predicted_perfect is expected
    assert report.prediction_matches


def test_long_node_of_g2_is_perfect():
    report = check_perfect(G2, 2, 1)
    assert report.is_perfect
    assert report.summary() == "node 2: perfect, level 1"
    assert len(report.minimal_table) == 2
    assert {tuple(row["eps"]) for row in report.minimal_table} == {(1, 0, 0), (0, 1, 0)}


def test_rank_one_report_details():
    report = check_perfect(A1, 1, 1)
    assert report.top_weight == (1,)
    assert report.min_eps_level == 1
    assert {tuple(row["eps"]) for row in report.minimal_table} == {(1, 0), (0, 1)}
    assert {tuple(row["phi"]) for row in report.minimal_table} == {(1, 0), (0, 1)}


def test_doubled_comark_node_fails_only_the_bijection():
    # four straight paths land on three level-one weights: pigeonhole
    report = check_perfect(C2, 1, 1)
    assert report.square_connected
    assert report.top_unique and report.top_weight == (1, 0)
    assert report.level_bound_ok
    assert report.bijection_failures == (
        {"weight": [0, 1, 0], "eps_count": 2, "phi_count": 2},
    )
    assert len(report.minimal_table) == 4
    assert not report.is_perfect


def test_level_two_fails_the_level_bound():
    report = check_perfect(A1, 1, 2)
    assert not report.level_bound_ok
    assert report.min_eps_level == 1
    assert not report.is_perfect
    assert report.prediction_matches  # not predicted perfect at level 2 either


def test_check_perfect_rejects_nonpositive_level():
    with pytest.raises(InputError, match="positive"):
        check_perfect(A1, 1, 0)


# ------------------------------------------------------------- invariants


@pytest.mark.parametrize("datum, node", [(A2, 1), (C2, 1), (C2, 2), (B2, 2)])
def test_string_statistics_are_level_zero_consistent(datum, node):
    graph = build_crystal(datum, datum.fundamental_weight(node))
    for i, weight in enumerate(graph.weight_of):
        diffs = [graph.phi[j][i] - graph.eps[j][i] for j in graph.labels]
        # classical labels read the weight; the affine label balances the level
        for j in range(1, datum.rank + 1):
            assert diffs[j] == weight.coords[j - 1]
        assert sum(a * d for a, d in zip(datum.comarks, diffs)) == 0


def test_report_serializes_deterministically():
    report = check_perfect(C2, 2, 1)
    blob = report.to_json_dict()
    assert blob["conditions"] == {
        "square_connected": True,
        "unique_top_weight": True,
        "eps_level_bound": True,
        "eps_phi_bijections": True,
    }
    assert blob["is_perfect"] and blob["predicted_perfect"] and blob["prediction_matches"]
    assert json.dumps(blob) == json.dumps(check_perfect(C2, 2, 1).to_json_dict())
