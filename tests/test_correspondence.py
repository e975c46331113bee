"""Forgetful map, its inverse, and the intertwining/energy/isomorphism checks."""

import dataclasses
import gc
import json
import weakref
from fractions import Fraction

import pytest

from qalcove import cli, correspondence, qls_model
from qalcove.alcove_model import AdmissibleSubset, chain_from_roots, enumerate_admissible, lex_chain
from qalcove.correspondence import (
    build_isomorphism_to_tensor,
    forgetful,
    verify_energy,
    verify_intertwining,
)
from qalcove.lie_data import InputError, InternalError, Weight, build_root_datum
from qalcove.qls_model import build_crystal, deg, qls_path, straight_path
from inverse_reference import inverse, reference_cache

A1 = build_root_datum("A", 1)
A2 = build_root_datum("A", 2)
C2 = build_root_datum("C", 2)
B2 = build_root_datum("B", 2)


def subset(chain, positions):
    return AdmissibleSubset(chain, tuple(positions))


def a1_chain():
    return lex_chain(A1, Weight((2,)))


def a1_path(directions, breaks):
    return qls_path(A1, Weight((2,)), directions, breaks)


# -------------------------------------------------------------- forgetful map


def test_empty_subset_maps_to_straight_dominant_path():
    for datum, lam in [(A1, (2,)), (A2, (1, 1)), (C2, (0, 1))]:
        chain = lex_chain(datum, Weight(lam))
        rec = forgetful(subset(chain, ()))
        assert rec.pi_star == straight_path(datum, Weight(lam))
        assert rec.breaks == (Fraction(0),)


def test_half_height_singleton_a1():
    rec = forgetful(subset(a1_chain(), (2,)))
    assert rec.pi_star == a1_path([(1,), ()], (0, Fraction(1, 2), 1))
    assert rec.pi == a1_path([(1,), ()], (0, Fraction(1, 2), 1))
    assert rec.pi_star.weight == Weight((0,))
    # the breaks 0, 1/2 over L = 2
    assert (rec.pi.L, rec.breaks) == (2, (0, 1))
    assert rec.elements == (A1.weyl.identity, A1.weyl.simple[0])


def test_zero_height_singleton_a1():
    rec = forgetful(subset(a1_chain(), (1,)))
    assert rec.pi_star == a1_path([(1,)], (0, 1))
    assert rec.pi_star.weight == Weight((-2,))
    assert rec.breaks == (Fraction(0),)


def test_full_subset_a1():
    rec = forgetful(subset(a1_chain(), (1, 2)))
    assert rec.pi == a1_path([(), (1,)], (0, Fraction(1, 2), 1))


def test_breaks_are_the_distinct_nonzero_relative_heights():
    chain = lex_chain(A2, Weight((1, 1)))
    for A in enumerate_admissible(chain):
        rec = forgetful(A)
        heights = {
            Fraction(chain.entries[p - 1].level, A2.pairing_index(chain.entries[p - 1].root, chain.lam))
            for p in A.positions
        }
        assert set(rec.pi.breaks[1:-1]) == heights - {Fraction(0)}


def test_forgetful_preserves_weights_exhaustively():
    for datum, lam in [(A2, (1, 1)), (C2, (1, 0)), (B2, (0, 1))]:
        chain = lex_chain(datum, Weight(lam))
        for A in enumerate_admissible(chain):
            assert forgetful(A).pi_star.weight == A.weight


def test_forgetful_rejects_non_lex_chains():
    other = lex_chain(A2, Weight((1, 1)), node_order=(2, 1))
    chain = chain_from_roots(A2, Weight((1, 1)), [e.root for e in other.entries])
    assert not chain.lex
    with pytest.raises(InputError, match="lex"):
        forgetful(subset(chain, ()))


# ---------------------------------------------------------------- inverse map


def test_inverse_of_hand_checked_paths_a1():
    assert inverse(a1_path([(1,), ()], (0, Fraction(1, 2), 1))).positions == (2,)
    assert inverse(a1_path([(), (1,)], (0, Fraction(1, 2), 1))).positions == (1, 2)
    # the empty subset maps to the straight path in direction s1, not e
    assert inverse(a1_path([(1,)], (0, 1))).positions == ()
    assert inverse(a1_path([()], (0, 1))).positions == (1,)


def test_round_trip_from_subsets():
    for datum, lam in [(A1, (2,)), (A2, (1, 1)), (C2, (0, 1)), (C2, (1, 1)), (B2, (1, 0))]:
        chain = lex_chain(datum, Weight(lam))
        for A in enumerate_admissible(chain):
            assert inverse(forgetful(A).pi, chain) == A


def test_round_trip_from_paths():
    for datum, lam in [(A1, (3,)), (A2, (1, 1)), (C2, (0, 1)), (B2, (0, 1))]:
        datum_lam = Weight(lam)
        shape = -datum.weyl.longest.act_weight(datum_lam)
        chain = lex_chain(datum, datum_lam)
        for eta in build_crystal(datum, shape).vertices:
            assert forgetful(inverse(eta, chain)).pi == eta


def _invert_on_a_fresh_datum():
    d = build_root_datum("C", 2)
    chain = lex_chain(d, d.rho)
    for A in enumerate_admissible(chain):
        assert inverse(forgetful(A).pi, chain) == A
    assert list(reference_cache(d)["orderings"]) == [(chain.lam, chain.entries)]
    return weakref.ref(d)


def test_inverse_keeps_no_datum_alive():
    # the inverse's graph and reflection orderings live on the datum
    ref = _invert_on_a_fresh_datum()
    gc.collect()
    assert ref() is None


def test_inverse_checks_the_chain_weight():
    eta = a1_path([()], (0, 1))
    with pytest.raises(InputError, match="does not match"):
        inverse(eta, lex_chain(A1, Weight((3,))))


def test_bijection_matches_cardinalities():
    for datum, lam in [(A1, (2,)), (A2, (1, 1)), (C2, (0, 1)), (B2, (1, 0))]:
        lam = Weight(lam)
        shape = -datum.weyl.longest.act_weight(lam)
        subsets = enumerate_admissible(lex_chain(datum, lam))
        paths = build_crystal(datum, shape).vertices
        assert len(subsets) == len(paths)
        assert {forgetful(A).pi for A in subsets} == set(paths)


# ----------------------------------------------------------- operator checks


def test_intertwining_reports_are_clean():
    for datum, lam in [(A1, (1,)), (A1, (2,)), (A2, (1, 1)), (C2, (0, 1)), (C2, (1, 0))]:
        report = verify_intertwining(datum, Weight(lam))
        assert report["violations"] == []
        assert report["counts"]["checks"] == report["counts"]["subsets"] * (datum.rank + 1)


def test_intertwining_maps_each_subset_once(monkeypatch):
    calls = []

    def counted(A):
        calls.append(A.positions)
        return forgetful(A)

    monkeypatch.setattr(correspondence, "forgetful", counted)
    report = verify_intertwining(A2, Weight((1, 1)))
    assert report["violations"] == []
    assert len(calls) == report["counts"]["subsets"] == len(set(calls))


def test_verify_crystal_maps_each_subset_once_across_both_checks(monkeypatch, capsys):
    # the intertwining and energy checks read one forgetful table
    calls = []

    def counted(A):
        calls.append(A.positions)
        return forgetful(A)

    monkeypatch.setattr(correspondence, "forgetful", counted)
    assert cli.main(["verify-crystal", "--type", "A", "--rank", "2", "--weight", "1,1"]) == 0
    blob = json.loads(capsys.readouterr().out)
    assert blob["intertwining"]["counts"]["subsets"] == blob["energy"]["counts"]["subsets"] == 9
    assert len(calls) == 9 == len(set(calls))


def test_intertwining_reads_the_given_crystal(monkeypatch):
    # the string lengths and arrows come from the crystal, not from the
    # root operators on each path image
    def refused(*args):
        raise AssertionError("the check must read the crystal")

    crystal = build_crystal(C2, Weight((1, 1)))
    monkeypatch.setattr(qls_model, "e_operator", refused)
    monkeypatch.setattr(qls_model, "epsilon", refused)
    report = verify_intertwining(C2, Weight((1, 1)), crystal=crystal)
    assert report["violations"] == []


def test_intertwining_rejects_an_image_outside_the_crystal():
    with pytest.raises(InternalError, match="not a vertex of the crystal"):
        verify_intertwining(A2, Weight((1, 0)), crystal=build_crystal(A2, Weight((0, 1))))


def test_intertwining_zero_weight_is_vacuous():
    report = verify_intertwining(A2, Weight((0, 0)))
    assert report["counts"]["subsets"] == 1
    assert report["violations"] == []


VERIFY_A2 = ["verify-crystal", "--type", "A", "--rank", "2", "--weight", "1,1"]


def _share_one_image(monkeypatch):
    # two records, one pi_star: the images fall one short of the subsets
    table = correspondence.forgetful_table

    def shared(chain):
        records = table(chain)
        first, second = list(records)[:2]
        records[second] = dataclasses.replace(records[second], pi_star=records[first].pi_star)
        return records

    monkeypatch.setattr(correspondence, "forgetful_table", shared)
    return {"images": 8, "vertices": 9}


def _add_a_stray_vertex(monkeypatch):
    # a crystal vertex that no record hits: a path of another shape
    def stray(datum, lam):
        g = build_crystal(datum, lam)
        extra = straight_path(datum, lam + lam)
        weights = {**g.weights, extra: g.weights[g.distinguished]}
        return qls_model.CrystalGraph(datum, g.vertices + (extra,), weights, g.e_arrows, g.f_arrows, g.distinguished)

    monkeypatch.setattr(cli, "build_crystal", stray)
    return {"images": 9, "vertices": 10}


@pytest.mark.parametrize("mutate", [_share_one_image, _add_a_stray_vertex])
def test_verify_crystal_reports_a_broken_bijection(monkeypatch, capsys, mutate):
    assert cli.main(VERIFY_A2) == 0
    clean = json.loads(capsys.readouterr().out)["intertwining"]
    expected = mutate(monkeypatch)
    # a finding, exit 1, not an internal failure, exit 3
    assert cli.main(VERIFY_A2) == 1
    blob = json.loads(capsys.readouterr().out)
    assert blob["pass"] is False
    found = [v for v in blob["intertwining"]["violations"] if v["kind"] == "bijection"]
    assert found == [{"kind": "bijection", **expected}]
    # the count adds no check
    assert blob["intertwining"]["counts"] == clean["counts"]


def test_energy_reports_are_clean():
    for datum, lam in [(A1, (2,)), (A2, (1, 0)), (A2, (1, 1)), (C2, (0, 1)), (C2, (1, 1)), (B2, (1, 0))]:
        report = verify_energy(datum, Weight(lam))
        assert report["violations"] == []


def test_energy_values_on_the_doubled_line():
    chain = a1_chain()
    full = subset(chain, (1, 2))
    assert full.height == 1
    assert deg(forgetful(full).pi) == -1
    for positions in [(), (1,), (2,)]:
        A = subset(chain, positions)
        assert A.height == -deg(forgetful(A).pi)


def test_energy_all_zero_without_quantum_edges():
    chain = lex_chain(A2, Weight((1, 0)))
    subsets = enumerate_admissible(chain)
    assert len(subsets) == 3
    assert {A.height for A in subsets} == {0}


# ------------------------------------------------------- tensor isomorphisms


def test_single_fundamental_gives_identity(monkeypatch):
    calls = []

    def counted(datum, lam):
        calls.append(lam.coords)
        return build_crystal(datum, lam)

    monkeypatch.setattr(qls_model, "build_crystal", counted)
    iso = build_isomorphism_to_tensor(A1, Weight((1,)))
    assert all(v == w for v, w in iso.items())
    assert len(iso) == 2
    # the crystal of lambda is the only one built: there is no factor to build
    assert calls == [(1,)]


def test_doubled_line_matches_square_of_fundamental():
    iso = build_isomorphism_to_tensor(A1, Weight((2,)))
    assert len(iso) == 4
    source = build_crystal(A1, Weight((2,)))
    assert set(iso) == set(source.vertices)


def test_adjoint_weight_matches_mixed_tensor():
    iso = build_isomorphism_to_tensor(A2, Weight((1, 1)))
    assert len(iso) == 9
    # a crystal built beforehand gives the same bijection
    source = build_crystal(A2, Weight((1, 1)))
    assert build_isomorphism_to_tensor(A2, Weight((1, 1)), source=source) == iso
    dominant = straight_path(A2, Weight((1, 1)))
    assert iso[dominant] == (
        straight_path(A2, Weight((1, 0))),
        straight_path(A2, Weight((0, 1))),
    )


def test_rank_two_mixed_tensor_isomorphism():
    iso = build_isomorphism_to_tensor(C2, Weight((1, 1)))
    assert len(iso) == 20
    for path, pair in iso.items():
        assert path.weight == pair[0].weight + pair[1].weight


def test_verify_crystal_builds_the_lambda_crystal_once(monkeypatch, capsys):
    # one build of the lambda crystal, one per fundamental factor
    calls = []

    def counted(datum, lam):
        calls.append(lam.coords)
        return build_crystal(datum, lam)

    monkeypatch.setattr(cli, "build_crystal", counted)
    monkeypatch.setattr(qls_model, "build_crystal", counted)
    assert cli.main(["verify-crystal", "--type", "A", "--rank", "2", "--weight", "1,1"]) == 0
    assert '"pass": true' in capsys.readouterr().out
    assert sorted(calls) == [(0, 1), (1, 0), (1, 1)]
