"""Command-line driver: outputs, exit codes, budget guard, chain files."""

import json
import subprocess
import sys
from fractions import Fraction

import pytest

from qalcove import cli, correspondence, qls_model
from qalcove.alcove_model import lex_chain
from qalcove.characters import (
    character_from_alcove,
    character_from_qls,
    decompose,
    format_decomposition,
    weyl_character,
)
from qalcove.cli import main
from qalcove.lie_data import InternalError, Weight, WeylGroup, build_root_datum
from qalcove.qls_model import deg, qls_path
from qalcove.quantum_bruhat import OrbitGraph, QuantumBruhatGraph

A1 = build_root_datum("A", 1)


def run(capsys, *argv):
    # argparse reports a usage error by SystemExit(2); report it as a code too
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


# ------------------------------------------------------------ happy paths


def test_verify_px_prints_the_decomposition(capsys):
    code, out, _ = run(capsys, "verify-px", "--type", "A", "--rank", "1", "--weight", "2")
    assert code == 0
    assert out.splitlines()[0] == "X = chi(2) + q*chi(0)"
    report = json.loads(out.split("\n", 1)[1])
    assert report["pass"] and report["checks"]["models_agree"]


@pytest.mark.parametrize(
    "argv",
    [
        ("character", "--type", "C", "--rank", "2", "--weight", "1,1"),
        ("character", "--type", "C", "--rank", "2", "--weight", "1,1", "--route", "qls"),
        ("verify-px", "--type", "A", "--rank", "2", "--weight", "1,1"),
    ],
)
def test_character_routes_build_no_crystal(capsys, monkeypatch, argv):
    # the characters enumerate QLS(lambda); only crystal, verify-crystal and
    # perfect close a crystal under the root operators
    def refused(datum, lam):
        raise AssertionError("a character must not build a crystal")

    monkeypatch.setattr(cli, "build_crystal", refused)
    monkeypatch.setattr(qls_model, "build_crystal", refused)
    code, _, _ = run(capsys, *argv)
    assert code == 0


def test_chain_output_has_two_entries(capsys):
    code, out, _ = run(capsys, "chain", "--type", "A", "--rank", "2", "--weight", "1,0")
    assert code == 0
    blob = json.loads(out)
    assert blob["lex"] and len(blob["entries"]) == 2
    assert [e["root"] for e in blob["entries"]] == [[1, 0], [1, 1]]


def test_chain_accepts_node_order(capsys):
    code, out, _ = run(capsys, "chain", "--type", "A", "--rank", "2", "--weight", "1,1",
                       "--node-order", "2,1")
    assert code == 0
    assert json.loads(out)["node_order"] == [2, 1]


def test_admissible_counts_the_square(capsys):
    code, out, _ = run(capsys, "admissible", "--type", "A", "--rank", "1", "--weight", "2")
    assert code == 0
    blob = json.loads(out)
    assert blob["count"] == 4
    assert [a["positions"] for a in blob["subsets"]][0] == []


def test_qls_defaults_to_the_straight_path(capsys):
    code, out, _ = run(capsys, "qls", "--type", "C", "--rank", "2", "--weight", "0,1")
    assert code == 0
    blob = json.loads(out)
    assert blob["weight"] == [0, 1] and blob["deg"] == 0
    assert len(blob["eps"]) == 3 == len(blob["phi"])


def test_qls_accepts_explicit_directions(capsys):
    code, out, _ = run(capsys, "qls", "--type", "A", "--rank", "1", "--weight", "2",
                       "--directions", "s1,e", "--breaks", "0,1/2,1")
    assert code == 0
    blob = json.loads(out)
    assert blob["weight"] == [0]
    expected = qls_path(A1, Weight((2,)), (A1.weyl.simple[0], A1.weyl.identity),
                        (Fraction(0), Fraction(1, 2), Fraction(1)))
    assert blob["deg"] == deg(expected)


def test_qls_directions_are_read_as_words(capsys, monkeypatch):
    # the CLI hands qls_path node indices, and qls_path alone makes elements
    assert cli._parse_weyl(build_root_datum("C", 3), "s2*s1*s3") == (2, 1, 3)
    assert cli._parse_weyl(A1, "e") == ()
    seen = []
    validate = qls_model.qls_path

    def recorded(datum, lam, directions, breaks):
        seen.append(directions)
        return validate(datum, lam, directions, breaks)

    monkeypatch.setattr(qls_model, "qls_path", recorded)
    code, _, _ = run(capsys, "qls", "--type", "A", "--rank", "1", "--weight", "2",
                     "--directions", "s1,e", "--breaks", "0,1/2,1")
    assert code == 0 and seen == [((1,), ())]


def test_qls_honours_the_budget(capsys):
    # the same guard as character on the same weight: |W(E6)| times the chain length
    code, out, err = run(capsys, "qls", "--type", "E", "--rank", "6", "--weight", "1,1,1,1,1,1")
    assert code == 2 and "job size 8087040 exceeds budget 200000" in err and out == ""


QLS_SIDE = [
    ("character", "--type", "C", "--rank", "2", "--weight", "1,1", "--route", "qls"),
    ("verify-px", "--type", "B", "--rank", "2", "--weight", "1,1"),
    ("verify-crystal", "--type", "A", "--rank", "2", "--weight", "1,1"),
    ("crystal", "--type", "G", "--rank", "2", "--weight", "0,1"),
    ("perfect", "--type", "C", "--rank", "2"),
    ("qls", "--type", "C", "--rank", "2", "--weight", "1,1"),
]


@pytest.mark.parametrize("argv", QLS_SIDE)
def test_qls_side_builds_no_graph_on_weyl_elements(capsys, monkeypatch, argv):
    # the QLS side reads QB(W^J) on the orbit of lambda; only the benchmark
    # replay and the tests' reference inverse build it on Weyl elements
    built = []
    init = QuantumBruhatGraph.__init__

    def counted(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(QuantumBruhatGraph, "__init__", counted)
    monkeypatch.setattr(qls_model, "_parabolic_cache", {})
    code, _, _ = run(capsys, *argv)
    assert code == 0 and built == []


@pytest.mark.parametrize("argv", [QLS_SIDE[0], QLS_SIDE[3], QLS_SIDE[5]])
def test_qls_commands_compose_no_weyl_element(capsys, monkeypatch, argv):
    # the size guard reads |W| off the root heights and the dual orbit reads
    # -w0 off the weights; the paths and their printed words are computed on
    # weights, so no Weyl group is ever built
    def refused(self, datum):
        raise AssertionError("a QLS command must not build a Weyl group")

    monkeypatch.setattr(WeylGroup, "__init__", refused)
    code, _, err = run(capsys, *argv)
    assert code == 0, err


def test_crystal_formats(capsys):
    code, out, _ = run(capsys, "crystal", "--type", "A", "--rank", "1", "--weight", "1")
    assert code == 0
    blob = json.loads(out)
    assert len(blob["vertices"]) == 2
    code, out, _ = run(capsys, "crystal", "--type", "A", "--rank", "1", "--weight", "1",
                       "--format", "dot")
    assert code == 0 and out.startswith("digraph")


def test_character_routes_agree(capsys):
    argv = ("character", "--type", "C", "--rank", "2", "--weight", "0,1")
    _, from_qls, _ = run(capsys, *argv, "--route", "qls")
    _, from_alcove, _ = run(capsys, *argv, "--route", "alcove")
    assert json.loads(from_qls)["terms"] == json.loads(from_alcove)["terms"]
    assert json.loads(from_qls)["decomposition"] == "chi(0, 1)"
    _, from_weyl, _ = run(capsys, *argv, "--route", "weyl")
    assert json.loads(from_weyl)["terms"] == json.loads(from_qls)["terms"]


def test_character_text_and_orbit_formats(capsys):
    code, out, _ = run(capsys, "character", "--type", "A", "--rank", "1", "--weight", "2",
                       "--format", "text")
    assert code == 0 and out.strip() == "x^(2) + x^(0) + x^(-2) + q*x^(0)"
    code, out, _ = run(capsys, "character", "--type", "A", "--rank", "1", "--weight", "2",
                       "--format", "orbit")
    assert code == 0 and out.strip() == "m(2) + m(0) + q*m(0)"


@pytest.mark.parametrize(
    "letter, rank, lam, route",
    [
        ("A", 1, (12,), "alcove"),
        ("A", 1, (12,), "qls"),
        ("C", 3, (1, 0, 1), "alcove"),
        ("G", 2, (1, 1), "qls"),
        ("B", 2, (1, 1), "weyl"),
    ],
)
def test_character_json_is_the_json_module_text(capsys, letter, rank, lam, route):
    # the whole document as json.dumps(..., indent=2) prints it
    datum = build_root_datum(letter, rank)
    weight = Weight(lam)
    if route == "alcove":
        ch = character_from_alcove(lex_chain(datum, weight))
    elif route == "qls":
        ch = character_from_qls(datum, weight)
    else:
        ch = weyl_character(datum, weight)
    blob = {
        "route": route,
        "terms": ch.to_json_list(),
        "decomposition": format_decomposition(decompose(datum, ch)),
    }
    code, out, _ = run(capsys, "character", "--type", letter, "--rank", str(rank),
                       "--weight", ",".join(map(str, lam)), "--route", route)
    assert (code, out) == (0, json.dumps(blob, indent=2) + "\n")


def test_chain_file_round_trip(tmp_path, capsys):
    code, out, _ = run(capsys, "chain", "--type", "A", "--rank", "2", "--weight", "1,1")
    assert code == 0
    chain_file = tmp_path / "chain.json"
    chain_file.write_text(out)
    code, out, _ = run(capsys, "character", "--type", "A", "--rank", "2", "--weight", "1,1",
                       "--route", "alcove", "--chain-file", str(chain_file))
    assert code == 0
    assert json.loads(out)["decomposition"] == "chi(1, 1) + q*chi(0, 0)"


def test_verify_crystal_reports_clean(capsys):
    code, out, _ = run(capsys, "verify-crystal", "--type", "A", "--rank", "2",
                       "--weight", "1,1")
    assert code == 0
    blob = json.loads(out)
    assert blob["pass"] and blob["connected"] and blob["vertices"] == 9
    assert blob["intertwining"]["violations"] == []
    assert blob["energy"]["violations"] == []
    assert blob["tensor_isomorphism"] == {"ok": True, "error": None}


def test_perfect_summary_table(capsys):
    code, out, _ = run(capsys, "perfect", "--type", "C", "--rank", "2")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "node 1: not perfect, level 1"
    assert lines[1] == "node 2: perfect, level 1"
    reports = json.loads("\n".join(lines[2:]))
    assert [r["is_perfect"] for r in reports] == [False, True]


def test_perfect_long_node_selector(capsys):
    code, out, _ = run(capsys, "perfect", "--type", "G", "--rank", "2", "--node", "long")
    assert code == 0
    assert "perfect, level 1" in out.splitlines()[0]


def test_outputs_are_deterministic(capsys):
    argv = ("verify-px", "--type", "C", "--rank", "2", "--weight", "1,1")
    _, first, _ = run(capsys, *argv)
    _, second, _ = run(capsys, *argv)
    assert first == second


# ------------------------------------------------------------ error paths


BAD_INPUT = [
    (("chain", "--type", "Z", "--rank", "2", "--weight", "1,0"), "type"),
    (("chain", "--type", "A", "--rank", "2", "--weight", "1"), "coefficients"),
    (("chain", "--type", "A", "--rank", "2", "--weight", "a,b"), "parse"),
    (("chain", "--type", "A", "--rank", "2", "--weight", "1,0", "--node-order", "1,3"),
     "permutation"),
    (("qls", "--type", "A", "--rank", "1", "--weight", "2", "--directions", "s1"),
     "together"),
    (("qls", "--type", "A", "--rank", "1", "--weight", "2", "--directions", "s9",
      "--breaks", "0,1"), "Weyl word"),
    (("perfect", "--type", "A", "--rank", "2", "--node", "short"), "short"),
    (("perfect", "--type", "A", "--rank", "2", "--node", "x"), "node"),
    (("perfect", "--type", "A", "--rank", "2", "--level", "0"), "positive"),
    (("character", "--type", "A", "--rank", "2", "--weight=-1,1", "--route", "qls"),
     "is not dominant"),
    (("crystal", "--type", "A", "--rank", "2", "--weight=-1,1"), "is not dominant"),
    (("character", "--type", "A", "--rank", "2", "--weight", "1,1", "--route", "qls",
      "--budget", "5"), "budget"),
    # |W(E7)| = 2903040 times a chain of length 27, with no element enumerated
    (("verify-px", "--type", "E", "--rank", "7", "--weight", "0,0,0,0,0,0,1"),
     "job size 78382080 exceeds budget 200000"),
    # the chain options exist only where a lambda-chain is built, and
    # character reads them on the alcove route alone
    (("crystal", "--type", "A", "--rank", "2", "--weight", "1,1", "--node-order", "7,7"),
     "unrecognized arguments: --node-order 7,7"),
    (("qls", "--type", "A", "--rank", "1", "--weight", "2", "--node-order", "x"),
     "unrecognized arguments: --node-order x"),
    (("character", "--type", "A", "--rank", "2", "--weight", "1,1", "--route", "qls",
      "--node-order", "2,1"), "only --route alcove"),
    (("character", "--type", "A", "--rank", "2", "--weight", "1,1", "--route", "weyl",
      "--node-order", "2,1"), "only --route alcove"),
    (("character", "--type", "A", "--rank", "2", "--weight", "1,1", "--route", "qls",
      "--chain-file", "/nonexistent"), "only --route alcove"),
    (("character", "--type", "A", "--rank", "2", "--weight", "1,1", "--route", "weyl",
      "--chain-file", "/nonexistent"), "only --route alcove"),
    (("chain", "--type", "A", "--rank", "2", "--weight", "1,1", "--node-order", "2,1",
      "--chain-file", "/nonexistent"), "not allowed with argument --node-order"),
]


@pytest.mark.parametrize("argv, message", BAD_INPUT)
def test_bad_input_exits_two(capsys, argv, message):
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert message in err


@pytest.mark.parametrize("argv, message", BAD_INPUT)
def test_bad_input_reads_the_same_from_the_full_parser(capsys, monkeypatch, argv, message):
    # main builds the named subcommand's parser alone; the full one must
    # answer with the same exit code and stderr
    lean = run(capsys, *argv)
    full = cli._build_parser
    monkeypatch.setattr(cli, "_build_parser", lambda command=None: full())
    assert run(capsys, *argv) == lean


def test_invalid_path_data_exits_two(capsys):
    code, _, err = run(capsys, "qls", "--type", "A", "--rank", "1", "--weight", "2",
                       "--directions", "s1,e", "--breaks", "0,1/3,1")
    assert code == 2 and "segment" in err


def test_an_off_grid_break_exits_two_with_the_rational_message(capsys):
    # breaks are held over L = 2 for A2 rho; 1/7 is no multiple of 1/2, and
    # the message names it as given
    code, out, err = run(capsys, "qls", "--type", "A", "--rank", "2", "--weight", "1,1",
                         "--directions", "s1,e", "--breaks", "0,1/7,1")
    assert (code, out) == (2, "")
    assert err == (
        "error: segment 1: no directed path from direction 2 to direction 1 once edges "
        "with non-integral 1/7*<alpha^vee, lambda> are removed\n"
    )


def test_a_non_reduced_break_prints_reduced(capsys):
    code, out, _ = run(capsys, "qls", "--type", "A", "--rank", "1", "--weight", "2",
                       "--directions", "s1,e", "--breaks", "0,2/4,1")
    assert code == 0
    expected = {
        "path": "(s1, e; 0, 1/2, 1)",
        "data": {"directions": [[1], []], "breaks": ["0/1", "1/2", "1/1"], "weight": [0], "deg": 0},
        "weight": [0],
        "deg": 0,
        "eps": [0, 1],
        "phi": [0, 1],
    }
    assert out == json.dumps(expected, indent=2) + "\n"


def test_a_single_segment_qls_builds_no_edge(capsys, monkeypatch):
    # the straight path on the 51,840 points of the E6 rho orbit reads no
    # reachability, so no edge of the orbit graph is built
    def refused(self, n, v):
        raise AssertionError("a single-segment path must not build an edge")

    monkeypatch.setattr(OrbitGraph, "_out", refused)
    code, out, _ = run(capsys, "qls", "--type", "E", "--rank", "6", "--weight", "1,1,1,1,1,1",
                       "--budget", "8087040")
    assert code == 0 and json.loads(out)["path"] == "(e; 0, 1)"


def test_budget_guard(capsys):
    code, _, err = run(capsys, "admissible", "--type", "A", "--rank", "2",
                       "--weight", "1,1", "--budget", "5")
    assert code == 2 and "budget" in err


def test_perfect_guards_the_tensor_square(capsys):
    # |B(omega_2)| = 1703 for F4, so the square of node 2 exceeds the default budget
    code, out, err = run(capsys, "perfect", "--type", "F", "--rank", "4")
    assert code == 2 and "budget" in err and "job size 2900209" in err and out == ""
    code, out, _ = run(capsys, "perfect", "--type", "F", "--rank", "4", "--node", "4")
    assert code == 0 and out.startswith("node 4: ")


def test_perfect_help_names_both_budget_guards(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["perfect", "--help"])
    assert exit_info.value.code == 0
    text = " ".join(capsys.readouterr().out.split())
    assert "|W| * chain length" in text and "|B(omega_node)|^2" in text


def test_internal_error_exits_three_with_a_json_line(capsys, monkeypatch):
    def broken(chain):
        raise InternalError("forced invariant failure")

    monkeypatch.setattr(cli, "character_from_alcove", broken)
    code, out, err = run(capsys, "character", "--type", "A", "--rank", "1", "--weight", "1",
                         "--route", "alcove")
    assert code == 3 and out == ""
    assert json.loads(err) == {"error": "internal", "message": "forced invariant failure"}


def test_crystal_construction_failure_in_verify_crystal_exits_three(capsys, monkeypatch):
    def broken(*factors):
        raise InternalError("f then e is not the identity at label 0")

    monkeypatch.setattr(correspondence, "tensor", broken)
    code, out, err = run(capsys, "verify-crystal", "--type", "A", "--rank", "2",
                         "--weight", "1,1")
    assert code == 3 and out == ""
    assert json.loads(err) == {"error": "internal",
                               "message": "f then e is not the identity at label 0"}


def test_an_invalid_lusztig_image_in_verify_crystal_exits_three(capsys, monkeypatch):
    # the energy check validates S(pi_star); rotated -w0 images make that
    # fail, an internal failure (exit 3), not bad input (exit 2)
    images = OrbitGraph.omega_images.func

    def rotated(self):
        table = images(self)
        return table[1:] + table[:1]

    monkeypatch.setattr(OrbitGraph, "omega_images", property(rotated))
    code, out, err = run(capsys, "verify-crystal", "--type", "A", "--rank", "2",
                         "--weight", "1,1")
    assert code == 3 and out == "" and err.count("\n") == 1
    blob = json.loads(err)
    assert blob["error"] == "internal"
    assert blob["message"].startswith("Lusztig involution image failed validation: segment")


def test_tensor_arrow_mismatch_fails_verify_crystal(capsys, monkeypatch):
    real_tensor = correspondence.tensor

    def missing_one_arrow(*factors):
        graph = real_tensor(*factors)
        # the first f-arrow in (source, label) order leaves the stored arrays
        i, j = min((i, j) for j, targets in enumerate(graph.f) for i, t in enumerate(targets) if t >= 0)
        graph.f[j][i] = -1
        return graph

    monkeypatch.setattr(correspondence, "tensor", missing_one_arrow)
    code, out, _ = run(capsys, "verify-crystal", "--type", "A", "--rank", "2",
                       "--weight", "1,1")
    report = json.loads(out)
    assert code == 1 and not report["pass"]
    assert report["tensor_isomorphism"]["ok"] is False
    assert "arrow mismatch" in report["tensor_isomorphism"]["error"]


@pytest.mark.parametrize("command", list(cli.SUBCOMMANDS))
def test_one_subcommand_parser_has_the_full_parsers_help_and_usage(capsys, command):
    seen = []
    for parser in (cli._build_parser(), cli._build_parser(command)):
        with pytest.raises(SystemExit) as info:
            parser.parse_args([command, "--help"])
        assert info.value.code == 0
        seen.append((capsys.readouterr().out, parser.format_usage()))
    assert seen[0] == seen[1]
    assert seen[0][0].startswith(f"usage: qalcove {command} [-h]")


def test_main_builds_only_the_named_subcommand(capsys, monkeypatch):
    built = []
    real = cli._build_parser

    def recorded(command=None):
        built.append(command)
        return real(command)

    monkeypatch.setattr(cli, "_build_parser", recorded)
    assert main(["chain", "--type", "A", "--rank", "1", "--weight", "1"]) == 0
    for argv in (["--help"], ["nonesuch"], []):
        with pytest.raises(SystemExit):
            main(argv)
    assert built == ["chain", None, None, None]


def test_missing_subcommand_is_a_usage_error():
    with pytest.raises(SystemExit) as info:
        main([])
    assert info.value.code == 2


def test_console_script_is_installed():
    proc = subprocess.run(
        [sys.executable, "-m", "qalcove.cli", "verify-px", "--type", "A", "--rank", "1",
         "--weight", "1"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "chi(1)" in proc.stdout


def test_a_closed_pipe_is_not_a_failed_check():
    # like `qalcove crystal ... | head -1`: the output (about 200 KB) fills the
    # pipe, so the CLI is still writing when the reader goes away
    proc = subprocess.Popen(
        [sys.executable, "-m", "qalcove.cli", "crystal", "--type", "G", "--rank", "2",
         "--weight", "2,1"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    assert proc.stdout.readline() == b"{\n"
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait() == 141
    assert "Traceback" not in err and "Error" not in err
