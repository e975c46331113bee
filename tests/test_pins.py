"""The table of recorded CLI outputs (tests/pins.txt) and its runner."""

import hashlib
import re

import pins

from qalcove.cli import _build_parser, main

TABLE = pins.read_pins(pins.TABLE.read_text())
CHAIN = ["chain", "--type", "A", "--rank", "1", "--weight", "1"]


def test_every_pin_has_a_digest_and_a_valid_argv():
    assert TABLE
    parser = _build_parser()
    for digest, argv in TABLE:
        assert re.fullmatch(r"[0-9a-f]{64}", digest), argv
        try:
            parser.parse_args(argv)
        except SystemExit:
            raise AssertionError(f"the CLI refuses the pin {' '.join(argv)}") from None


def test_no_argv_is_pinned_twice():
    commands = [" ".join(argv) for _, argv in TABLE]
    assert len(set(commands)) == len(commands)


def test_every_qls_text_character_has_an_alcove_twin_with_its_digest():
    digests = {" ".join(argv): digest for digest, argv in TABLE}
    pairs = 0
    for digest, argv in TABLE:
        command = " ".join(argv)
        if command.startswith("character ") and "--format text" in command and "--route qls" in command:
            twin = command.replace("--route qls", "--route alcove")
            assert digests.get(twin) == digest, twin
            pairs += 1
    assert pairs >= 8


def _digest(capsys, argv) -> str:
    assert main(argv) == 0
    return hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()


def test_check_passes_on_the_recorded_digest(capsys):
    digest = _digest(capsys, CHAIN)
    table = f"# the A1 chain\n{digest} {' '.join(CHAIN)}\n"
    assert pins.check(pins.read_pins(table)) == []


def test_check_names_a_pin_with_a_wrong_digest(capsys):
    digest = _digest(capsys, CHAIN)
    wrong = "0" * 64
    table = f"{digest} {' '.join(CHAIN)}\n{wrong} {' '.join(CHAIN)} --node-order 1\n"
    failures = pins.check(pins.read_pins(table))
    assert len(failures) == 1
    assert failures[0].startswith(" ".join(CHAIN) + " --node-order 1: exit 0")
    assert wrong in failures[0] and digest in failures[0]


def test_check_names_a_pin_that_exits_nonzero(capsys):
    # the weight has one coefficient too many, so the command exits 2 and
    # prints nothing on stdout: the digest of empty output must not pass
    empty = hashlib.sha256(b"").hexdigest()
    bad = CHAIN[:-1] + ["1,2"]
    table = f"{_digest(capsys, CHAIN)} {' '.join(CHAIN)}\n{empty} {' '.join(bad)}\n"
    failures = pins.check(pins.read_pins(table))
    assert len(failures) == 1
    assert failures[0].startswith(" ".join(bad) + ": exit 2")


def test_check_reports_the_wall_time_of_every_pin(capsys):
    # a passing and a failing pin are both timed, in table order
    digest = _digest(capsys, CHAIN)
    table = f"{digest} {' '.join(CHAIN)}\n{'0' * 64} {' '.join(CHAIN)} --node-order 1\n"
    timings = []
    failures = pins.check(pins.read_pins(table), lambda seconds, command: timings.append((seconds, command)))
    assert len(failures) == 1
    assert [command for _, command in timings] == [" ".join(CHAIN), " ".join(CHAIN) + " --node-order 1"]
    assert all(0 < seconds < pins.TIMEOUT_S for seconds, _ in timings)
