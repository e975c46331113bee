"""Command-line surface: chains, crystals, characters, and verification runs.

Exit codes: 0 on success, 1 when a verification fails, 2 on bad input, 3
when an internal invariant fails (a bug; reported as one JSON line on stderr),
141 when the reader closes stdout early.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from fractions import Fraction
from pathlib import Path

from . import correspondence, qls_model
from .alcove_model import LambdaChain, chain_from_roots, enumerate_admissible, lex_chain
from .characters import (
    character_from_alcove,
    character_from_qls,
    decompose,
    format_decomposition,
    verify_p_equals_x,
    weyl_character,
)
from .lie_data import InputError, InternalError, RootDatum, Weight, build_root_datum
from .perfectness import check_perfect
from .qls_model import build_crystal, straight_path

DEFAULT_BUDGET = 200_000


# ---------------------------------------------------------------- parsing


def _parse_weight(datum: RootDatum, text: str) -> Weight:
    try:
        coeffs = [int(x) for x in text.split(",")]
    except ValueError:
        raise InputError(f"cannot parse weight {text!r}; expected comma-separated integers")
    return datum.weight_from_coeffs(coeffs)


def _parse_node_order(text: str | None) -> tuple[int, ...] | None:
    if text is None:
        return None
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise InputError(f"cannot parse node order {text!r}")


def _parse_weyl(datum: RootDatum, text: str) -> tuple[int, ...]:
    """A Weyl word as its node indices; qls_path turns it into an element."""
    if text == "e":
        return ()
    word = []
    for token in text.split("*"):
        m = re.fullmatch(r"s(\d+)", token)
        if not m or not 1 <= int(m.group(1)) <= datum.rank:
            raise InputError(f"cannot parse Weyl word {text!r}; expected e or s1*s2*...")
        word.append(int(m.group(1)))
    return tuple(word)


def _parse_breaks(text: str) -> tuple[Fraction, ...]:
    try:
        return tuple(Fraction(x) for x in text.split(","))
    except (ValueError, ZeroDivisionError):
        raise InputError(f"cannot parse breaks {text!r}; expected fractions like 0,1/2,1")


def _load_chain(datum: RootDatum, lam: Weight, filename: str) -> LambdaChain:
    try:
        blob = json.loads(Path(filename).read_text())
        rows = blob["entries"] if isinstance(blob, dict) else blob
        roots, levels = [], []
        for item in rows:
            root, level = (item["root"], item["level"]) if isinstance(item, dict) else item
            roots.append(tuple(int(x) for x in root))
            levels.append(int(level))
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise InputError(f"cannot read chain file {filename}: {exc}")
    chain = chain_from_roots(datum, lam, roots)
    if [e.level for e in chain.entries] != levels:
        raise InputError("chain file levels disagree with the crossing counts of the walk")
    return chain


def _chain_for(datum: RootDatum, lam: Weight, args) -> LambdaChain:
    if getattr(args, "chain_file", None):
        return _load_chain(datum, lam, args.chain_file)
    return lex_chain(datum, lam, node_order=_parse_node_order(args.node_order))


def _guard(datum: RootDatum, lam: Weight, budget: int) -> None:
    """Refuse jobs where |W| (read off the root heights) times the chain length
    exceeds the budget; a chain has <beta^vee, lambda> entries per positive root."""
    if not datum.is_dominant(lam):
        raise InputError(f"weight {lam.coords} is not dominant")
    length = sum(datum.pairing(coroot, lam) for coroot in datum.positive_coroots)
    _within_budget(len(datum.weyl) * max(length, 1), budget)


def _within_budget(cost: int, budget: int) -> None:
    if cost > budget:
        raise InputError(f"job size {cost} exceeds budget {budget}; raise --budget to proceed")


def _emit(blob) -> None:
    print(json.dumps(blob, indent=2))


# ------------------------------------------------------------ subcommands


def cmd_chain(datum: RootDatum, args) -> int:
    chain = _chain_for(datum, _parse_weight(datum, args.weight), args)
    _emit(chain.to_json_dict())
    return 0


def cmd_admissible(datum: RootDatum, args) -> int:
    lam = _parse_weight(datum, args.weight)
    _guard(datum, lam, args.budget)
    chain = _chain_for(datum, lam, args)
    subsets = enumerate_admissible(chain)
    _emit({"count": len(subsets), "subsets": [a.to_json_dict() for a in subsets]})
    return 0


def cmd_qls(datum: RootDatum, args) -> int:
    lam = _parse_weight(datum, args.weight)
    _guard(datum, lam, args.budget)
    if (args.directions is None) != (args.breaks is None):
        raise InputError("--directions and --breaks must be given together")
    if args.directions is None:
        path = straight_path(datum, lam)
    else:
        directions = tuple(_parse_weyl(datum, t) for t in args.directions.split(","))
        path = qls_model.qls_path(datum, lam, directions, _parse_breaks(args.breaks))
    labels = range(datum.rank + 1)
    _emit(
        {
            "path": str(path),
            "data": path.to_json_dict(),
            "weight": list(path.weight.coords),
            "deg": qls_model.deg(path),
            "eps": [qls_model.epsilon(path, j) for j in labels],
            "phi": [qls_model.phi(path, j) for j in labels],
        }
    )
    return 0


def cmd_crystal(datum: RootDatum, args) -> int:
    lam = _parse_weight(datum, args.weight)
    _guard(datum, lam, args.budget)
    graph = build_crystal(datum, lam)
    print(graph.to_dot() if args.format == "dot" else json.dumps(graph.to_json_dict(), indent=2))
    return 0


def cmd_character(datum: RootDatum, args) -> int:
    lam = _parse_weight(datum, args.weight)
    if args.route == "alcove":
        _guard(datum, lam, args.budget)
        ch = character_from_alcove(_chain_for(datum, lam, args))
    elif args.route == "qls":
        _guard(datum, lam, args.budget)
        ch = character_from_qls(datum, lam)
    else:
        ch = weyl_character(datum, lam)
    if args.format == "text":
        print(str(ch))
    elif args.format == "orbit":
        print(ch.orbit_line(datum))
    else:
        _emit(
            {
                "route": args.route,
                "terms": ch.to_json_list(),
                "decomposition": format_decomposition(decompose(datum, ch)),
            }
        )
    return 0


def cmd_verify_px(datum: RootDatum, args) -> int:
    lam = _parse_weight(datum, args.weight)
    _guard(datum, lam, args.budget)
    chain = _chain_for(datum, lam, args)
    report = verify_p_equals_x(datum, lam, chain=chain)
    if report["pass"]:
        print(f"X = {report['decomposition']}")
    _emit(report)
    return 0 if report["pass"] else 1


def cmd_verify_crystal(datum: RootDatum, args) -> int:
    lam = _parse_weight(datum, args.weight)
    _guard(datum, lam, args.budget)
    chain = _chain_for(datum, lam, args)
    graph = build_crystal(datum, lam)
    records = correspondence.forgetful_table(chain)
    intertwining = correspondence.verify_intertwining(datum, lam, records=records, crystal=graph)
    energy = correspondence.verify_energy(datum, lam, records=records)
    tensor_ok, tensor_error = True, None
    if sum(lam.coords) > 1:
        try:
            correspondence.build_isomorphism_to_tensor(datum, lam, source=graph)
        except correspondence.IsomorphismMismatch as exc:  # a finding, not a crash
            tensor_ok, tensor_error = False, str(exc)
    connected = graph.is_connected()
    clean = (
        connected
        and not intertwining["violations"]
        and not energy["violations"]
        and tensor_ok
    )
    _emit(
        {
            "lambda": list(lam.coords),
            "vertices": len(graph.vertices),
            "connected": connected,
            "intertwining": intertwining,
            "energy": energy,
            "tensor_isomorphism": {"ok": tensor_ok, "error": tensor_error},
            "pass": clean,
        }
    )
    return 0 if clean else 1


def cmd_perfect(datum: RootDatum, args) -> int:
    if args.node == "all":
        nodes = list(range(1, datum.rank + 1))
    elif args.node == "long":
        nodes = list(datum.long_nodes())
    elif args.node == "short":
        nodes = list(datum.short_nodes())
        if not nodes:
            raise InputError("this type has no short nodes")
    else:
        try:
            nodes = [int(args.node)]
        except ValueError:
            raise InputError(f"cannot parse node {args.node!r}; expected an index, long, short, or all")
    for n in nodes:
        # check_perfect builds the tensor square of B(omega_n), whose size |B|
        # is the number of admissible subsets by the bijection
        omega = datum.fundamental_weight(n)
        _guard(datum, omega, args.budget)
        _within_budget(len(enumerate_admissible(lex_chain(datum, omega))) ** 2, args.budget)
    reports = [check_perfect(datum, n, args.level) for n in nodes]
    for report in reports:
        print(report.summary())
    _emit([r.to_json_dict() for r in reports])
    return 0 if all(r.prediction_matches for r in reports) else 1


# ----------------------------------------------------------------- driver


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--type", required=True, metavar="LETTER", help="Cartan type, e.g. A, C, G")
    common.add_argument("--rank", required=True, type=int)
    common.add_argument("--budget", type=int, default=DEFAULT_BUDGET,
                        help="abort if |W| * chain length exceeds this; perfect "
                             "also aborts if |B(omega_node)|^2 does")
    weighted = argparse.ArgumentParser(add_help=False)
    weighted.add_argument("--weight", required=True,
                          help="comma-separated fundamental-weight coefficients")
    weighted.add_argument("--node-order", default=None,
                          help="node permutation for the lexicographic chain, e.g. 2,1")

    parser = argparse.ArgumentParser(prog="qalcove",
                                     description="Exact graded characters of single-column "
                                                 "tensor products from two path models.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("chain", parents=[common, weighted], help="print the lambda-chain")
    p.add_argument("--chain-file", default=None, help="JSON list of (root, level) entries")
    p.set_defaults(handler=cmd_chain)

    p = sub.add_parser("admissible", parents=[common, weighted],
                       help="enumerate admissible subsets")
    p.add_argument("--chain-file", default=None)
    p.set_defaults(handler=cmd_admissible)

    p = sub.add_parser("qls", parents=[common, weighted], help="describe one quantum LS path")
    p.add_argument("--directions", default=None, help="comma-separated Weyl words, e.g. s1*s2,e")
    p.add_argument("--breaks", default=None, help="comma-separated fractions, e.g. 0,1/2,1")
    p.set_defaults(handler=cmd_qls)

    p = sub.add_parser("crystal", parents=[common, weighted], help="build the path crystal")
    p.add_argument("--format", choices=("json", "dot"), default="json")
    p.set_defaults(handler=cmd_crystal)

    p = sub.add_parser("character", parents=[common, weighted], help="print a graded character")
    p.add_argument("--route", choices=("qls", "alcove", "weyl"), default="qls")
    p.add_argument("--format", choices=("json", "text", "orbit"), default="json")
    p.add_argument("--chain-file", default=None)
    p.set_defaults(handler=cmd_character)

    p = sub.add_parser("verify-px", parents=[common, weighted],
                       help="check that both model characters agree and match the oracle")
    p.add_argument("--chain-file", default=None)
    p.set_defaults(handler=cmd_verify_px)

    p = sub.add_parser("verify-crystal", parents=[common, weighted],
                       help="run the operator, energy, and tensor checks")
    p.add_argument("--chain-file", default=None)
    p.set_defaults(handler=cmd_verify_crystal)

    p = sub.add_parser("perfect", parents=[common], help="perfectness report per node")
    p.add_argument("--node", default="all", help="node index, long, short, or all")
    p.add_argument("--level", type=int, default=1)
    p.set_defaults(handler=cmd_perfect)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        datum = build_root_datum(args.type, args.rank)
        code = args.handler(datum, args)
        sys.stdout.flush()  # a closed pipe shows here, not at interpreter exit
        return code
    except BrokenPipeError:
        # the reader stopped early (`| head`): no check failed, so exit as
        # SIGPIPE would, and send what is still buffered to /dev/null
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InternalError as exc:
        print(json.dumps({"error": "internal", "message": str(exc)}), file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
