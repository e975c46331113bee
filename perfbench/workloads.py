"""Workload cases and the references that check their outputs.

A case is one `qalcove` command line.  The references here share no code
with `qalcove`: root systems, the Weyl dimension formula and the
single-column decompositions of Chari (2001) and Hatayama-Kuniba-Okado-
Takagi-Tsuboi (2002) are written out from the literature, so a defect in the
package cannot hide by agreeing with itself.
"""

from __future__ import annotations

import hashlib
import json
import random
import re
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

# Large enough that the |W| * chain-length guard never decides an outcome:
# its default (200000) refuses E6 omega_1 and omega_2, which run in seconds.
BUDGET = 10**9

DIGESTS = Path(__file__).with_name("digests.json")


@dataclass(frozen=True)
class Case:
    command: str  # character, verify-px, verify-crystal, perfect
    type: str
    rank: int
    weight: tuple[int, ...] | None = None  # None for perfect
    route: str | None = None  # character only
    node_order: tuple[int, ...] | None = None  # alcove character only

    @property
    def key(self) -> str:
        """Digest key: the command without the options that leave stdout unchanged."""
        parts = [self.command]
        if self.route:
            parts.append(f"--route {self.route}")
        parts.append(f"{self.type}{self.rank}")
        if self.weight is not None:
            parts.append(",".join(map(str, self.weight)))
        return " ".join(parts)

    def argv(self) -> list[str]:
        out = [self.command, "--type", self.type, "--rank", str(self.rank)]
        if self.weight is not None:
            out += ["--weight", ",".join(map(str, self.weight))]
        if self.route:
            out += ["--route", self.route]
        if self.node_order:
            out += ["--node-order", ",".join(map(str, self.node_order))]
        return out + ["--budget", str(BUDGET)]


def _rho(n: int) -> tuple[int, ...]:
    return (1,) * n


def _omega(n: int, r: int) -> tuple[int, ...]:
    return tuple(int(i == r) for i in range(1, n + 1))


def _character(route: str, t: str, n: int, w: tuple[int, ...]) -> Case:
    return Case("character", t, n, w, route=route)


# The lambdas both ladders run, so the two routes cross-check each other.
_SHARED = [
    ("A", 3, _rho(3)),
    ("G", 2, (1, 1)),
    ("C", 3, (1, 0, 1)),
    ("B", 3, (0, 1, 1)),
    ("D", 4, (0, 0, 1, 1)),
    ("C", 4, (1, 0, 0, 1)),
]

WORKLOADS: dict[str, list[Case]] = {
    "alcove-ladder": [_character("alcove", t, n, w) for t, n, w in _SHARED]
    + [
        _character("alcove", "A", 4, _rho(4)),
        _character("alcove", "B", 3, _rho(3)),
        _character("alcove", "C", 3, _rho(3)),
        _character("alcove", "G", 2, (2, 1)),
        _character("alcove", "D", 4, (1, 0, 1, 1)),
        _character("alcove", "C", 4, (0, 1, 0, 1)),
    ],
    # Cases of about a second or more (C3 and B3 rho, G2 (2,1), D4 (1,0,1,1),
    # C4 (0,1,0,1)) would leave a run too few passes to steady its times.
    "qls-ladder": [_character("qls", t, n, w) for t, n, w in _SHARED],
    # E6 (|W| = 51840, 3-5 s a case) is left out: one case spans host-speed
    # changes that the probes around it cannot follow (see FINDINGS.md).
    "big-group": [
        Case("verify-px", "F", 4, _omega(4, 1)),
        Case("verify-px", "B", 5, _omega(5, 5)),
        Case("verify-px", "D", 5, _omega(5, 1)),
        Case("verify-px", "A", 6, _omega(6, 3)),
    ],
    "verify-crystal": [
        Case("verify-crystal", "G", 2, (1, 1)),
        Case("verify-crystal", "A", 3, _rho(3)),
        Case("verify-crystal", "C", 3, (1, 0, 1)),
        Case("verify-crystal", "D", 4, _omega(4, 2)),
        Case("verify-crystal", "C", 2, (2, 1)),
        Case("perfect", "C", 3),
        Case("perfect", "B", 3),
    ],
}


def cases_for(workload: str, seed: int) -> list[Case]:
    """The workload's cases in a seed-drawn order.

    alcove-ladder also gets C3 rho on a seed-drawn non-lex node order; by
    chain independence its stdout equals the lex one.
    """
    rng = random.Random(seed)
    cases = list(WORKLOADS[workload])
    if workload == "alcove-ladder":
        orders = [(1, 3, 2), (2, 1, 3), (2, 3, 1), (3, 1, 2), (3, 2, 1)]
        cases.append(Case("character", "C", 3, _rho(3), "alcove", rng.choice(orders)))
    rng.shuffle(cases)
    return cases


def distinct_groups(cases: list[Case]) -> list[tuple[str, int]]:
    return sorted({(c.type, c.rank) for c in cases})


# ------------------------------------------------------- independent references


def cartan(t: str, n: int) -> list[list[int]]:
    """a[i][j] = <alpha_i^vee, alpha_j>, Bourbaki numbering."""
    a = [[2 if i == j else 0 for j in range(n)] for i in range(n)]

    def bond(i: int, j: int, ij: int = -1, ji: int = -1) -> None:
        a[i - 1][j - 1], a[j - 1][i - 1] = ij, ji

    if t == "G":
        bond(1, 2, -3, -1)  # alpha_1 short
    else:
        last = n - 1 if t == "D" else n
        for i in range(1, last):
            bond(i, i + 1)
        if t == "B":
            bond(n - 1, n, -1, -2)  # alpha_n short
        elif t == "C":
            bond(n - 1, n, -2, -1)  # alpha_n long
        elif t == "D":
            bond(n - 2, n)
        elif t == "F":
            bond(2, 3, -1, -2)  # alpha_3, alpha_4 short
    return a


def positive_roots(a: list[list[int]]) -> set[tuple[int, ...]]:
    """Positive roots in simple-root coordinates, closed under simple reflections."""
    n = len(a)
    simple = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    found, frontier = set(simple), list(simple)
    while frontier:
        beta = frontier.pop()
        for i in range(n):
            c = sum(a[i][j] * beta[j] for j in range(n))
            image = tuple(b - (c if j == i else 0) for j, b in enumerate(beta))
            if min(image) >= 0 and image not in found:
                found.add(image)
                frontier.append(image)
    return found


def weyl_dimension(t: str, n: int, lam: tuple[int, ...]) -> int:
    """prod over positive coroots of <lam + rho, beta^vee> / <rho, beta^vee>."""
    a = cartan(t, n)
    dual = [[a[j][i] for j in range(n)] for i in range(n)]
    out = Fraction(1)
    for co in positive_roots(dual):
        out *= Fraction(sum(c * (x + 1) for c, x in zip(co, lam)), sum(co))
    if out.denominator != 1:
        raise ValueError(f"dimension of {t}{n} {lam} is not an integer")
    return int(out)


def single_column(t: str, n: int, r: int) -> list[tuple[int, tuple[int, ...]]]:
    """Graded decomposition of the single-column module at node r.

    (q exponent, highest weight) pairs, after Chari (2001) and HKOTT (2002):
    A and C are irreducible; B (r < n) and D (r <= n-2) drop two nodes per
    power of q; spin nodes are irreducible; adjoint nodes of F4 and G2 add
    q * chi(0).  Only the nodes the workloads use are listed for F.
    """
    zero = (0,) * n
    if t in "BD" and r <= (n - 1 if t == "B" else n - 2):
        return [(k, _omega(n, r - 2 * k) if r > 2 * k else zero) for k in range(r // 2 + 1)]
    if (t, n, r) in {("F", 4, 1), ("G", 2, 2)}:
        return [(0, _omega(n, r)), (1, zero)]
    if t in "ABCD" or (t, n, r) == ("G", 2, 1):
        return [(0, _omega(n, r))]
    raise KeyError(f"no single-column reference for {t}{n} node {r}")


def column_dimension(t: str, n: int, r: int) -> int:
    return sum(weyl_dimension(t, n, hw) for _, hw in single_column(t, n, r))


def expected_elements(case: Case) -> int:
    """q = 1 dimension: a product of column dimensions, or their sum for perfect."""
    if case.command == "perfect":
        return sum(column_dimension(case.type, case.rank, r) for r in range(1, case.rank + 1))
    out = 1
    for r, c in enumerate(case.weight, start=1):
        if c:
            out *= column_dimension(case.type, case.rank, r) ** c
    return out


# -------------------------------------------------------------- output checks


_CHUNK = re.compile(r"(?:(\d+)\*)?(?:q(?:\^(\d+))?\*)?chi\(([-\d, ]*)\)")


def parse_decomposition(text: str) -> list[tuple[int, tuple[int, ...], int]]:
    out = []
    for chunk in text.split(" + "):
        m = _CHUNK.fullmatch(chunk.strip())
        if m is None:
            raise ValueError(f"cannot parse decomposition chunk {chunk!r}")
        coeff = int(m.group(1) or 1)
        q = 0 if "q" not in chunk else int(m.group(2) or 1)
        out.append((q, tuple(int(x) for x in m.group(3).split(",")), coeff))
    return sorted(out)


def load_digests() -> dict[str, str]:
    return json.loads(DIGESTS.read_text())


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def swap_route(stdout: str, route: str, other: str) -> str:
    """The stdout the other route prints: the two differ only in the route key."""
    return stdout.replace(f'"route": "{route}"', f'"route": "{other}"', 1)


def check(case: Case, code: int, stdout: str, digests: dict[str, str]) -> list[str]:
    """Every reason the case's output is wrong; empty when it is right."""
    problems = []
    if code != 0:
        problems.append(f"exit code {code}")
    if sha256(stdout) != digests.get(case.key):
        problems.append("stdout differs from the recorded digest")
    try:
        problems += _semantic_problems(case, stdout, digests)
    except (ValueError, KeyError, IndexError) as exc:
        problems.append(f"unreadable output: {exc!r}")
    return problems


def _semantic_problems(case: Case, stdout: str, digests: dict[str, str]) -> list[str]:
    problems = []
    want = expected_elements(case)
    if case.command == "character":
        blob = json.loads(stdout)
        got = sum(t["coeff"] for t in blob["terms"])
        if got != want:
            problems.append(f"q=1 dimension {got}, expected {want}")
        other = "qls" if case.route == "alcove" else "alcove"
        twin = Case("character", case.type, case.rank, case.weight, route=other)
        if twin.key in digests and sha256(swap_route(stdout, case.route, other)) != digests[twin.key]:
            problems.append(f"terms differ from the {other} route")
    elif case.command == "verify-px":
        head, _, body = stdout.partition("\n")
        if not head.startswith("X = "):
            raise ValueError("missing X line")
        r = case.weight.index(1) + 1
        expected = sorted((q, hw, 1) for q, hw in single_column(case.type, case.rank, r))
        if parse_decomposition(head[4:]) != expected:
            problems.append(f"{head!r} disagrees with the single-column table")
        if not json.loads(body)["pass"]:
            problems.append("verify-px did not pass")
    elif case.command == "verify-crystal":
        blob = json.loads(stdout)
        violations = len(blob["intertwining"]["violations"]) + len(blob["energy"]["violations"])
        if not blob["pass"] or violations:
            problems.append(f"pass={blob['pass']} with {violations} violations")
        if blob["vertices"] != want:
            problems.append(f"{blob['vertices']} vertices, expected {want}")
    return problems
