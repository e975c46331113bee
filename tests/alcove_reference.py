"""Reference code for the alcove model, kept to test the faster rules in
`qalcove.alcove_model` against.

`enumerate_admissible` is the former enumeration: it grows every node of the
walk (positions, path, edge kinds, weight, height) by tuple concatenation and
asks `qbg_step` once per tried position.  `lex_entries` is the former sort of
`lex_chain`, keyed by a tuple of `Fraction`s per hyperplane.  `_samples` is
the former sampler of g_alpha, one walk along the chain per (subset, label),
where `alcove_model._label_samples` serves every label in one walk.
"""

from __future__ import annotations

from fractions import Fraction

from qalcove.alcove_model import AdmissibleSubset, ChainEntry, LambdaChain
from qalcove.lie_data import InternalError, RootDatum, Weight, WeylElement
from qalcove.quantum_bruhat import QUANTUM, qbg_step

# A node of the walk: (positions, path, edge kinds, weight, height), where
# weight is -r_{j1}...r_{js}(-lambda) and height sums l-tilde over the
# quantum steps.
Node = tuple[tuple[int, ...], tuple[WeylElement, ...], tuple[str, ...], Weight, int]


def _root_node(chain: LambdaChain) -> Node:
    return (), (chain.datum.weyl.identity,), (), chain.lam, 0


def _extend(chain: LambdaChain, node: Node, pos: int) -> Node | None:
    """The node one step further, folding at pos, or None when w -> w r_beta
    is not an edge of QB(W).  Since w r_beta(lambda) = w(lambda) -
    <beta^vee,lambda> w(beta) and the translation moves by -l w(beta), the
    weight drops by l-tilde w(beta)."""
    positions, path, kinds, weight, height = node
    w = path[-1]
    root = chain.entries[pos - 1].root
    step = qbg_step(chain.datum, w, root)
    if step is None:
        return None
    target, kind = step
    lt = chain.datum.pairing_index(root, chain.lam) - chain.entries[pos - 1].level
    image = w.perm[root]
    shift = chain.datum.root_weights[abs(image) - 1]
    c = lt if image > 0 else -lt
    weight = Weight(tuple(a - c * b for a, b in zip(weight.coords, shift)))
    if kind == QUANTUM:
        if lt <= 0:
            raise InternalError("height must be nonnegative")
        height += lt
    return positions + (pos,), path + (target,), kinds + (kind,), weight, height


def enumerate_admissible(chain: LambdaChain) -> tuple[AdmissibleSubset, ...]:
    """All admissible subsets, in lexicographic order of position tuples."""
    m = len(chain.entries)
    out: list[AdmissibleSubset] = []
    stack = [_root_node(chain)]
    while stack:
        node = stack.pop()
        a = AdmissibleSubset.__new__(AdmissibleSubset)
        a.chain = chain
        a.positions, a.path, a.edge_kinds, a.weight, a.height = node
        out.append(a)
        start = node[0][-1] + 1 if node[0] else 1
        # children go on in reverse, so the smallest next position pops first
        for pos in range(m, start - 1, -1):
            child = _extend(chain, node, pos)
            if child is not None:
                stack.append(child)
    return tuple(out)


def lex_entries(datum: RootDatum, lam: Weight, node_order: tuple[int, ...]) -> tuple[ChainEntry, ...]:
    """The lex chain's entries, sorted by the rational key
    (l, c_1, ..., c_r)/<beta^vee,lambda> with coroot coordinates read in
    node_order."""
    keyed = []
    for k in range(len(datum.positive_roots)):
        h = datum.pairing_index(k, lam)
        if h <= 0:
            continue
        coroot = datum.positive_coroots[k]
        for l in range(h):
            key = (Fraction(l, h),) + tuple(Fraction(coroot[i - 1], h) for i in node_order)
            keyed.append((key, ChainEntry(k, l)))
    keyed.sort(key=lambda t: t[0])
    if len({key for key, _ in keyed}) != len(keyed):
        raise InternalError("lex keys of distinct hyperplanes collide")
    return tuple(e for _, e in keyed)


def _samples(A: AdmissibleSubset, alpha_signed: int):
    """The samples of Lenart-Lubovsky's g_alpha at the indices i with
    gamma_i = +-alpha, plus the sample at infinity.  gamma_i is beta_i moved by
    the walk's element before i; at each such i, g moves by sign(gamma_i)/2 up
    to the sample and by as much again after it, reversed when i is folded."""
    j = abs(alpha_signed)
    sign = 1 if alpha_signed > 0 else -1
    finite = []
    h, a = -1, 0  # h = 2g; a = positions of A below i
    for i, entry in enumerate(A.chain.entries, start=1):
        gamma = A.path[a].perm[entry.root]
        folded = a < len(A.positions) and A.positions[a] == i
        if abs(gamma) == j:
            s = 1 if gamma > 0 else -1
            h += s
            if h % 2:
                raise InternalError(f"g_alpha takes the non-integer value {h}/2")
            finite.append((i, sign * h // 2))
            h += -s if folded else s
        a += folded
    datum = A.chain.datum
    inf_sample = sign * datum.pairing(datum.positive_coroots[j - 1], A.weight)
    return finite, inf_sample
