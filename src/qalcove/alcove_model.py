"""The quantum alcove model: lex chains, admissible subsets, the crystal.

A chain for a dominant weight lambda lists the hyperplanes H_{beta,-l}
(0 <= l < <beta^vee,lambda>) crossed by a reduced alcove walk from the
fundamental alcove to its translate by -lambda.  Admissible subsets of chain
positions are walks in the quantum Bruhat graph starting at the identity.
`build_crystal` makes the enumerated subsets of a lex chain a
`crystal.CrystalGraph`: its root operators f_p / e_p (p in the affine
index set) read the piecewise linear function g_alpha of Lenart-Lubovsky off
that walk and look their images up in the enumeration.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lcm

from qalcove.lie_data import UNSEEN, InputError, InternalError, RootDatum, Weight, WeylElement
from qalcove.crystal import CrystalGraph, WeightPacking
from qalcove.quantum_bruhat import QUANTUM, qbg_step


@dataclass(frozen=True)
class ChainEntry:
    root: int  # positive-root index
    level: int  # l_i, the crossing count of earlier entries with the same root


class LambdaChain:
    """Ordered hyperplane sequence for a dominant weight; immutable.

    It holds the tables of the fold rule.  Folding w at a position with root
    beta drops the weight by l-tilde w(beta), since w r_beta(lambda) =
    w(lambda) - <beta^vee,lambda> w(beta) and the translation moves by
    -l w(beta); a quantum step adds l-tilde to the height.  A weight is one
    integer key under `packing`, the `crystal.shape_packing` of lambda: every
    admissible subset's weight lies in conv(W lambda), so its coordinates
    stay within the largest <beta^vee,lambda>, the packing's bound.  The
    packing is linear, so the fold is x - l_tilde[pos] * shift[w.perm[beta]],
    with shift the key of each signed root index.
    """

    def __init__(
        self,
        datum: RootDatum,
        lam: Weight,
        entries: tuple[ChainEntry, ...],
        node_order: tuple[int, ...] | None,
        lex: bool,
    ):
        self.datum = datum
        self.lam = lam
        self.entries = entries
        self.roots = tuple(e.root for e in entries)
        self.node_order = node_order
        self.lex = lex
        # <beta^vee,lambda> by positive-root index
        self.pairings = pairings = tuple(datum.pairing(c, lam) for c in datum.positive_coroots)
        # <beta^vee,lambda> - l by 1-based position, 0 at position 0
        self.l_tilde = (0,) + tuple(pairings[e.root] - e.level for e in entries)
        if min(self.l_tilde[1:], default=1) <= 0:
            raise InternalError("height must be nonnegative")
        # the bound of `crystal.shape_packing`, read off the pairings at hand
        self.packing = WeightPacking(datum, pairings[datum.highest_coroot])
        # shift[-j] reads the last entries, negated
        packed = [self.packing.linear(r) for r in datum.root_weights]
        self.shift = tuple([0] + packed + [-x for x in reversed(packed)])

    def __len__(self) -> int:
        return len(self.entries)

    def to_json_dict(self) -> dict:
        return {
            "lambda": list(self.lam.coords),
            "node_order": list(self.node_order) if self.node_order else None,
            "lex": self.lex,
            "entries": [
                {"root": list(self.datum.positive_roots[e.root]), "level": e.level}
                for e in self.entries
            ],
        }


def lex_chain(
    datum: RootDatum, lam: Weight, node_order: tuple[int, ...] | None = None
) -> LambdaChain:
    """The lexicographic chain: hyperplanes sorted by their rational key
    (l, c_1, ..., c_r)/<beta^vee,lambda> with coroot coordinates read in
    node_order, scaled into integers by the lcm of the pairings."""
    if not datum.is_dominant(lam):
        raise InputError(f"weight {lam.coords} is not dominant")
    if node_order is None:
        node_order = tuple(range(1, datum.rank + 1))
    if sorted(node_order) != list(range(1, datum.rank + 1)):
        raise InputError(f"node order {node_order} is not a permutation of 1..{datum.rank}")
    crossed = [(k, h) for k in range(len(datum.positive_roots)) if (h := datum.pairing_index(k, lam)) > 0]
    L = lcm(*(h for _, h in crossed))
    keyed = []
    for k, h in crossed:
        coroot = tuple(datum.positive_coroots[k][i - 1] * (L // h) for i in node_order)
        keyed.extend((((L // h) * l,) + coroot, ChainEntry(k, l)) for l in range(h))
    keyed.sort(key=lambda t: t[0])
    if len({key for key, _ in keyed}) != len(keyed):
        raise InternalError("lex keys of distinct hyperplanes collide")
    return LambdaChain(datum, lam, tuple(e for _, e in keyed), node_order, lex=True)


def chain_from_roots(datum: RootDatum, lam: Weight, roots) -> LambdaChain:
    """Chain from a user-supplied root sequence; levels are crossing counts.
    Validates that the sequence is a genuine reduced alcove walk."""
    if not datum.is_dominant(lam):
        raise InputError(f"weight {lam.coords} is not dominant")
    entries = []
    seen: dict[int, int] = {}
    for r in roots:
        if isinstance(r, int):
            k = r if 0 <= r < len(datum.positive_roots) else None
        else:
            k = datum.root_index(tuple(int(x) for x in r))
        if k is None:
            raise InputError(f"{r} is not a positive root")
        entries.append(ChainEntry(k, seen.get(k, 0)))
        seen[k] = seen.get(k, 0) + 1
    for k in range(len(datum.positive_roots)):
        if seen.get(k, 0) != datum.pairing_index(k, lam):
            raise InputError(
                f"root {datum.root_name(k)} crossed {seen.get(k, 0)} times, "
                f"expected {datum.pairing_index(k, lam)}"
            )
    chain = LambdaChain(datum, lam, tuple(entries), None, lex=False)
    _validate_walk(chain)
    default = lex_chain(datum, lam)
    if chain.entries == default.entries:
        chain = LambdaChain(datum, lam, tuple(entries), default.node_order, lex=True)
    return chain


def _validate_walk(chain: LambdaChain) -> None:
    """Each crossing must be through a wall of the current alcove, and the
    walk must end at the fundamental alcove translated by -lambda."""
    datum = chain.datum
    weyl = datum.weyl
    w = weyl.identity
    v = Weight((0,) * datum.rank)
    # the fundamental alcove's last wall is H_{gamma,1} for the root gamma
    # with the highest coroot: the highest short root, not theta
    top = datum.highest_coroot
    walls = {(datum.simple_root_index[i], 0) for i in range(datum.rank)}
    walls.add((top, 1))
    for n, entry in enumerate(chain.entries, start=1):
        # pull H_{beta,-l} back through the affine map (w, v)
        g = w.inverse.perm[entry.root]
        j = abs(g) - 1
        level = -entry.level - datum.pairing(datum.positive_coroots[entry.root], v)
        if g < 0:
            level = -level
        if (j, level) not in walls:
            raise InputError(f"entry {n} does not cross a wall of the current alcove")
        # each crossing reflects the alcove, so the new reflection goes on the
        # outside: (r, -l beta) . (w, v)
        refl = weyl.reflection(entry.root)
        v = refl.act_weight(v) - Weight(tuple(entry.level * x for x in datum.root_weights[entry.root]))
        w = refl * w
    # (w, v) is the translation by -lambda only for lambda in the root
    # lattice, so test where it sends the interior point rho/h of the
    # fundamental alcove: back in that alcove after adding lambda.  Scaled
    # by h, the point is w(rho) + h(v + lambda) and the alcove is 0 < . < h.
    h = sum(datum.positive_coroots[top]) + 1
    end = w.act_weight(datum.rho) + Weight(tuple(h * c for c in (v + chain.lam).coords))
    if not all(0 < datum.pairing(coroot, end) < h for coroot in datum.positive_coroots):
        raise InputError("chain does not end at the alcove translated by -lambda")


class AdmissibleSubset:
    """Positions whose reflection walk is a path in QB(W) from the identity."""

    __slots__ = ("chain", "positions", "path", "edge_kinds", "weight", "height")

    def __init__(self, chain: LambdaChain, positions: tuple[int, ...]):
        datum, last = chain.datum, 0
        path, kinds, x, height = [datum.weyl.identity], [], chain.packing.pack(chain.lam.coords), 0
        for pos in positions:
            if not last < pos <= len(chain.entries):
                raise InputError(f"position {pos} out of order or out of range")
            last, root, w = pos, chain.entries[pos - 1].root, path[-1]
            step = qbg_step(datum, w, root)
            if step is None:
                raise InputError(f"positions {positions} are not admissible for this chain")
            x -= chain.l_tilde[pos] * chain.shift[w.perm[root]]
            if step[1] == QUANTUM:
                height += chain.l_tilde[pos]
            path.append(step[0])
            kinds.append(step[1])
        self.chain, self.positions, self.path, self.edge_kinds = chain, tuple(positions), tuple(path), tuple(kinds)
        self.weight, self.height = chain.packing.unpack(x), height

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, AdmissibleSubset)
            and self.chain is other.chain
            and self.positions == other.positions
        )

    def __hash__(self) -> int:
        return hash(self.positions)

    def __repr__(self) -> str:
        return f"AdmissibleSubset({set(self.positions) or '{}'})"

    def to_json_dict(self) -> dict:
        return {
            "positions": list(self.positions),
            "weight": list(self.weight.coords),
            "height": self.height,
            "path": [list(w.reduced_word()) for w in self.path],
            "edge_kinds": list(self.edge_kinds),
        }


def walk_admissible(chain: LambdaChain):
    """Every admissible subset as a node (depth, last position, last edge kind,
    w, packed weight, height), depth first in lexicographic order of position
    tuples, from (0, 0, None, identity, packed lambda, 0); a packed weight
    is a key under `chain.packing`."""
    datum = chain.datum
    roots = (-1,) + chain.roots
    l_tilde, shift = chain.l_tilde, chain.shift
    stack = [(0, 0, None, datum.weyl.identity, chain.packing.pack(chain.lam.coords), 0)]
    while stack:
        node = stack.pop()
        yield node
        depth, last, _, w, x, height = node
        # a tried position reads w's row of QB(W) steps at its root;
        # children go on in reverse, so the smallest next position pops first
        row, perm = w.steps, w.perm
        for pos in range(len(roots) - 1, last, -1):
            root = roots[pos]
            step = row[root]
            if step is UNSEEN:
                step = qbg_step(datum, w, root)
            if step is not None:
                target, kind = step
                lt = l_tilde[pos]
                x_next = x - lt * shift[perm[root]]
                stack.append((depth + 1, pos, kind, target, x_next, height + lt if kind == QUANTUM else height))


def enumerate_admissible(chain: LambdaChain) -> tuple[AdmissibleSubset, ...]:
    """All admissible subsets, in lexicographic order of position tuples."""
    # the walk visits a node right after its parent, so the positions, path
    # and edge kinds of its ancestors are the prefix, kept by depth, of the
    # last ones seen; a spare last slot takes the empty subset's writes to
    # index -1, past the longest prefix
    positions, path, kinds = ([None] * (len(chain.entries) + 1) for _ in range(3))
    out: list[AdmissibleSubset] = []
    weights: dict[int, Weight] = {}
    for depth, pos, kind, w, x, height in walk_admissible(chain):
        positions[depth - 1], path[depth], kinds[depth - 1] = pos, w, kind
        a = AdmissibleSubset.__new__(AdmissibleSubset)
        a.chain, a.weight, a.height = chain, weights.get(x) or weights.setdefault(x, chain.packing.unpack(x)), height
        a.positions, a.path, a.edge_kinds = tuple(positions[:depth]), tuple(path[: depth + 1]), tuple(kinds[:depth])
        out.append(a)
    return tuple(out)


# ------------------------------------------------------------- root operators


def _alpha_signed(datum: RootDatum, p: int) -> int:
    """alpha-tilde_p as a signed positive-root index: alpha_p, or -theta at p=0."""
    index, sign = datum.affine_root(p)
    return sign * (index + 1)


def require_lex(chain: LambdaChain) -> None:
    """Root operators and the bijection with paths exist over lex chains only."""
    if not chain.lex:
        raise InputError("root operators and the path bijection need a lex chain")


def _label_feeds(datum: RootDatum) -> dict[int, list[tuple[int, int]]]:
    """|alpha-tilde_p| as a signed root index, mapped to the (p, sign of
    alpha-tilde_p) that read it: one label per root, except in A1, where
    theta = alpha_1 and labels 0 and 1 read the same root."""
    feeds: dict[int, list[tuple[int, int]]] = {}
    for p in range(datum.rank + 1):
        alpha = _alpha_signed(datum, p)
        feeds.setdefault(abs(alpha), []).append((p, 1 if alpha > 0 else -1))
    return feeds


def _label_samples(A: AdmissibleSubset, feeds: dict[int, list[tuple[int, int]]]):
    """For every label p, the samples of Lenart-Lubovsky's g_alpha at
    alpha = alpha-tilde_p, as (finite samples, sample at infinity), in one
    walk along the chain; feeds is `_label_feeds(datum)`.

    gamma_i is beta_i moved by the walk's element before i, and it feeds the
    labels whose root is +-gamma_i.  The finite samples of a label are its
    (i, g_alpha(i)) at those i: g moves by sign(gamma_i)/2 up to the sample
    and by as much again after it, reversed when i is folded.
    """
    chain, path, positions = A.chain, A.path, A.positions
    n = chain.datum.rank + 1
    h = [-1] * n  # 2 g per label
    finite: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    a, perm = 0, path[0].perm  # a = positions of A below i
    fold = positions[0] if positions else 0
    for i, root in enumerate(chain.roots, start=1):
        gamma = perm[root]
        readers = feeds.get(gamma if gamma > 0 else -gamma)
        if readers:
            s = 1 if gamma > 0 else -1
            for p, sign in readers:
                hp = h[p] + s
                if hp % 2:
                    raise InternalError(f"g_alpha takes the non-integer value {hp}/2")
                finite[p].append((i, sign * hp // 2))
                h[p] = hp - s if i == fold else hp + s
        if i == fold:
            a += 1
            perm = path[a].perm
            fold = positions[a] if a < len(positions) else 0
    datum, out = chain.datum, [None] * n
    for root, readers in feeds.items():
        value = datum.pairing(datum.positive_coroots[root - 1], A.weight)
        for p, sign in readers:
            out[p] = (finite[p], sign * value)
    return out


def build_crystal(subsets: tuple[AdmissibleSubset, ...]) -> CrystalGraph:
    """The crystal on `enumerate_admissible(chain)` of a lex chain under
    Lenart-Lubovsky's root operators; vertex i is subsets[i], and vertex 0,
    the empty subset, is the distinguished one.

    One `_label_samples` walk per subset gives the samples of every label p;
    with their maximum M they give both operators as positions.  Where
    M > delta_{p,0}, f_p unfolds the first index attaining M (none when only
    infinity does) and folds the sample index before it; where
    M > g(infinity) and M >= delta_{p,0}, e_p unfolds the last index
    attaining M and folds the next sample index, if any.  Each image is
    looked up by its positions, and an f_p image must hold the source's path
    with one segment conjugated by s_p.  The weights are keys under
    `chain.packing`, as the walk's are, and `CrystalGraph.check` holds that
    f_p lowers the weight by alpha-tilde_p and e_p undoes f_p.
    """
    chain = subsets[0].chain
    require_lex(chain)
    datum = chain.datum
    index = {A.positions: i for i, A in enumerate(subsets)}
    labels = range(datum.rank + 1)
    e, f = [[-1] * len(subsets) for _ in labels], [[-1] * len(subsets) for _ in labels]
    feeds = _label_feeds(datum)
    refls = [datum.weyl.reflection(abs(_alpha_signed(datum, p)) - 1).perm for p in labels]

    def lookup(positions) -> int:
        i = index.get(tuple(sorted(positions)))
        if i is None:
            raise InternalError("root operator produced a non-admissible subset")
        return i

    for i, A in enumerate(subsets):
        folded = set(A.positions)
        for p, (finite, inf_sample) in enumerate(_label_samples(A, feeds)):
            delta = 1 if p == 0 else 0
            M = max([g for _, g in finite] + [inf_sample])
            if M < delta:
                continue
            attaining = [j for j, g in finite if g == M]
            if M > delta:
                m_idx = attaining[0] if attaining else None  # None = infinity
                if m_idx is not None and m_idx not in folded:
                    raise InternalError("minimum attaining index must be a folding position")
                prior = [j for j, _ in finite if m_idx is None or j < m_idx]
                if not prior:
                    raise InternalError("the first attaining index has no sample before it")
                k_idx = prior[-1]
                if k_idx in folded:
                    raise InternalError("predecessor index must not be a folding position")
                f[p][i] = lookup((folded - {m_idx}) | {k_idx})
                # f_p conjugates path[a:b] by s_p and shifts it one place on
                a = sum(1 for j in A.positions if j < k_idx)
                b = len(A.path) if m_idx is None else A.positions.index(m_idx) + 1
                old, new = A.path, subsets[f[p][i]].path
                if not (
                    len(new) == len(old) + (m_idx is None)
                    and new[: a + 1] == old[: a + 1]
                    and new[b + 1 :] == old[b + 1 :]
                    and all(_is_conjugate(u, w, refls[p], datum.simple_root_index) for u, w in zip(new[a + 1 :], old[a:b]))
                ):
                    raise InternalError("f_p did not conjugate a contiguous path segment")
            if M > inf_sample:
                if not attaining:
                    raise InternalError("e-operator needs a finite attaining index")
                k_idx = attaining[-1]
                if k_idx not in folded:
                    raise InternalError("maximum attaining index must be a folding position")
                later = [j for j, _ in finite if j > k_idx]
                if later and later[0] in folded:
                    raise InternalError("successor index must not be a folding position")
                e[p][i] = lookup((folded - {k_idx}) | set(later[:1]))
    keys = [chain.packing.pack(A.weight.coords) for A in subsets]
    graph = CrystalGraph(datum, subsets, keys, e, f, 0, chain.packing)
    graph.check()
    return graph


def _is_conjugate(u: WeylElement, w: WeylElement, s: tuple[int, ...], simple: tuple[int, ...]) -> bool:
    """Whether u = s_beta w, s the signed permutation of s_beta: an element is
    fixed by its images of the simple roots."""
    return all(u.perm[k] == (s[v - 1] if (v := w.perm[k]) > 0 else -s[-v - 1]) for k in simple)
