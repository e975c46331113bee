"""Quantum Bruhat graphs, restricted reachability, orderings, and tilted minima."""

from collections import Counter
from fractions import Fraction
from operator import mul

import pytest

from qalcove.alcove_model import lex_chain
from qalcove.characters import character_from_alcove
from qalcove.lie_data import InputError, InternalError, Weight, WeylGroup, build_root_datum
from qalcove.qls_model import qls_path, straight_path
from qalcove.quantum_bruhat import (
    BRUHAT,
    QUANTUM,
    UNSEEN,
    OrbitGraph,
    minus_w0,
    qbg_step,
    orbit_graph,
)
from inverse_reference import increasing_paths_from, reflection_ordering, tilted_minimum
from qbg_reference import (
    QuantumBruhatGraph,
    QueryGraph,
    build_qbg,
    carried,
    coset_reps,
    distance,
    is_strongly_connected,
    left_descent_word,
    longest,
    min_coset_rep,
    orbit_edges,
    orbit_reach,
    reflect,
    shortest_paths,
)


def _on_weyl_elements(d, lam):
    """The orbit graph of lam read on W^J through x -> x(lam): its
    reachability and its shortest-path weight as functions of elements."""
    graph = orbit_graph(d, lam)
    at = graph.coords_index

    def reachable(x, y, b):
        return graph.reachable(at[x.act_weight(lam).coords], at[y.act_weight(lam).coords], b.denominator)

    def weight(x, y):
        return graph.path_weight(at[x.act_weight(lam).coords], at[y.act_weight(lam).coords], 1)

    return reachable, weight


def test_a1_full_graph():
    d = build_root_datum("A", 1)
    g = build_qbg(d)
    s1 = d.weyl.simple[0]
    edges = list(g.edges())
    assert len(edges) == 2
    by_src = {e.source: e for e in edges}
    assert by_src[d.weyl.identity].kind == BRUHAT
    assert by_src[d.weyl.identity].weight == (0,)
    assert by_src[s1].kind == QUANTUM
    assert by_src[s1].target == d.weyl.identity
    assert by_src[s1].weight == (1,)  # alpha1^vee


def test_full_graph_drops_pair_with_two_rho():
    for label, rank in [("A", 3), ("C", 3), ("G", 2)]:
        d = build_root_datum(label, rank)
        two_rho = Weight((2,) * rank)
        assert d.quantum_drops() == {
            k: d.pairing(c, two_rho) for k, c in enumerate(d.positive_coroots)
        }


def test_step_along_the_highest_root_of_a2():
    # r_theta = w_0 has length 3 and <theta^vee, 2rho> = 4
    d = build_root_datum("A", 2)
    e, w0 = d.weyl.identity, longest(d.weyl)
    assert qbg_step(d, e, d.theta) is None
    assert qbg_step(d, w0, d.theta) == (e, QUANTUM)
    for i in range(2):
        assert qbg_step(d, e, d.simple_root_index[i]) == (d.weyl.simple[i], BRUHAT)


def _direct_step(d, w, root, J, depth=None):
    # the edge rule read off its definition: w r_beta, its minimal coset
    # representative, then the two length conditions; depth is
    # 2rho - 2rho_J, summed here unless a caller passes it
    target = min_coset_rep(d.weyl, w * d.weyl.reflection(root), J)
    if target.length == w.length + 1:
        return target, BRUHAT
    if depth is None:
        depth = d.two_rho_minus_two_rho_J(J)
    drop = d.pairing(d.positive_coroots[root], depth)
    if target.length == w.length + 1 - drop:
        return target, QUANTUM
    return None


@pytest.mark.parametrize("label, rank, J", [("B", 3, frozenset({2})), ("G", 2, frozenset({1}))])
def test_step_memo_equals_the_direct_rule(label, rank, J, monkeypatch):
    d = build_root_datum(label, rank)
    group = coset_reps(d.weyl, frozenset())
    # the graph composes every step and keeps nothing on the elements
    for K in (frozenset(), J):
        graph, drops = QuantumBruhatGraph(d, K), d.quantum_drops(K)
        assert graph.drops == drops
        for w in graph.vertices:
            edges = {e.label: (e.target, e.kind) for e in graph.adjacency[w]}
            direct = {root: _direct_step(d, w, root, K) for root in drops}
            assert edges == {root: step for root, step in direct.items() if step}
            assert all(step is UNSEEN for step in w.steps)
    for w in group:
        for root in range(len(d.positive_roots)):
            step = qbg_step(d, w, root)
            assert step == _direct_step(d, w, root, frozenset())
            assert qbg_step(d, w, root) is step
            assert w.steps[root] is step
    # each (w, root) is decided once, in w's own row, and a repeated step
    # composes nothing
    rows = {w: list(w.steps) for w in group}
    assert not any(step is UNSEEN for row in rows.values() for step in row)
    with monkeypatch.context() as m:
        m.setattr(WeylGroup, "product", lambda *args: pytest.fail("composed again"))
        for w in group:
            assert all(qbg_step(d, w, root) is step for root, step in enumerate(rows[w]))
    # the elements of a second datum of the same type carry their own rows
    twin = build_root_datum(label, rank)
    w0 = longest(twin.weyl)
    assert w0 is not longest(d.weyl) and w0.perm == longest(d.weyl).perm
    assert all(step is UNSEEN for step in w0.steps)
    step = qbg_step(twin, w0, twin.theta)
    assert step[0].group is twin.weyl
    assert [root for root, s in enumerate(w0.steps) if s is not UNSEEN] == [twin.theta]
    assert all(w.steps == rows[w] for w in group)


@pytest.mark.parametrize("label, rank", [("A", 3), ("B", 3), ("C", 3), ("D", 4), ("G", 2), ("F", 4)])
def test_inversion_set_rule_equals_the_direct_rule(label, rank):
    # on W the step reads l(w r_beta) off N(w) and N(r_beta) and composes
    # only along an edge; the direct rule composes every w r_beta first
    d = build_root_datum(label, rank)
    group = coset_reps(d.weyl, frozenset())
    assert len(group) == d.weyl_order
    depth = d.two_rho_minus_two_rho_J(frozenset())
    for w in group:
        for root in range(len(d.positive_roots)):
            assert qbg_step(d, w, root) == _direct_step(d, w, root, frozenset(), depth)


def test_alcove_walk_composes_only_along_edges(monkeypatch):
    d = build_root_datum("C", 3)
    chain = lex_chain(d, d.rho)
    calls = []
    product = WeylGroup.product
    monkeypatch.setattr(WeylGroup, "product", lambda *args: calls.append(args) or product(*args))
    decisions = []

    class CountedReads(list):
        def __getitem__(self, root):
            decisions.append(root)
            return super().__getitem__(root)

    # a step reads the edge-table row of its root once, when it decides
    monkeypatch.setattr(d.weyl, "edge_table", CountedReads(d.weyl.edge_table))
    character_from_alcove(chain)
    # each (w, root) is decided once, in w's row
    decided = [step for w in d.weyl.elements for step in w.steps if step is not UNSEEN]
    edges = [step for step in decided if step is not None]
    assert len(decisions) == len(decided)
    assert len(calls) == len(edges) < len(decided)


def test_a_length_off_the_inversion_count_is_caught():
    d = build_root_datum("A", 2)
    # r_theta = w_0 negates all three positive roots; with theta alone in
    # its inversion mask, e -> r_theta would read as a Bruhat edge
    drop = d.weyl.edge_table[d.theta][1]
    d.weyl.edge_table[d.theta] = (1 << d.theta, drop)
    with pytest.raises(InternalError, match="differs from its inversion-set count"):
        qbg_step(d, d.weyl.identity, d.theta)


def test_parabolic_vertex_count():
    d = build_root_datum("A", 2)
    g = QueryGraph(d, frozenset({2}))
    assert len(g.vertices) == 3
    # x -> x(lam) is a bijection from W^J onto the orbit of lam
    lam = Weight((1, 0))
    orbit = g.orbit(lam)
    assert sorted(orbit.values(), key=lambda x: x.perm) == sorted(g.vertices, key=lambda x: x.perm)
    assert all(x.act_weight(lam) == mu for mu, x in orbit.items())
    assert g.orbit(lam) is orbit
    with pytest.raises(InputError, match="stabilizer"):
        g.orbit(Weight((1, 1)))


def test_full_parabolic_has_no_edges():
    d = build_root_datum("C", 2)
    g = build_qbg(d, frozenset({1, 2}))
    assert g.edge_count() == 0


def _restricted(graph, b, lam):
    """Adjacency of the b-restricted graph: the edges whose label alpha has
    b<alpha^vee, lam> integral."""
    return {
        w: tuple(e for e in edges if (b * graph.datum.pairing_index(e.label, lam)).denominator == 1)
        for w, edges in graph.adjacency.items()
    }


def _reach(adjacency, v):
    seen = {v}
    stack = [v]
    while stack:
        for e in adjacency[stack.pop()]:
            if e.target not in seen:
                seen.add(e.target)
                stack.append(e.target)
    return seen


def test_restrict_integral_keeps_everything():
    d = build_root_datum("A", 2)
    g = build_qbg(d)
    lam = d.rho
    reachable, _ = _on_weyl_elements(d, lam)
    for x in g.vertices:
        plain = _reach(g.adjacency, x)
        for y in g.vertices:
            assert reachable(x, y, Fraction(1)) == (y in plain)


def test_restrict_a1():
    d = build_root_datum("A", 1)
    lam = Weight((2,))
    reachable, _ = _on_weyl_elements(d, lam)
    e, s1 = d.weyl.identity, d.weyl.simple[0]
    assert reachable(e, s1, Fraction(1, 2)) and reachable(s1, e, Fraction(1, 2))
    assert not reachable(e, s1, Fraction(1, 3))
    assert not reachable(s1, e, Fraction(1, 3))


def test_restrict_rejects_bad_weight():
    d = build_root_datum("A", 2)
    g = QueryGraph(d)
    e = d.weyl.identity
    with pytest.raises(InputError):
        g.reachable(e, e, Fraction(1, 2), Weight((-1, 0)))
    with pytest.raises(InputError, match="dominant"):
        orbit_graph(d, Weight((-1, 0)))
    para = QueryGraph(d, frozenset({1}))
    with pytest.raises(InputError):
        para.reachable(e, e, Fraction(1, 2), Weight((1, 0)))  # stabilizer {2} misses J={1}
    # the full graph accepts weights with any stabilizer
    assert g.reachable(e, e, Fraction(1, 2), Weight((1, 0)))


# (type, rank, lambda, J): parabolic graphs over A-G at J = stab(lambda), and
# one full graph restricted by a weight with a nonempty stabilizer
REACHABILITY_CASES = [
    ("A", 2, (1, 0), ()),
    ("A", 5, (0, 0, 2, 0, 0), None),
    ("A", 4, (1, 0, 0, 2), None),
    ("B", 3, (0, 1, 1), None),
    ("C", 3, (1, 0, 1), None),
    ("C", 4, (0, 1, 0, 1), None),
    ("D", 4, (1, 0, 1, 1), None),
    ("E", 6, (0, 1, 0, 0, 0, 0), None),
    ("F", 4, (1, 0, 0, 1), None),
    ("G", 2, (2, 1), None),
    ("G", 2, (3, 0), None),
]


@pytest.mark.parametrize("label,rank,coords,J", REACHABILITY_CASES)
def test_reachable_matches_a_search_of_the_restricted_graph(label, rank, coords, J):
    # the reference query on Weyl elements that the orbit graph is checked against
    d = build_root_datum(label, rank)
    lam = Weight(coords)
    g = QueryGraph(d, d.stabilizer(lam) if J is None else frozenset(J))
    pairings = {d.pairing_index(k, lam) for k in g.labels}
    breaks = {Fraction(a, p) for p in pairings for a in range(1, p)} | {Fraction(1, 7)}
    outcomes = set()
    for b in sorted(breaks):
        kept = _restricted(g, b, lam)
        for x in g.vertices:
            reach = _reach(kept, x)
            for y in g.vertices:
                if y != x:
                    assert g.reachable(x, y, b, lam) == (y in reach), (label, coords, b)
                    outcomes.add(y in reach)
    assert outcomes == {False, True}


@pytest.mark.parametrize("label,rank,coords,J", REACHABILITY_CASES)
def test_enumeration_tables_match_a_search_of_the_restricted_graph(label, rank, coords, J):
    # the QLS enumerator lets y follow x at b exactly when the search from y
    # restricted at den(b) reaches x; that must be reachability of x from y
    d = build_root_datum(label, rank)
    lam = Weight(coords)
    g = QueryGraph(d, d.stabilizer(lam) if J is None else frozenset(J))
    pairings = {d.pairing_index(k, lam) for k in g.labels}
    if J is None:
        orbit = orbit_graph(d, lam)
        at = {x: orbit.coords_index[x.act_weight(lam).coords] for x in g.vertices}

        def follows(y, x, v):
            return at[x] in orbit.search(at[y], v)
    else:
        # a full graph restricted by a weight with a nonempty stabilizer has
        # no orbit graph; the reference table is checked instead
        def follows(y, x, v):
            return g.label_gcd(y, lam)[x] % v == 0

    for b in sorted({Fraction(a, p) for p in pairings for a in range(1, p)} | {Fraction(1, 7)}):
        kept = _restricted(g, b, lam)
        reach = {y: _reach(kept, y) for y in g.vertices}
        for x in g.vertices:
            followers = {y for y in g.vertices if y != x and follows(y, x, b.denominator)}
            assert followers == {y for y in g.vertices if y != x and x in reach[y]}, (label, coords, b)


def test_shortest_path_weights_a1():
    d = build_root_datum("A", 1)
    lam = Weight((2,))
    _, weight = _on_weyl_elements(d, lam)
    e, s1 = d.weyl.identity, d.weyl.simple[0]
    assert weight(e, e) == 0
    assert weight(s1, e) == 2
    assert weight(e, s1) == 0


def test_strong_connectivity():
    for label, rank, J in [
        ("A", 2, frozenset()),
        ("A", 2, frozenset({1})),
        ("A", 2, frozenset({2})),
        ("C", 2, frozenset()),
        ("C", 2, frozenset({1})),
        ("C", 2, frozenset({2})),
        ("G", 2, frozenset()),
        ("G", 2, frozenset({1})),
        ("G", 2, frozenset({2})),
        ("A", 3, frozenset({2, 3})),
    ]:
        g = build_qbg(build_root_datum(label, rank), J)
        assert is_strongly_connected(g)


def test_all_shortest_paths_share_their_pairing():
    cases = [
        ("A", 2, Weight((1, 1))),
        ("A", 2, Weight((1, 0))),
        ("C", 2, Weight((1, 0))),
        ("C", 2, Weight((0, 1))),
        ("G", 2, Weight((1, 1))),
    ]
    for label, rank, lam in cases:
        d = build_root_datum(label, rank)
        g = build_qbg(d, d.stabilizer(lam))
        _, weight = _on_weyl_elements(d, lam)
        for x in g.vertices:
            for y in g.vertices:
                paths = shortest_paths(g, x, y)
                assert paths, (label, x, y)
                vals = set()
                for p in paths:
                    wt = tuple(
                        sum(edge.weight[i] for edge in p) for i in range(d.rank)
                    )
                    vals.add(d.pairing(wt, lam))
                assert len(vals) == 1
                assert vals.pop() == weight(x, y)


# the cases on which the orbit graph is compared with the graph on Weyl elements
ORBIT_CASES = [
    ("A", 2, (1, 1)),
    ("A", 3, (1, 0, 1)),
    ("B", 3, (0, 1, 1)),
    ("C", 3, (1, 0, 1)),
    ("G", 2, (2, 1)),
    ("G", 2, (0, 1)),
    ("D", 4, (0, 1, 0, 0)),
    ("F", 4, (1, 0, 0, 1)),
    ("E", 6, (0, 1, 0, 0, 0, 0)),
    ("A", 5, (1, 1, 1, 1, 1)),
    ("E", 7, (1, 0, 0, 0, 0, 0, 0)),
    ("E", 8, (0, 0, 0, 0, 0, 0, 0, 1)),
]


@pytest.mark.parametrize("label,rank,coords", ORBIT_CASES)
def test_orbit_graph_is_the_weyl_graph_read_on_the_orbit(label, rank, coords):
    # x -> x(lambda) carries every edge x -> y of QB(W^J) with label alpha to
    # (y(lambda), kind, <alpha^vee, lambda>, <wt, lambda>) of the orbit graph
    d = build_root_datum(label, rank)
    lam = Weight(coords)
    g = build_qbg(d, d.stabilizer(lam))
    orbit = orbit_graph(d, lam)
    assert orbit_graph(d, lam) is orbit
    assert len(orbit.points) == len(g.vertices)
    assert orbit.pairings == tuple(sorted({d.pairing_index(k, lam) for k in g.labels}))
    for x in g.vertices:
        n = orbit.coords_index[x.act_weight(lam).coords]
        assert orbit.lengths[n] == x.length
        mapped = Counter(
            (e.target.act_weight(lam), e.kind, d.pairing_index(e.label, lam), d.pairing(e.weight, lam))
            for e in g.adjacency[x]
        )
        assert mapped == Counter((orbit.points[t], kind, p, w) for t, kind, p, w in orbit_edges(orbit, n))


@pytest.mark.parametrize(
    "label,rank,coords,code",
    [
        ("G", 2, (1, 1), "b"),
        ("F", 4, (0, 1, 0, 0), "b"),
        ("C", 4, (1, 0, 0, 1), "b"),
        ("D", 5, (1, 0, 0, 1, 1), "b"),
        ("E", 8, (0, 0, 0, 0, 0, 0, 0, 1), "b"),
        ("A", 2, (200, 1), "h"),  # <theta^vee, lambda> = 201
        ("A", 1, (2**70,), None),  # past 64 bits: a list
    ],
)
def test_permuted_rows_equal_the_dot_products(label, rank, coords, code):
    # each row is grown from its parent's by a signed permutation; here every
    # entry is a dot product, nu read off a reduced word of the vertex
    d = build_root_datum(label, rank)
    graph = OrbitGraph(d, Weight(coords))
    # from the last point down, so each row is built with its ancestors'
    rows = [graph.row(n) for n in reversed(range(len(graph.points)))][::-1]
    assert graph._rows[0] == rows
    for n, mu in enumerate(graph.points):
        nu = carried(graph, n)
        assert list(rows[n]) == [sum(map(mul, c, mu.coords)) for c in d.positive_coroots] + [
            sum(map(mul, c, nu)) for c in d.positive_coroots
        ]
        assert getattr(rows[n], "typecode", None) == code
    assert graph.pairings == tuple(sorted(set(rows[0][: len(d.positive_coroots)]) - {0}))


@pytest.mark.parametrize(
    "label,rank,coords", [("D", 4, (1, 1, 1, 1)), ("F", 4, (0, 1, 0, 0)), ("E", 7, (1, 0, 0, 0, 0, 0, 0))]
)
def test_a_search_builds_only_the_rows_of_its_vertices_and_their_ancestors(label, rank, coords):
    # a row is grown from its parent's, so a search that reaches few vertices
    # builds no row outside their chains back to lambda
    graph = OrbitGraph(build_root_datum(label, rank), Weight(coords))
    reached = set(graph.search(len(graph.points) - 1, max(graph.pairings)))
    chains = set()
    for n in reached:
        while n not in chains:
            chains.add(n)
            n = graph._grown[n - 1][0] if n else 0
    built = {n for n, row in enumerate(graph._rows[0]) if row is not None}
    assert built == chains
    assert len(built) < len(graph.points)


def _denominators(graph):
    """1 and the denominator of every break of a path of the graph's shape:
    each divisor v >= 2 of a label pairing."""
    return [1] + sorted({v for p in graph.pairings for v in range(2, p + 1) if p % v == 0})


@pytest.mark.parametrize("label,rank,coords", ORBIT_CASES)
def test_lazy_edges_give_the_reach_tables_of_an_eager_graph(label, rank, coords):
    # the eager graph builds every vertex's edges at every denominator, in
    # index order, before any search; the lazy one builds them as its
    # searches, from the last vertex, meet them, denominators in decreasing
    # order.  A vertex's edges at v are its full edges whose pairing v divides.
    d = build_root_datum(label, rank)
    lam = Weight(coords)
    eager, lazy = OrbitGraph(d, lam), OrbitGraph(d, lam)
    n = len(eager.points)
    dens = _denominators(eager)
    for v in dens:
        eager._edges[v] = [eager._out(m, v) for m in range(n)]
        for m in range(n):
            full = orbit_edges(eager, m)
            assert eager._edges[v][m] == tuple((t, w) for t, _, p, w in full if p % v == 0)
    assert not lazy._edges
    stride = -(-n // 100)  # at most 100 sources
    for v in reversed(dens):
        seen = set()
        for source in range(n - 1, -1, -stride):
            found = lazy.search(source, v)
            assert list(found.items()) == list(eager.search(source, v).items())
            seen.update(found)
        # the searches built the edges of exactly the vertices they reached,
        # and a restricted search builds no edge at v = 1
        built = lazy._edges[v]
        assert [m for m in range(n) if built[m] is not None] == sorted(seen)
        assert all(built[m] == eager._edges[v][m] for m in seen)
        assert (1 in lazy._edges) == (v == 1)


# the cases on which the restricted searches are checked against the full
# BFS with label gcds: regular, parabolic and one -w0(lambda) != lambda
GCD_CASES = [
    ("A", 3, (1, 1, 1)),
    ("C", 3, (1, 1, 1)),
    ("G", 2, (2, 1)),
    ("D", 4, (1, 0, 1, 1)),
    ("B", 3, (0, 1, 1)),
    ("A", 4, (1, 1, 0, 0)),
    ("F", 4, (0, 1, 0, 0)),
]


@pytest.mark.parametrize("label,rank,coords", GCD_CASES)
def test_restricted_searches_equal_the_gcd_reference(label, rank, coords):
    # at every denominator v, m reaches n exactly when v divides the label
    # gcd of the full BFS path, and then at that path's weight
    d = build_root_datum(label, rank)
    graph = OrbitGraph(d, Weight(coords))
    reference = orbit_reach(graph)
    n = len(graph.points)
    outcomes = set()
    for v in _denominators(graph):
        for m in range(n):
            gcds, weights = reference[m]
            for k in range(n):
                reached = gcds[k] % v == 0
                assert graph.reachable(m, k, v) == reached, (m, k, v)
                outcomes.add(reached)
                if reached:
                    assert graph.path_weight(m, k, v) == weights[k], (m, k, v)
                else:
                    with pytest.raises(InternalError, match="not reachable"):
                        graph.path_weight(m, k, v)
    assert outcomes == {False, True}


@pytest.mark.parametrize("label,rank,coords", GCD_CASES)
def test_the_unrestricted_search_reaches_every_vertex(label, rank, coords):
    # strong connectivity of the orbit graph, which the paths' reachability
    # and the energy's graph distances rest on
    d = build_root_datum(label, rank)
    graph = OrbitGraph(d, Weight(coords))
    n = len(graph.points)
    for m in range(n):
        assert sorted(graph.search(m, 1)) == list(range(n))


@pytest.mark.parametrize(
    "label,rank,coords",
    [
        ("G", 2, (2, 1)),  # regular
        ("B", 3, (0, 1, 1)),  # parabolic, J = {1}
        ("A", 3, (1, 1, 0)),  # -w0(lambda) = (0, 1, 1)
        ("E", 6, (1, 0, 0, 0, 0, 0)),  # -w0 sends omega_1 to omega_6
    ],
)
def test_orbit_tables_equal_the_weight_rules(label, rank, coords):
    d = build_root_datum(label, rank)
    lam = Weight(coords)
    graph = orbit_graph(d, lam)
    w0 = longest(d.weyl)
    dual = graph.dual
    assert dual is orbit_graph(d, -w0.act_weight(lam))
    assert (dual is graph) == (-w0.act_weight(lam) == lam)
    for j in range(d.rank + 1):
        root, sign = d.affine_root(j)
        pairings, images = graph.affine_pairings(j), graph.affine_reflections(j)
        assert len(pairings) == len(images) == len(graph.points)
        for n, mu in enumerate(graph.points):
            assert pairings[n] == sign * d.pairing_index(root, mu)
            assert graph.points[images[n]] == reflect(d, mu, root)
    for n, mu in enumerate(graph.points):
        assert dual.points[graph.negated[n]] == -mu
        assert dual.points[graph.omega_images[n]] == minus_w0(d, mu) == -w0.act_weight(mu)
    with pytest.raises(InputError, match="outside the affine index set"):
        graph.affine_pairings(d.rank + 1)
    with pytest.raises(InputError, match="outside the affine index set"):
        graph.affine_reflections(-1)


def test_a_straight_path_builds_no_edge():
    d = build_root_datum("D", 4)
    straight_path(d, d.rho)
    qls_path(d, d.rho, [longest(d.weyl).reduced_word()], (0, 1))
    graph = orbit_graph(d, d.rho)
    assert len(graph.points) == 192 and not graph._edges


@pytest.mark.parametrize("label,rank,coords", ORBIT_CASES)
def test_words_read_off_the_weight_are_the_reduced_words(label, rank, coords):
    d = build_root_datum(label, rank)
    lam = Weight(coords)
    # both rules read words off weights, so both are checked against the
    # walk on the element itself
    for x in coset_reps(d.weyl, d.stabilizer(lam)):
        eta = qls_path(d, lam, [x.act_weight(lam)], (0, 1))
        word = left_descent_word(x)
        assert eta.words == (word,) and x.reduced_word() == word
        assert repr(eta) == f"({x!r}; 0, 1)"


def _tilde_pairing(d, j, mu):
    # <alpha-tilde_j^vee, mu>: simple coroot for j >= 1, -theta^vee at j = 0
    if j == 0:
        return -d.pairing(d.positive_coroots[d.theta], mu)
    return mu.coords[j - 1]


def _s_j(d, j):
    return d.weyl.reflection(d.theta if j == 0 else d.simple_root_index[j - 1])


def test_weight_recursions_under_affine_reflections():
    # the three exhaustive identities relating wt(. => .) before and after s_j
    cases = [
        ("A", 2, Weight((1, 0))),
        ("A", 2, Weight((1, 1))),
        ("C", 2, Weight((0, 1))),
        ("C", 2, Weight((2, 1))),
    ]
    for label, rank, lam in cases:
        d = build_root_datum(label, rank)
        J = d.stabilizer(lam)
        g = build_qbg(d, J)
        _, weight = _on_weyl_elements(d, lam)
        proj = lambda w: min_coset_rep(d.weyl, w, J)
        for j in range(0, d.rank + 1):
            s = _s_j(d, j)
            delta = 1 if j == 0 else 0
            for w1 in g.vertices:
                p1 = _tilde_pairing(d, j, w1.act_weight(lam))
                for w2 in g.vertices:
                    p2 = _tilde_pairing(d, j, w2.act_weight(lam))
                    base = weight(w1, w2)
                    if p1 > 0 and p2 <= 0:
                        assert (
                            weight(proj(s * w1), w2)
                            == base - delta * p1
                        )
                    if p1 < 0 and p2 < 0:
                        assert (
                            weight(proj(s * w1), proj(s * w2))
                            == base - delta * p1 + delta * p2
                        )
                    if p1 >= 0 and p2 < 0:
                        assert (
                            weight(w1, proj(s * w2))
                            == base + delta * p2
                        )


def test_edge_projection_lemma():
    # every restricted full-graph edge projects to a restricted parabolic path
    # whose weight agrees modulo the parabolic coroot lattice
    cases = [
        ("A", 2, Weight((1, 0)), Fraction(1, 2)),
        ("A", 2, Weight((1, 0)), Fraction(1)),
        ("C", 2, Weight((0, 1)), Fraction(1, 2)),
        ("C", 2, Weight((1, 0)), Fraction(1, 2)),
    ]
    for label, rank, lam, b in cases:
        d = build_root_datum(label, rank)
        J = d.stabilizer(lam)
        free = [i for i in range(d.rank) if (i + 1) not in J]
        full = _restricted(build_qbg(d), b, lam)
        para = _restricted(build_qbg(d, J), b, lam)
        proj = lambda w: min_coset_rep(d.weyl, w, J)
        for edge in (e for edges in full.values() for e in edges):
            src, dst = proj(edge.source), proj(edge.target)
            want = tuple(edge.weight[i] for i in free)
            assert _reachable_with_weight(para, src, dst, want, free), (label, edge)


def _reachable_with_weight(adjacency, src, dst, want, free, cap=8):
    seen = set()
    stack = [(src, (0,) * len(free), 0)]
    while stack:
        w, acc, depth = stack.pop()
        if w == dst and acc == want:
            return True
        if depth >= cap or (w, acc, depth) in seen:
            continue
        seen.add((w, acc, depth))
        for e in adjacency[w]:
            nxt = tuple(a + e.weight[i] for a, i in zip(acc, free))
            stack.append((e.target, nxt, depth + 1))
    return False


def test_restricted_paths_pass_to_shortest_ones():
    # if some restricted path joins v to w, every full-graph shortest path
    # between them stays inside the restricted graph
    cases = [
        ("A", 2, Weight((1, 1)), Fraction(1, 2)),
        ("C", 2, Weight((1, 1)), Fraction(1, 2)),
        ("C", 2, Weight((1, 1)), Fraction(1, 3)),
    ]
    for label, rank, lam, b in cases:
        d = build_root_datum(label, rank)
        full = build_qbg(d)
        restricted = _restricted(full, b, lam)
        allowed = {
            (e.source, e.target, e.label) for edges in restricted.values() for e in edges
        }
        reach = {(v, u) for v in full.vertices for u in _reach(restricted, v)}
        for v, w in reach:
            if v == w:
                continue
            for p in shortest_paths(full, v, w):
                assert all((e.source, e.target, e.label) in allowed for e in p)


def test_reflection_ordering_a2_regular():
    d = build_root_datum("A", 2)
    # which end of the order holds a1 depends on the node order
    order = reflection_ordering(d, frozenset(), lex_chain(d, d.rho))
    assert [d.root_name(k) for k in order] == ["a2", "a1+a2", "a1"]
    flipped = reflection_ordering(d, frozenset(), lex_chain(d, d.rho, (2, 1)))
    assert [d.root_name(k) for k in flipped] == ["a1", "a1+a2", "a2"]


def test_reflection_ordering_a1():
    d = build_root_datum("A", 1)
    chain = lex_chain(d, Weight((1,)))
    assert reflection_ordering(d, frozenset(), chain) == (0,)


def test_reflection_ordering_a2_parabolic():
    d = build_root_datum("A", 2)
    lam = Weight((1, 0))
    chain = lex_chain(d, lam)
    order = reflection_ordering(d, frozenset({2}), chain)
    names = [d.root_name(k) for k in order]
    assert names == ["a1", "a1+a2", "a2"]


def test_reflection_ordering_c2():
    d = build_root_datum("C", 2)
    lam = Weight((1, 0))
    chain = lex_chain(d, lam)
    order = reflection_ordering(d, frozenset({2}), chain)
    names = [d.root_name(k) for k in order]
    assert names == ["a1", "2a1+a2", "a1+a2", "a2"]


def test_reflection_ordering_g2_builds():
    d = build_root_datum("G", 2)
    for lam in [Weight((1, 0)), Weight((0, 1)), Weight((1, 1))]:
        # internal interleaving verification runs at this rank
        reflection_ordering(d, d.stabilizer(lam), lex_chain(d, lam))


def increasing_path(graph, v, w, order):
    """The unique label-increasing path from v to w in QB(W)."""
    found = increasing_paths_from(graph, v, frozenset({w}), order)
    assert len(found) == 1
    return found[0]


def test_increasing_path_trivial_cases():
    d = build_root_datum("A", 1)
    g = build_qbg(d)
    order = reflection_ordering(d, frozenset(), lex_chain(d, Weight((1,))))
    e, s1 = d.weyl.identity, d.weyl.simple[0]
    assert increasing_path(g, e, e, order) == ()
    path = increasing_path(g, e, s1, order)
    assert len(path) == 1 and path[0].kind == BRUHAT


def test_increasing_path_unique_and_shortest():
    for label in ["A", "C", "G"]:
        d = build_root_datum(label, 2)
        g = build_qbg(d)
        order = reflection_ordering(d, frozenset(), lex_chain(d, d.rho))
        for v in g.vertices:
            for w in g.vertices:
                path = increasing_path(g, v, w, order)
                assert len(path) == distance(g, v, w)


def test_tilted_minimum_trivial():
    d = build_root_datum("A", 1)
    g = build_qbg(d)
    order = reflection_ordering(d, frozenset(), lex_chain(d, Weight((1,))))
    s1 = d.weyl.simple[0]
    end, path = tilted_minimum(g, s1, d.weyl.identity, frozenset(), order)
    assert end == d.weyl.identity and len(path) == 1


def test_tilted_minimum_matches_distance_oracle():
    cases = [("A", 2, frozenset({2}), Weight((1, 0))), ("C", 2, frozenset({2}), Weight((1, 0))), ("C", 2, frozenset({1}), Weight((0, 1)))]
    for label, rank, J, lam in cases:
        d = build_root_datum(label, rank)
        g = build_qbg(d)
        order = reflection_ordering(d, J, lex_chain(d, lam))
        reps = coset_reps(d.weyl, J)
        full = coset_reps(d.weyl, frozenset())
        parabolic = [w for w in full if min_coset_rep(d.weyl, w, J) == d.weyl.identity]
        for v in full:
            for rep in reps:
                end, path = tilted_minimum(g, v, rep, J, order)
                coset = [rep * u for u in parabolic]
                dists = {x: distance(g, v, x) for x in coset}
                best = min(dists.values())
                argmin = [x for x, dv in dists.items() if dv == best]
                assert len(argmin) == 1  # the minimizer is unique
                assert end == argmin[0]
                if v in coset:
                    assert end == v and path == ()


def test_tilted_minimum_a2_oracle_example():
    # coset {s2, s2*s1} = s2 W_{{1}}; distances from e are 1 and 2
    d = build_root_datum("A", 2)
    g = build_qbg(d)
    lam = Weight((0, 1))
    order = reflection_ordering(d, frozenset({1}), lex_chain(d, lam))
    s1, s2 = d.weyl.simple
    assert distance(g, d.weyl.identity, s2) == 1
    assert distance(g, d.weyl.identity, s2 * s1) == 2
    end, _ = tilted_minimum(g, d.weyl.identity, s2, frozenset({1}), order)
    assert end == s2

