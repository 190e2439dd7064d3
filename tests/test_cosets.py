"""Double cosets and the interaction graph."""

import dataclasses
import io
import random

import numpy as np
import pytest

from coxhecke import (CapacityError, CoxeterSystem, DomainError,
                      DoubleCosetInfo, Element, InputError, InfinitePair,
                      LEFT, LaurentPoly, P_SYMBOL,
                      RIGHT, brute_force_min_rep, build_gamma_ball,
                      check_symbol_commutation, double_coset_symbol_check,
                      gamma_neighbors, shortest_rep,
                      verify_component_structure)
from coxhecke.cosets import (ComponentReport, _component_report,
                             coset_elements, coset_nondegenerate,
                             dihedral_words, edge_generators)
from coxhecke.verify import random_system, suite_cosets

from conftest import oracle_symbol_commutation


def test_infinite_pair_validation(free3, z2xz2):
    pair = InfinitePair.of(free3, "s", "t")
    assert (pair.s, pair.t) == (0, 1)
    with pytest.raises(InputError):
        InfinitePair.of(free3, "s", "s")
    with pytest.raises(InputError):
        InfinitePair.of(z2xz2, "s", "t")


def test_dihedral_words():
    sys = CoxeterSystem("st")
    pair = InfinitePair.of(sys, "s", "t")
    words = list(dihedral_words(pair, 3))
    assert len(words) == 7
    assert () in words and (0, 1, 0) in words and (1, 0, 1) in words


def test_shortest_rep_examples(free3, z2sq_z2):
    pair = InfinitePair.of(free3, "s", "t")
    info = shortest_rep(free3, pair, free3.element("sts"))
    assert info.w0.is_identity and not info.nondegenerate
    info = shortest_rep(free3, pair, free3.element("u"))
    assert str(info.w0) == "u" and info.nondegenerate
    assert not info.commutes_s and not info.commutes_t
    pair2 = InfinitePair.of(z2sq_z2, "s", "t")
    info = shortest_rep(z2sq_z2, pair2, z2sq_z2.element("s"))
    assert info.w0.is_identity and not info.nondegenerate


def test_coset_functions_reject_foreign_pair(free3, pentagon):
    """free3's pair (s, t) names generators 0 and 1, which are p and q in
    the pentagon, where they commute; the pentagon refuses the pair."""
    foreign = InfinitePair.of(free3, 0, 1)
    r = pentagon.element("r")
    xi = {w: LaurentPoly.u_power(len(w)) for w in pentagon.ball(3)}
    with pytest.raises(InputError, match="different Coxeter system"):
        shortest_rep(pentagon, foreign, r)
    with pytest.raises(InputError, match="different Coxeter system"):
        brute_force_min_rep(pentagon, foreign, r, 3)
    with pytest.raises(InputError, match="different Coxeter system"):
        double_coset_symbol_check(pentagon, foreign, r, xi)
    info = DoubleCosetInfo(foreign, r, commutes_s=False, commutes_t=False)
    with pytest.raises(InputError, match="different Coxeter system"):
        coset_elements(pentagon, info, 3)


def test_shortest_rep_has_no_boundary_descents(named_systems):
    for sys in named_systems.values():
        pair = InfinitePair.of(sys, 0, next(
            t for t in range(1, sys.n) if not sys.commutes(0, t)))
        for w in sys.ball(4):
            w0 = shortest_rep(sys, pair, w).w0
            boundary = {pair.s, pair.t}
            assert not (sys.left_descents(w0) & boundary)
            assert not (sys.right_descents(w0) & boundary)


def test_shortest_rep_matches_brute_force(named_systems):
    for sys in named_systems.values():
        pair = InfinitePair.of(sys, 0, next(
            t for t in range(1, sys.n) if not sys.commutes(0, t)))
        for w in sys.ball(4):
            greedy = shortest_rep(sys, pair, w).w0
            oracle = brute_force_min_rep(sys, pair, w, bound=len(w) + 2)
            assert greedy == oracle


def test_brute_force_bound_validation(free3):
    pair = InfinitePair.of(free3, "s", "t")
    with pytest.raises(InputError):
        brute_force_min_rep(free3, pair, free3.element("u"), bound=1)


def test_brute_force_capacity_names_count_and_cap(free3):
    """Bound 708 asks for 1417^2 = 2,007,889 products, past the cap of
    2,000,000: the error names both numbers."""
    pair = InfinitePair.of(free3, "s", "t")
    with pytest.raises(CapacityError) as info:
        brute_force_min_rep(free3, pair, free3.element("u"), bound=708)
    assert str(info.value) == ("would enumerate 2007889 products, more than "
                               "the cap of 2000000")


def test_nondegeneracy_is_coset_invariant(free3, z2sq_z2):
    rng = random.Random(2)
    for sys in (free3, z2sq_z2):
        pair = InfinitePair.of(sys, "s", "t")
        for w in rng.sample(sys.ball(3), 10):
            info = shortest_rep(sys, pair, w)
            for v in coset_elements(sys, info, radius=len(info.w0) + 3):
                assert shortest_rep(sys, pair, v).w0 == info.w0


def enumerated_coset_elements(sys, info, radius):
    """The dihedral-product enumeration that coset_elements used before
    the generator walk, kept as its oracle: every d w0 d' with |d|, |d'|
    up to the room the radius leaves beyond w0."""
    out = set()
    w0 = info.w0
    room = radius - len(w0)
    if room < 0:
        return out
    for d in dihedral_words(info.pair, room):
        dw = sys.multiply(sys.normalize(d), w0)
        if len(dw) > radius:
            continue
        for d2 in dihedral_words(info.pair, room):
            cand = sys.multiply(dw, sys.normalize(d2))
            if len(cand) <= radius:
                out.add(cand)
    return out


def infinite_pairs(sys):
    return [InfinitePair(sys, s, t) for s in range(sys.n)
            for t in range(sys.n) if s != t and not sys.commutes(s, t)]


def assert_walk_matches_enumeration(sys, pair, elements):
    """Radii below |w0|, equal to it and up to |w0| + 4."""
    for w in elements:
        info = shortest_rep(sys, pair, w)
        for radius in range(len(info.w0) - 1, len(info.w0) + 5):
            assert coset_elements(sys, info, radius) == \
                enumerated_coset_elements(sys, info, radius), \
                (w, pair.s, pair.t, radius)


def test_coset_walk_matches_enumeration(named_systems):
    for sys in named_systems.values():
        for pair in infinite_pairs(sys):
            assert_walk_matches_enumeration(sys, pair, sys.ball(2))
    rng = random.Random(2019)
    drawn = 0
    while drawn < 60:
        sys = random_system(rng)
        pairs = infinite_pairs(sys)
        if not pairs:
            continue
        ball = sys.ball(3)
        for pair in rng.sample(pairs, min(2, len(pairs))):
            assert_walk_matches_enumeration(
                sys, pair, rng.sample(ball, min(4, len(ball))))
        drawn += 1


def test_symbol_and_coset_checks_call_no_mult_gen(monkeypatch,
                                                  named_systems):
    """The symbol check, the coset walk and the radial coset check step on
    canonical words: with mult_gen unusable they give the oracles' answers."""
    rng = random.Random(6)
    cases = []
    for sys in named_systems.values():
        ball = sys.ball(6)
        xi = {w: LaurentPoly.u_power(len(w)) * (2 if rng.random() < 0.05 else 1)
              for w in ball}
        symbol = [oracle_symbol_commutation(sys, s, xi, P_SYMBOL)
                  for s in range(sys.n)]
        cosets = []
        for pair in infinite_pairs(sys):
            for v in rng.sample([w for w in ball if len(w) <= 4], 3):
                info = shortest_rep(sys, pair, v)
                elements = enumerated_coset_elements(sys, info, 6)
                base = xi[info.w0]
                radial = sorted(
                    (x for x in elements if xi[x] != base * LaurentPoly.u_power(
                        len(x) - len(info.w0))), key=Element.sort_key)
                cosets.append((pair, v, info, elements,
                               radial if info.nondegenerate else None))
        cases.append((sys, xi, symbol, cosets))

    def no_mult_gen(*args):
        raise AssertionError("mult_gen called")

    monkeypatch.setattr(CoxeterSystem, "mult_gen", no_mult_gen)
    found = [0, 0]
    for sys, xi, symbol, cosets in cases:
        assert [check_symbol_commutation(sys, s, xi, P_SYMBOL)
                for s in range(sys.n)] == symbol
        found[0] += sum(map(bool, symbol))
        for pair, v, info, elements, radial in cosets:
            assert coset_elements(sys, info, 6) == elements
            if radial is not None:
                assert double_coset_symbol_check(sys, pair, v, xi) == radial
                found[1] += bool(radial)
    assert all(found)


def test_gamma_neighbors(free3, z2sq_z2):
    assert gamma_neighbors(free3, free3.identity) == set()
    nb = {str(x) for x in gamma_neighbors(free3, free3.element("u"))}
    assert {"u.s", "s.u", "u.t", "t.u"} <= nb
    # the generator of the Z2 free factor is isolated
    assert gamma_neighbors(z2sq_z2, z2sq_z2.element("s")) == set()


def test_partial_support_dichotomy(named_systems):
    """A nontrivial element with partial support is either the lone free
    factor generator of a Z2 * Z2^k shape or has edges through some
    generator outside its support."""
    for sys in named_systems.values():
        z2gen = sys.free_z2_factor_generator()
        for w in sys.ball(4):
            if w.is_identity or sys.support(w) == frozenset(range(sys.n)):
                continue
            if z2gen is not None and w.word == (z2gen,):
                assert gamma_neighbors(sys, w) == set()
                continue
            outside = set(range(sys.n)) - sys.support(w)
            from coxhecke.cosets import edge_generators
            assert set(edge_generators(sys, w)) & outside


def test_build_gamma_ball_radius_zero(free3):
    g = build_gamma_ball(free3, 0)
    assert len(g.vertices) == 1 and not g.edges and g.n_components == 1


def test_gamma_ball_structure(free3):
    g = build_gamma_ball(free3, 4)
    # identity isolated; every other vertex of length <= 2 in one component
    assert [str(v) for v in g.isolated_vertices()] == ["e"]
    labels = {w: g.component_label[i] for i, w in enumerate(g.vertices)}
    core_labels = {labels[w] for w in g.vertices
                   if 0 < len(w) <= 2}
    assert len(core_labels) == 1


def test_gamma_edges_symmetric_under_rescan(z2sq_z2):
    g = build_gamma_ball(z2sq_z2, 4)
    index = {w: i for i, w in enumerate(g.vertices)}
    for i, j in g.edges:
        v, w = g.vertices[i], g.vertices[j]
        assert w in gamma_neighbors(z2sq_z2, v) or \
            v in gamma_neighbors(z2sq_z2, w)
        # undirected reading: each edge is shared by both endpoints' scans
        touched_from_v = {index.get(x) for x in gamma_neighbors(z2sq_z2, v)}
        touched_from_w = {index.get(x) for x in gamma_neighbors(z2sq_z2, w)}
        assert j in touched_from_v or i in touched_from_w


def test_component_structure_reports(free3, z2sq_z2, pentagon):
    rep = verify_component_structure(free3, 6, 2)
    assert rep.passed
    assert [str(w) for w in rep.exceptional] == ["e"]
    rep = verify_component_structure(z2sq_z2, 6, 2)
    assert rep.passed
    assert [str(w) for w in rep.exceptional] == ["e", "s"]
    rep = verify_component_structure(pentagon, 5, 2)
    assert rep.passed
    assert [str(w) for w in rep.exceptional] == ["e"]
    assert "pass" in rep.summary()


def test_component_structure_domain_errors(dihedral, z2xz2):
    with pytest.raises(DomainError):
        verify_component_structure(dihedral, 5)
    with pytest.raises(DomainError):
        verify_component_structure(z2xz2, 5)


def test_edge_list_export(free3):
    g = build_gamma_ball(free3, 2)
    buf = io.StringIO()
    g.write_edge_list(buf)
    lines = buf.getvalue().strip().splitlines()
    assert len(lines) == len(g.edges)
    for line in lines:
        u, v = line.split(" ")
        assert u != v


def assert_support_rule_matches_shortest_rep(sys, radius):
    pairs = infinite_pairs(sys)
    for w in sys.ball(radius):
        for pair in pairs:
            assert coset_nondegenerate(pair, w) == \
                shortest_rep(sys, pair, w).nondegenerate, (w, pair.s, pair.t)


def test_support_rule_matches_shortest_rep(named_systems):
    for sys in named_systems.values():
        assert_support_rule_matches_shortest_rep(sys, 4)
    rng = random.Random(2017)
    for _ in range(60):
        sys = random_system(rng)
        assert_support_rule_matches_shortest_rep(sys, 3)


def gamma_by_shortest_rep(sys, radius):
    """Edges and component labels of the ball-restricted graph, built from
    shortest_rep and mult_gen with a breadth-first labelling."""
    ball = sys.ball(radius)
    index = {w: i for i, w in enumerate(ball)}
    edges = set()
    for i, w in enumerate(ball):
        for s in range(sys.n):
            if not any(shortest_rep(sys, InfinitePair(sys, s, t), w)
                       .nondegenerate for t in range(sys.n)
                       if t != s and not sys.commutes(s, t)):
                continue
            for side in (LEFT, RIGHT):
                j = index.get(sys.mult_gen(w, s, side)[0])
                if j is not None:
                    edges.add((min(i, j), max(i, j)))
    nbrs = {i: [] for i in range(len(ball))}
    for i, j in edges:
        nbrs[i].append(j)
        nbrs[j].append(i)
    labels = [None] * len(ball)
    count = 0
    for start in range(len(ball)):
        if labels[start] is None:
            labels[start] = count
            queue = [start]
            for v in queue:
                for u in nbrs[v]:
                    if labels[u] is None:
                        labels[u] = count
                        queue.append(u)
            count += 1
    return edges, tuple(labels)


def test_gamma_ball_matches_shortest_rep_oracle(named_systems):
    cases = [(sys, 4) for sys in named_systems.values()]
    rng = random.Random(2018)
    cases += [(random_system(rng), 3) for _ in range(20)]
    for sys, radius in cases:
        g = build_gamma_ball(sys, radius)
        assert g.vertices == tuple(sys.ball(radius))
        assert (set(g.edges), g.component_label) == \
            gamma_by_shortest_rep(sys, radius)


def test_gamma_vertex_index(z2sq_z2):
    g = build_gamma_ball(z2sq_z2, 4)
    for i, w in enumerate(g.vertices):
        assert g.index(w) == i
        assert g.component_of(w) == g.component_label[i]
    with pytest.raises(ValueError):
        g.index(z2sq_z2.element("s t s t s"))


def test_gamma_index_follows_the_right_table(named_systems):
    """index(w) is the row w's letters reach by right steps from the
    identity's row: every vertex of the named systems at radius 0-6 and of
    20 seeded graphs at radius 4."""
    cases = [(sys, r) for sys in named_systems.values() for r in range(7)]
    rng = random.Random(36)
    cases += [(random_system(rng), 4) for _ in range(20)]
    for sys, radius in cases:
        g = build_gamma_ball(sys, radius)
        for i, w in enumerate(sys.ball(radius)):
            assert g.index(w) == i
        assert "vertices" not in g.__dict__     # spelled only when read


def test_gamma_index_refuses_outside_and_foreign_elements(named_systems,
                                                          free3):
    for sys in named_systems.values():
        g = build_gamma_ball(sys, 3)
        for w in sys.ball(5)[len(sys.ball(3)):]:
            with pytest.raises(ValueError, match="not a vertex"):
                g.index(w)
    g = build_gamma_ball(free3, 3)
    twin = CoxeterSystem(free3.names)           # same words, another system
    wide = CoxeterSystem([f"g{i}" for i in range(9)])
    for w in (twin.identity, twin.element([0, 1]), wide.element([8])):
        with pytest.raises(ValueError, match="not a vertex"):
            g.index(w)


def test_verify_suite_checks_support_rule():
    for seed in (0, 1):
        result = suite_cosets(seed)
        assert result.passed and "support rule" in result.detail


def test_edge_generators_match_their_definition(named_systems):
    """s is an edge generator of w iff some t with m(s,t) = infinity makes
    DwD non-degenerate: one edge cover per generator decides the same."""
    systems = list(named_systems.values())
    rng = random.Random(2025)
    systems += [random_system(rng, 9) for _ in range(60)]
    for sys in systems:
        for w in sys.ball(3):
            assert edge_generators(sys, w) == [
                s for s in range(sys.n)
                if any(coset_nondegenerate(InfinitePair(sys, s, t), w)
                       for t in range(sys.n)
                       if t != s and not sys.commutes(s, t))], w


class _UnreadEdges(frozenset):
    def __iter__(self):
        raise AssertionError("the edge set was iterated")


def test_isolation_read_from_component_labels(named_systems):
    """The graph has no loops, so isolated vertices are the singleton
    components: the report and isolated_vertices never read the edges."""
    for sys in named_systems.values():
        g = build_gamma_ball(sys, 5)
        ends = {i for edge in g.edges for i in edge}
        isolated = [v for i, v in enumerate(g.vertices) if i not in ends]
        unread = dataclasses.replace(g, edges=_UnreadEdges(g.edges))
        assert unread.isolated_vertices() == isolated
        for slack in (0, 1, 2, 5):
            assert _component_report(unread, slack) == \
                _component_report(g, slack)
        rep = _component_report(unread, 2)
        assert rep.big_component_size == max(
            map(len, g.components()))


def oracle_component_report(graph, slack):
    """_component_report as it found its core before it bisected the ball
    order, by testing every vertex's length; kept as its oracle."""
    system, radius = graph.system, graph.radius
    exceptional = [system.identity]
    z2gen = system.free_z2_factor_generator()
    if z2gen is not None:
        exceptional.append(system.element([z2gen]))
    inside = [w for w in exceptional if len(w) <= radius]
    special = [graph.index(w) for w in inside]
    labels = graph.component_label
    sizes = np.bincount(labels)
    core = [i for i, w in enumerate(graph.vertices)
            if len(w) <= radius - slack and i not in special]
    big_label = labels[core[0]] if core else None
    failures = [graph.vertices[i] for i in core if labels[i] != big_label]
    failures += [w for w, i in zip(inside, special) if sizes[labels[i]] > 1]
    return ComponentReport(
        radius=radius, slack=slack, passed=not failures,
        exceptional=tuple(exceptional), n_components=graph.n_components,
        big_component_size=int(sizes[big_label]) if core else 0,
        core_size=len(core), failures=tuple(failures))


def test_component_report_matches_length_scan_oracle(named_systems):
    for sys in named_systems.values():
        for radius in range(9):
            graph = build_gamma_ball(sys, radius)
            for slack in range(6):
                assert _component_report(graph, slack) == \
                    oracle_component_report(graph, slack)


def test_shortest_rep_steps_without_descent_sets(named_systems, monkeypatch):
    """shortest_rep walks down by steps and builds no descent set."""
    cases = []
    for sys in named_systems.values():
        for s in range(sys.n):
            for t in range(s + 1, sys.n):
                if not sys.commutes(s, t):
                    pair = InfinitePair(sys, s, t)
                    cases += [(sys, pair, w, brute_force_min_rep(
                        sys, pair, w, bound=len(w) + 2)) for w in sys.ball(3)]

    def refuse(self, a):
        raise AssertionError("descent set built")

    monkeypatch.setattr(CoxeterSystem, "left_descents", refuse)
    monkeypatch.setattr(CoxeterSystem, "right_descents", refuse)
    for sys, pair, w, oracle in cases:
        assert shortest_rep(sys, pair, w).w0 == oracle, (w, pair.s, pair.t)


def test_component_structure_rejects_negative_slack(free3):
    """A negative slack is refused before any ball is built, whatever the
    radius."""
    with pytest.raises(InputError, match="slack must be nonnegative"):
        verify_component_structure(free3, 4, -1)
    with pytest.raises(InputError, match="slack must be nonnegative"):
        verify_component_structure(free3, 10**6, -1)
