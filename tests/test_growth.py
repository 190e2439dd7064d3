"""Growth series, convergence radius, classification, radial symbol."""

import json
import math
import random
import tracemalloc
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from coxhecke import (LEFT, RIGHT, CapacityError, ConsistencyError,
                      CoxeterSystem, DomainError, Element, InfinitePair,
                      InputError, LaurentPoly, P_SYMBOL, PreconditionError,
                      check_symbol_commutation, classify, coset_recurrence,
                      double_coset_symbol_check, growth_series, rho, rho_info,
                      shortest_rep, t_basis, verify_central_projection,
                      zeta_symbol)
from coxhecke import coxeter, growth
from coxhecke.cli import main
from coxhecke.growth import (RationalSeries, _clique_polynomial, _locate_root,
                             component_rhos)
from coxhecke.laurent import (_has_root_up_to, _poly_add, _poly_mul,
                              _poly_trim, _sturm_chain, float_q)
from coxhecke.verify import named_systems, random_system, suite_growth

from conftest import (oracle_classify, oracle_double_coset_check,
                      oracle_symbol_commutation)

GOLDEN = (1 + math.sqrt(5)) / 2


# -- growth series ------------------------------------------------------------------

def test_growth_series_closed_forms(free3, z2sq_z2, pentagon):
    assert growth_series(CoxeterSystem("s")).numerator == (1, 1)
    g = growth_series(free3)
    assert (g.numerator, g.denominator) == ((1, 1), (1, -2))
    g = growth_series(z2sq_z2)
    assert (g.numerator, g.denominator) == ((1, 2, 1), (1, -1, -1))
    g = growth_series(pentagon)
    assert (g.numerator, g.denominator) == ((1, 2, 1), (1, -3, 1))
    g = growth_series(CoxeterSystem("st", [("s", "t")]))
    assert (g.numerator, g.denominator) == ((1, 2, 1), (1,))
    # a free product of n involutions: (1+t)/(1-(n-1)t); Z2^n: (1+t)^n,
    # up to the constructor's 62 generators (Z2^62 has 2^62 cliques)
    for n in (*range(2, 9), 62):
        names = [f"g{i}" for i in range(n)]
        g = growth_series(CoxeterSystem(names))
        assert (g.numerator, g.denominator) == ((1, 1), (1, -(n - 1)))
        every_pair = [(a, b) for i, a in enumerate(names) for b in names[i + 1:]]
        g = growth_series(CoxeterSystem(names, every_pair))
        binomial = tuple(math.comb(n, i) for i in range(n + 1))
        assert (g.numerator, g.denominator) == (binomial, (1,))


def test_growth_series_taylor_matches_enumeration(named_systems):
    for sys in named_systems.values():
        series = growth_series(sys)
        assert series.taylor(12) == sys.sphere_counts(12)


def test_growth_series_taylor_past_validation_depth():
    """The closed form against the automaton to depth 24, twice the depth
    that construction checks, on the named systems and 40 seeded graphs."""
    rng = random.Random(38)
    systems = [*named_systems().values(),
               *(random_system(rng) for _ in range(40))]
    for sys in systems:
        assert growth_series(sys).taylor(24) == sys.sphere_counts(24, math.inf)


def test_growth_series_checked_to_depth_12_beyond_ball_cap(monkeypatch):
    """The free product of 6 involutions has 6 * 5^11 elements of length
    12, far beyond the ball cap; its series is still checked to depth 12,
    so a sphere count corrupted at depth 12 alone aborts the build."""
    series = growth_series(CoxeterSystem("pqrstu"))
    assert (series.numerator, series.denominator) == ((1, 1), (1, -5))
    assert series.taylor(12)[12] == 6 * 5 ** 11
    sizes = CoxeterSystem.sphere_counts

    def corrupted(self, n, max_total=coxeter.DEFAULT_MAX_BALL):
        counts = sizes(self, n, max_total)
        counts[12] += 1
        return counts

    monkeypatch.setattr(CoxeterSystem, "sphere_counts", corrupted)
    with pytest.raises(ConsistencyError):
        growth_series(CoxeterSystem("pqrstu"))


def test_growth_series_counts_before_its_cliques(monkeypatch):
    """A count that raises ends the build before the clique polynomial,
    which is costly on dense graphs, is computed."""
    cliques = []

    def refused(self, n, max_total=coxeter.DEFAULT_MAX_BALL):
        raise CapacityError("sphere automaton level 8 has too many states")

    def counted(system):
        cliques.append(system)
        return _clique_polynomial(system)

    monkeypatch.setattr(CoxeterSystem, "sphere_counts", refused)
    monkeypatch.setattr(growth, "_clique_polynomial", counted)
    with pytest.raises(CapacityError, match="level 8"):
        growth_series(CoxeterSystem("pqrstu"))
    assert cliques == []


def test_verify_growth_suite_covers_random_graphs():
    for seed in (0, 1):
        result = suite_growth(seed)
        assert result.passed and "20 random graphs" in result.detail


def test_growth_series_str(free3, pentagon):
    assert str(growth_series(free3)) == "(1 + t) / (1 - 2*t)"
    assert str(growth_series(pentagon)) == "(1 + 2*t + t^2) / (1 - 3*t + t^2)"


def test_growth_series_lowest_terms_on_random_graphs():
    """The reduced series is (1+t)^m / P with P(0) = 1, and P(-1) = 0 only
    when the whole numerator has cancelled (m = 0)."""
    rng = random.Random(11)
    for _ in range(60):
        sys = random_system(rng, 9)
        series = growth_series(sys)
        m = len(series.numerator) - 1
        assert series.numerator == tuple(math.comb(m, i) for i in range(m + 1))
        assert series.denominator[0] == 1
        at_minus_one = sum(c * (-1) ** i
                           for i, c in enumerate(series.denominator))
        assert at_minus_one != 0 or m == 0, sys
        assert m == len(_poly_trim(enumerated_clique_counts(sys))) - 1, sys


def power_table_series(system):
    """Numerator and denominator as the growth series was built before
    its Horner loop, kept as an oracle: a table of (1 + t)^k, and Q as the
    sum of the terms c_k (-t)^k (1 + t)^(omega - k)."""
    cliques = _clique_polynomial(system)
    omega = len(cliques) - 1
    powers = [[1]]
    for _ in range(omega):
        powers.append(_poly_mul(powers[-1], [1, 1]))
    den = []
    for k, c in enumerate(cliques):
        term = [(-1) ** k * c * x for x in powers[omega - k]]
        den = _poly_add(den, [0] * k + term)
    return tuple(powers[omega]), tuple(den)


def test_growth_series_matches_power_table_oracle(named_systems):
    rng = random.Random(34)
    systems = list(named_systems.values())
    systems += [random_system(rng, 9) for _ in range(200)]
    for sys in systems:
        series = growth_series(sys)
        assert (series.numerator, series.denominator) == \
            power_table_series(sys), sys


def enumerated_clique_counts(system):
    """Clique counts by visiting every clique of the commutation graph
    (the empty one included), as the growth series was built before the
    independence-polynomial recursion; kept as an oracle.  Entries past
    the clique number are zero."""
    n = system.n
    counts = [0] * (n + 1)

    def rec(size: int, allowed: int, start: int):
        counts[size] += 1
        m = allowed & ~((1 << start) - 1) if start else allowed
        while m:
            low = m & -m
            v = low.bit_length() - 1
            m ^= low
            rec(size + 1, allowed & system._comm[v], v + 1)

    rec(0, (1 << n) - 1, 0)
    return counts


def dense_system(rng, n, tree_size=6):
    """Every pair commutes except along a random tree on ``tree_size``
    generators: one irreducible component plus n - tree_size Z2 factors."""
    tree = rng.sample(range(n), tree_size)
    apart = set()
    for k in range(1, tree_size):
        a, b = tree[k], tree[rng.randrange(k)]
        apart.add((min(a, b), max(a, b)))
    names = [f"g{i}" for i in range(n)]
    return CoxeterSystem(names, [(names[i], names[j]) for i in range(n)
                                 for j in range(i + 1, n)
                                 if (i, j) not in apart])


def test_clique_polynomial_matches_enumeration():
    rng = random.Random(29)
    systems = [random_system(rng, 12) for _ in range(60)]
    systems += [dense_system(rng, n) for n in (18, 18, 20, 20)]
    for sys in systems:
        assert _clique_polynomial(sys) == \
            _poly_trim(enumerated_clique_counts(sys)), sys.names


def test_growth_series_multiplies_over_components():
    """A reducible 60-generator graph at commuting density 0.97: the series
    is the product of its components' series, already in lowest terms."""
    rng = random.Random(7)
    names = [f"g{i}" for i in range(60)]
    while True:
        sys = CoxeterSystem(names, [(a, b) for i, a in enumerate(names)
                                    for b in names[i + 1:]
                                    if rng.random() < 0.97])
        if len(sys.components) > 1:
            break
    num, den = [1], [1]
    for comp in sys.components:
        part = growth_series(sys.subsystem(comp)[0])
        num = _poly_mul(num, part.numerator)
        den = _poly_mul(den, part.denominator)
    series = growth_series(sys)
    assert (series.numerator, series.denominator) == (tuple(num), tuple(den))


def test_taylor_recurrence_against_direct_division():
    """Coefficients from the recurrence agree with long division by hand
    for the two-generator free product: 1/(1-t) * (1+t) = 1,2,2,2,..."""
    g = growth_series(CoxeterSystem("st"))
    assert g.taylor(5) == [1, 2, 2, 2, 2, 2]


def test_taylor_error_paths():
    """1/(2 - t) has the coefficient 1/2; 1/t is not regular at zero."""
    with pytest.raises(ConsistencyError, match="non-integer Taylor"):
        RationalSeries((1,), (2, -1)).taylor(3)
    with pytest.raises(DomainError, match="not regular at zero"):
        RationalSeries((1,), (0, 1)).taylor(3)
    with pytest.raises(DomainError, match="pole at 1/2"):
        RationalSeries((1,), (1, -2)).evaluate(Fraction(1, 2))


# -- convergence radius -------------------------------------------------------------

def test_rho_values(free3, z2sq_z2, pentagon):
    assert rho(free3) == pytest.approx(0.5, abs=1e-9)
    assert rho(z2sq_z2) == pytest.approx((math.sqrt(5) - 1) / 2, abs=1e-9)
    assert rho(pentagon) == pytest.approx((3 - math.sqrt(5)) / 2, abs=1e-9)


def test_rho_finite_and_dihedral(z2xz2, dihedral):
    assert math.isinf(rho(z2xz2))
    assert rho(dihedral) == pytest.approx(1.0, abs=1e-9)


def test_rho_no_smaller_root_on_grid(named_systems):
    for sys in named_systems.values():
        info = rho_info(sys)
        den = info.denominator
        step = Fraction(1, 10**4)
        x = step
        while x < info.bracket_low:
            val = sum(c * x ** k for k, c in enumerate(den))
            assert val > 0
            x += step


def test_rho_bracket_sign_change(named_systems):
    for sys in named_systems.values():
        info = rho_info(sys)
        den = info.denominator
        assert sum(c * info.bracket_low ** k for k, c in enumerate(den)) > 0
        assert sum(c * info.bracket_high ** k for k, c in enumerate(den)) <= 0
        assert float(info.bracket_high - info.bracket_low) < 1e-11


def grid_scan_root(den):
    """The grid scan plus bisection that located rho before Sturm
    counting, kept as an oracle: the first grid point k/10^4 where the
    denominator is <= 0, then bisection down to width 1e-12."""
    if len(den) == 1:
        return math.inf, None, None

    def f(x):
        out = Fraction(0)
        for c in reversed(den):
            out = out * x + c
        return out

    step = Fraction(1, 10**4)
    prev, x = Fraction(0), step
    while x <= 1:
        if f(x) <= 0:
            lo, hi = prev, x
            break
        prev = x
        x += step
    else:
        return math.inf, None, None
    while float(hi - lo) > 1e-12:
        mid = (lo + hi) / 2
        if f(mid) > 0:
            lo = mid
        else:
            hi = mid
    return float((lo + hi) / 2), lo, hi


def test_rho_matches_grid_scan_oracle(named_systems):
    """Identical triples wherever the smallest root is simple: on the
    named systems and on every component of 60 seeded random graphs,
    each distinct denominator once."""
    infos = {}
    systems = list(named_systems.values())
    rng = random.Random(23)
    for _ in range(60):
        sys = random_system(rng, 9)
        systems += [sys.subsystem(comp)[0] for comp in sys.components]
    for sys in systems:
        info = rho_info(sys)
        infos[info.denominator] = info
    assert len(infos) > 25
    for den, info in infos.items():
        assert (info.value, info.bracket_low, info.bracket_high) == \
            grid_scan_root(den), den


def transfer_matrix(system):
    """The transfer matrix of the canonical-word automaton, built from the
    commutation relation alone.  A state is the set of letters that may
    come next; after a letter t, a letter s may follow iff s != t and
    either s and t do not commute, or t < s and s could follow before t
    (else s would move in front of t: a shorter or lex-smaller word)."""
    n = system.n
    start = frozenset(range(n))
    index, states, edges = {start: 0}, [start], []
    for state in states:                    # grows while it is walked
        for t in sorted(state):
            nxt = frozenset(s for s in range(n) if s != t and (
                not system.commutes(s, t) or (t < s and s in state)))
            if nxt not in index:
                index[nxt] = len(states)
                states.append(nxt)
            edges.append((index[state], index[nxt]))
    a = np.zeros((len(states), len(states)))
    for i, j in edges:
        a[i, j] += 1
    return a


def spectral_radius(a):
    """Largest eigenvalue modulus of a nonnegative matrix, taken over its
    strongly connected blocks: each block's Perron root is a simple
    eigenvalue, where one of the whole matrix may sit in a Jordan block."""
    reach = (a > 0) | np.eye(len(a), dtype=bool)
    while True:                             # close under paths
        nxt = (reach.astype(float) @ reach) > 0
        if (nxt == reach).all():
            break
        reach = nxt
    blocks = {tuple(np.flatnonzero(row)) for row in reach & reach.T}
    return max(np.abs(np.linalg.eigvals(a[np.ix_(b, b)])).max()
               for b in blocks)


def test_rho_matches_transfer_matrix(named_systems):
    """rho is 1 / lambda_max of the automaton's transfer matrix, on every
    infinite component of the named systems and of 60 seeded graphs."""
    systems = list(named_systems.values())
    rng = random.Random(34)
    systems += [random_system(rng, 9) for _ in range(60)]
    checked = 0
    for sys in systems:
        for comp in sys.components:
            if len(comp) == 1:
                continue
            sub = sys.subsystem(comp)[0]
            lam = spectral_radius(transfer_matrix(sub))
            assert rho_info(sub).value == pytest.approx(1 / lam, abs=1e-9), sub
            checked += 1
    assert checked > 40


def test_rho_root_of_even_multiplicity():
    """Two commuting copies of z2sq-z2: the denominator (1 - t - t^2)^2
    does not change sign at its smallest root, which is still found."""
    copy = ["s2", "t2", "u2"]
    sys = CoxeterSystem(["s", "t", "u"] + copy,
                        [("t", "u"), ("t2", "u2")]
                        + [(a, b) for a in "stu" for b in copy])
    info = rho_info(sys)
    assert info.denominator == (1, -2, -1, 2, 1)
    assert info.value == rho(sys) == pytest.approx(1 / GOLDEN, abs=1e-9)
    assert info.q_below_rho(Fraction(618, 1000))
    assert info.q_below_rho(info.bracket_low)
    assert not info.q_below_rho(info.bracket_high)
    assert not info.q_below_rho(Fraction(619, 1000))
    # (1 - 2t)^2: every member of the chain vanishes at the grid point 1/2
    info = _locate_root((1, -4, 4))
    assert info.bracket_high == Fraction(1, 2)
    assert info.q_below_rho(info.bracket_low)
    assert not info.q_below_rho(Fraction(1, 2))


def test_rho_two_roots_in_one_grid_cell():
    """(50002 - 100000 t)(50007 - 100000 t) is positive at both ends of
    the cell (0.5, 0.5001] that holds both of its roots."""
    den = tuple(_poly_mul([50002, -100000], [50007, -100000]))
    info = _locate_root(den)
    assert info.value == pytest.approx(0.50002, abs=1e-9)
    assert info.bracket_low < Fraction(50002, 100000) <= info.bracket_high
    assert info.q_below_rho(Fraction(50001, 100000))
    assert not info.q_below_rho(Fraction(50003, 100000))


def test_rho_reducible_is_min_over_components():
    sys = CoxeterSystem(["a", "b", "c", "x"],
                        [("a", "x"), ("b", "x"), ("c", "x")])
    # components: free product on a,b,c (rho 1/2) and the single x (finite)
    assert rho(sys) == pytest.approx(0.5, abs=1e-9)


def _fresh(sys):
    """A copy of sys that shares no cached series, subsystem or radius."""
    return CoxeterSystem(sys.names, [(i, j) for i in range(sys.n)
                                     for j in range(i + 1, sys.n)
                                     if sys.commutes(i, j)])


def test_component_map_rho_and_classify_match_oracle():
    """component_rhos, rho and classify against the per-component walk of
    oracle_classify on 60 seeded random graphs, reducible ones included:
    at a random q, at a q within 2% of each component's radius, and at
    their inverses.  The oracle runs on a fresh copy of each system."""
    rng = random.Random(29)
    reducible = cases = 0
    for _ in range(60):
        sys = random_system(rng, 9)
        twin = _fresh(sys)
        reducible += len(sys.components) > 1
        infos = component_rhos(sys)
        assert list(infos) == list(sys.components)
        radii = []
        for comp, info in infos.items():
            want = rho_info(twin.subsystem(comp)[0])
            if len(comp) == 1:
                assert info is None and math.isinf(want.value)
            else:
                assert info == want
                radii.append(info.value)
        assert rho(sys) == min(radii, default=math.inf) \
            == oracle_classify(twin, Fraction(1)).rho
        qs = [Fraction(rng.randint(1, 300), rng.randint(1, 300))]
        qs += [Fraction(r * (1 + rng.choice((-1, 1)) * rng.uniform(1e-4, 0.02)))
               .limit_denominator(10**6) for r in radii]
        for q in qs:
            for x in (q, 1 / q):
                assert classify(sys, x) == oracle_classify(twin, x), (sys, x)
                cases += 1
    assert reducible >= 20 and cases > 200


def test_no_subsystem_for_one_generator_component(monkeypatch, tmp_path,
                                                  capsys):
    """rho, classify, ``coxhecke rho`` and ``classify`` and the growth-rho
    suite build a subsystem for each component of two or more generators
    and none for a one-generator component (the finite Z2)."""
    calls = []
    subsystem = CoxeterSystem.subsystem

    def counted(self, indices):
        calls.append(tuple(indices))
        return subsystem(self, indices)

    monkeypatch.setattr(CoxeterSystem, "subsystem", counted)
    names = ["a", "b", "c", "x", "y"]
    pairs = [("x", "y")] + [(g, h) for g in "abc" for h in "xy"]
    sys = CoxeterSystem(names, pairs)     # components {a, b, c}, {x}, {y}
    assert rho(sys) == pytest.approx(0.5, abs=1e-9)
    assert classify(sys, Fraction(1, 4)).center_dimension == 8
    path = tmp_path / "g.json"
    path.write_text(json.dumps({"generators": names,
                                "commuting_pairs": pairs}))
    assert main(["rho", "--group", str(path)]) == 0
    assert main(["classify", "--group", str(path), "--q", "1/4"]) == 0
    assert set(calls) == {(0, 1, 2)}
    calls.clear()
    assert suite_growth(0).passed
    assert calls and min(len(c) for c in calls) >= 2


def plain_bisection_root(den):
    """The Sturm-count binary search that located rho before the Newton
    probes, kept as an oracle: the (0, 1] check, then a cold bisection over
    the 10^4 2^27 grid cells."""
    chain = _sturm_chain(den)
    if not _has_root_up_to(chain, 1, 1):
        return math.inf, None, None
    scale = 10**4 * 2**27
    lo, hi = 0, scale
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if _has_root_up_to(chain, mid, scale):
            hi = mid
        else:
            lo = mid
    return (2 * lo + 1) / (2 * scale), Fraction(lo, scale), Fraction(hi, scale)


def adversarial_polynomials(rng, count):
    """Seeded integer polynomials positive at 0: products of linear factors
    whose roots lie on, just below or just above a grid point k / (10^4
    2^27), of multiplicity up to 3, two to a cell, or past 1, with
    irreducible quadratics riding along."""
    scale = 10**4 * 2**27
    for _ in range(count):
        poly = [1]
        for _ in range(rng.randint(1, 3)):
            k = rng.choice((rng.randint(1, scale), rng.randint(1, 10**3),
                            scale - rng.randint(0, 10**3)))
            fine = rng.choice((2, 7, 10**3, 10**9))
            kind = rng.randrange(6)
            if kind == 0:                              # on the grid point
                factor = [k, -scale]
            elif kind in (1, 2):                       # just below, above
                factor = [fine * k + (-1, 1)[kind - 1], -fine * scale]
            elif kind == 3:                            # two roots in a cell
                factor = _poly_mul([fine * k + 1, -fine * scale],
                                   [fine * k + 2, -fine * scale])
            elif kind == 4:                            # irreducible quadratic
                a, c = rng.randint(1, 10**4), rng.randint(1, 10**4)
                b = rng.randint(-math.isqrt(4 * a * c - 1),
                                math.isqrt(4 * a * c - 1))
                factor = [c, b, a]
            else:                                      # no root in (0, 1]
                factor = [fine + rng.randint(1, 10**3), -fine]
            for _ in range(rng.choice((1, 1, 2, 3))):
                poly = _poly_mul(poly, factor)
        yield tuple(poly)


def counted_locate_root(monkeypatch):
    """_locate_root and the number of Sturm counts of its last call."""
    calls = []

    def counted(*args):
        calls.append(args)
        return _has_root_up_to(*args)

    monkeypatch.setattr(growth, "_has_root_up_to", counted)

    def locate(den):
        calls.clear()
        info = _locate_root(den)
        return (info.value, info.bracket_low, info.bracket_high), len(calls)

    return locate


def test_locate_root_matches_plain_bisection_on_polynomials(monkeypatch):
    """Identical triples to the plain bisection on 3,000 seeded adversarial
    polynomials, in at most 44 Sturm counts, its 42 plus the two probes."""
    locate = counted_locate_root(monkeypatch)
    found = 0
    for den in adversarial_polynomials(random.Random(24), 3000):
        triple, calls = locate(den)
        assert triple == plain_bisection_root(den), den
        assert calls <= 44, den
        found += triple[1] is not None
    assert found > 2000


def test_locate_root_three_counts_on_component_denominators(
        monkeypatch, named_systems):
    """On the named systems and every component of 60 seeded random
    graphs on up to 12 generators, each distinct denominator once: the plain bisection's triple
    in at most three Sturm counts, the (0, 1] check and the two probes."""
    locate = counted_locate_root(monkeypatch)
    dens = {growth_series(sys).denominator for sys in named_systems.values()}
    rng = random.Random(31)
    for _ in range(60):
        sys = random_system(rng, 12)
        dens.update(growth_series(sys.subsystem(comp)[0]).denominator
                    for comp in sys.components)
    assert len(dens) > 25
    for den in dens:
        triple, calls = locate(den)
        assert triple == plain_bisection_root(den), den
        assert calls <= 3, den


def test_q_below_rho_answers_from_bracket(monkeypatch, named_systems):
    """No Sturm chain is built for q outside the bracket's cell, and every
    answer agrees with the Sturm count: at both ends, the cell midpoint
    and seeded rationals, on roots of multiplicity 2, two roots in a cell
    and a finite group (no bracket)."""
    dens = [rho_info(sys).denominator for sys in named_systems.values()]
    dens += [(1, -4, 4), (1, -2, -1, 2, 1), (1, 1),
             tuple(_poly_mul([50002, -100000], [50007, -100000]))]
    infos = [_locate_root(den) for den in dens]
    builds = []

    def counted(den):
        builds.append(den)
        return _sturm_chain(den)

    monkeypatch.setattr(growth, "_sturm_chain", counted)
    rng = random.Random(37)
    for info in infos:
        chain = _sturm_chain(info.denominator)
        qs = [Fraction(rng.randint(1, 10**6), rng.randint(1, 10**6))
              for _ in range(40)]
        if info.bracket_low is not None:
            mid = (info.bracket_low + info.bracket_high) / 2
            qs += [info.bracket_low, info.bracket_high, mid]
            qs += [info.bracket_low - Fraction(1, 10**15),
                   info.bracket_high + Fraction(1, 10**15)]
        for q in qs:
            builds.clear()
            below = info.q_below_rho(q)
            assert below == (not _has_root_up_to(chain, q.numerator,
                                                  q.denominator)), (info, q)
            inside = info.bracket_low is None \
                or info.bracket_low < q < info.bracket_high
            assert len(builds) == inside, (info, q)


def test_irreducible_subsystem_is_itself(named_systems):
    """All the generators of a system give the system itself, kept out of
    the subsystem cache; a proper subset still gives a new system."""
    for sys in named_systems.values():
        sub, idx = sys.subsystem(range(sys.n))
        assert sub is sys and idx == tuple(range(sys.n))
        assert sys.subsystem(sys.names)[0] is sys
        assert sys not in sys._subsystem_cache.values()
        assert sys.subsystem(range(sys.n - 1))[0] is not sys


# -- classification -----------------------------------------------------------------

def test_classify_free3(free3):
    rep = classify(free3, 1)
    assert rep.classification == "factor" and rep.center_dimension == 1
    rep = classify(free3, Fraction(1, 4))
    assert rep.classification == "factor_plus_C" and rep.center_dimension == 2


def test_classify_boundary_exact(free3):
    # rational boundary point: exactly rho -> inside the closed interval
    assert classify(free3, Fraction(1, 2)).classification == "factor"
    assert classify(free3, Fraction(2)).classification == "factor"
    assert classify(free3, Fraction(499, 1000)).classification == "factor_plus_C"
    assert classify(free3, Fraction(2001, 1000)).classification == "factor_plus_C"


def test_classify_finite_product(z2xz2):
    rep = classify(z2xz2, Fraction(7, 2))
    assert rep.center_dimension == 4
    assert rep.classification == "not_applicable"


def test_classify_dihedral(dihedral):
    rep = classify(dihedral, 1)
    assert rep.classification == "not_applicable"
    assert rep.center_dimension is None


def test_classify_reducible_mixed():
    sys = CoxeterSystem(["a", "b", "c", "x"],
                        [("a", "x"), ("b", "x"), ("c", "x")])
    rep = classify(sys, 1)
    assert rep.center_dimension == 2          # factor times a Z2 piece
    rep = classify(sys, Fraction(1, 4))
    assert rep.center_dimension == 4


def _commuting_product(left, right):
    """The direct product of two systems given by (names, commuting pairs)."""
    names = left[0] + right[0]
    pairs = left[1] + right[1] + [(a, b) for a in left[0] for b in right[0]]
    return CoxeterSystem(names, pairs)


def test_classify_reducible_all_factors():
    sys = _commuting_product((["a", "b", "c"], []), (["x", "y", "z"], []))
    rep = classify(sys, 1)
    assert rep.classification == "factor"
    assert rep.reason == "all components are factors"
    assert rep.center_dimension == 1
    assert [c.classification for c in rep.components] == ["factor"] * 2
    rep = classify(sys, Fraction(1, 4))
    assert rep.classification == "not_applicable"
    assert rep.center_dimension == 4


def test_classify_reducible_with_dihedral_component():
    sys = _commuting_product((["a", "b", "c"], []), (["s", "t"], []))
    rep = classify(sys, 1)
    assert rep.classification == "not_applicable"
    assert rep.reason == "a two-generator infinite component is unclassified"
    assert rep.center_dimension is None
    assert [c.kind for c in rep.components] == ["classified", "dihedral"]
    assert rep.components[0].classification == "factor"


def test_classify_j_duality(named_systems):
    rng = random.Random(19)
    for _ in range(20):
        q = Fraction(rng.randint(1, 60), rng.randint(1, 60))
        for sys in named_systems.values():
            assert classify(sys, q).classification == \
                classify(sys, 1 / q).classification


def test_classify_rejects_nonpositive(free3):
    with pytest.raises(InputError):
        classify(free3, 0)


# -- radial symbol ------------------------------------------------------------------

def test_zeta_radius_zero(free3):
    zv = zeta_symbol(free3, Fraction(1, 4), 0)
    assert list(zv.values) == [1.0]


def oracle_zeta_symbol(system, q, radius):
    """zeta_symbol's per-element loops before it read the level ends, kept
    as its oracle: (values, partial_norm_sq, words)."""
    sq = float_q(q)[1]
    ball = system.ball(radius)
    values = np.array([sq ** len(w) for w in ball])
    partials, acc, cur_len = [], 0.0, 0
    for w, v in zip(ball, values):
        if len(w) != cur_len:
            partials.append(acc)
            cur_len = len(w)
        acc += v * v
    partials.append(acc)
    return values, tuple(partials), [w.word for w in ball]


def test_zeta_symbol_matches_per_element_oracle(named_systems, z2xz2):
    """Bit for bit by float.hex, with the dtype and the element types, on
    the named systems, a finite group and 60 seeded graphs, from radius 0
    and at q = 1."""
    rng = random.Random(34)
    systems = [*named_systems.values(), z2xz2]
    systems += [random_system(rng, 9) for _ in range(60)]

    def hexes(xs):
        return [(type(x), float(x).hex()) for x in xs]

    for sys in systems:
        for q in (Fraction(1), Fraction(1, 5), Fraction(19, 100)):
            for radius in (0, 1, 3, 5 if sys.n <= 5 else 4):
                zv = zeta_symbol(sys, q, radius)
                values, partials, words = oracle_zeta_symbol(sys, q, radius)
                assert zv.values.dtype == values.dtype
                assert hexes(zv.values) == hexes(values)
                assert hexes(zv.partial_norm_sq) == hexes(partials)
                assert [w.word for w in zv.elements] == words


def test_zeta_norm_converges_to_series_value(free3):
    zv = zeta_symbol(free3, Fraction(1, 4), 12)
    # W(1/4) = 1.25 / 0.5 = 2.5; geometric tail 3 (q 2)^n
    assert zv.norm_sq == pytest.approx(2.5, abs=1e-3)
    tail = [2.5 - p for p in zv.partial_norm_sq]
    assert all(a > b - 1e-15 for a, b in zip(tail, tail[1:]))


def test_zeta_diverges_at_rho(free3):
    zv = zeta_symbol(free3, Fraction(1, 2), 14)
    # partial sums 1 + 1.5 n: linear divergence
    assert zv.partial_norm_sq[-1] == pytest.approx(1 + 1.5 * 14)
    above = zeta_symbol(free3, Fraction(55, 100), 14)
    below = zeta_symbol(free3, Fraction(45, 100), 14)
    assert above.partial_norm_sq[-1] > 12
    # below rho the partial sums track the exact geometric partial sum
    expected = 1 + sum(3 * 2 ** (n - 1) * Fraction(45, 100) ** n
                       for n in range(1, 15))
    assert below.norm_sq == pytest.approx(float(expected), rel=1e-9)
    w_below = float(growth_series(free3).evaluate(Fraction(45, 100)))
    assert below.norm_sq < w_below


def test_zeta_rejects_large_q(free3):
    with pytest.raises(PreconditionError, match="1/q"):
        zeta_symbol(free3, 2, 4)


def test_symbol_commutation_zeta_exact(named_systems):
    for sys in named_systems.values():
        zv = zeta_symbol(sys, Fraction(1, 5), 5)
        xi = zv.exact_symbol()
        for s in range(sys.n):
            assert check_symbol_commutation(sys, s, xi, P_SYMBOL) == []


def test_symbol_commutation_unit_symbol(free3):
    zv = zeta_symbol(free3, Fraction(1, 4), 5)
    xi = {w: (LaurentPoly.one() if w.is_identity else LaurentPoly.zero())
          for w in zv.elements}
    for s in range(3):
        assert check_symbol_commutation(free3, s, xi, P_SYMBOL) == []


def test_symbol_commutation_planted_counterexample(free3):
    zv = zeta_symbol(free3, Fraction(1, 4), 5)
    xi = {w: (LaurentPoly.one() if w.word == (0,) else LaurentPoly.zero())
          for w in zv.elements}
    witnesses = check_symbol_commutation(free3, "t", xi, P_SYMBOL)
    assert free3.element("s") in witnesses


def symbol_cases(sys, rng):
    """Radial symbols u^|w| on ball(5) and on a random half of it that
    keeps the words of length 5, each as is and perturbed at a few keys."""
    ball = sys.ball(5)
    half = [w for w in ball if len(w) == 5 or rng.random() < 0.5]
    for domain in (ball, half):
        xi = {w: LaurentPoly.u_power(len(w)) for w in domain}
        yield xi
        xi = dict(xi)
        for w in rng.sample(domain, min(3, len(domain))):
            xi[w] = xi[w] + LaurentPoly.one()
        yield xi


def test_symbol_commutation_matches_mult_gen_oracle(named_systems):
    rng = random.Random(1993)
    systems = list(named_systems.values())
    systems += [random_system(rng, 5) for _ in range(20)]
    cases = with_witnesses = 0
    for sys in systems:
        for xi in symbol_cases(sys, rng):
            for p in (P_SYMBOL, -P_SYMBOL):
                for s in range(sys.n):
                    expected = oracle_symbol_commutation(sys, s, xi, p)
                    assert check_symbol_commutation(sys, s, xi, p) == \
                        expected, (sys, s, p)
                    cases += 1
                    with_witnesses += bool(expected)
    assert 0 < with_witnesses < cases


def test_symbol_commutation_rejects_foreign_keys(free3):
    other = CoxeterSystem(free3.names)
    xi = {w: LaurentPoly.u_power(len(w)) for w in free3.ball(4)}
    # a foreign key longer than the cut is still refused
    xi[other.element("s t u s")] = LaurentPoly.u_power(4)
    with pytest.raises(InputError, match="different Coxeter system"):
        check_symbol_commutation(free3, "s", xi, P_SYMBOL)
    with pytest.raises(InputError, match="unknown generator"):
        check_symbol_commutation(free3, "x", {}, P_SYMBOL)
    with pytest.raises(InputError, match="out of range"):
        check_symbol_commutation(free3, 3, {}, P_SYMBOL)
    assert check_symbol_commutation(free3, "s", {}, P_SYMBOL) == []


def test_double_coset_check_rejects_foreign_keys(free3):
    other = CoxeterSystem(free3.names)
    xi = {w: LaurentPoly.u_power(len(w)) for w in free3.ball(4)}
    xi[other.element("s t")] = LaurentPoly.u_power(2)
    pair = InfinitePair.of(free3, "s", "t")
    with pytest.raises(InputError, match="different Coxeter system"):
        double_coset_symbol_check(free3, pair, free3.element("u"), xi)


def test_double_coset_check_zeta(named_systems):
    for sys in named_systems.values():
        zv = zeta_symbol(sys, Fraction(1, 5), 6)
        xi = zv.exact_symbol()
        pair = InfinitePair.of(sys, 0, next(
            t for t in range(1, sys.n) if not sys.commutes(0, t)))
        checked = 0
        for w in sys.ball(3):
            from coxhecke import shortest_rep
            if not shortest_rep(sys, pair, w).nondegenerate:
                continue
            assert double_coset_symbol_check(sys, pair, w, xi) == []
            checked += 1
        assert checked > 0


def test_double_coset_check_degenerate_coset(free3):
    zv = zeta_symbol(free3, Fraction(1, 4), 4)
    pair = InfinitePair.of(free3, "s", "t")
    with pytest.raises(PreconditionError):
        double_coset_symbol_check(free3, pair, free3.identity,
                                  zv.exact_symbol())


def test_double_coset_check_needs_the_shortest_element(free3):
    xi = zeta_symbol(free3, Fraction(1, 4), 4).exact_symbol()
    pair = InfinitePair.of(free3, "s", "t")
    del xi[free3.element("u")]
    with pytest.raises(InputError, match="shortest element is outside"):
        double_coset_symbol_check(free3, pair, free3.element("s u t"), xi)


def test_double_coset_check_random_symbol_fails(free3):
    rng = random.Random(29)
    zv = zeta_symbol(free3, Fraction(1, 4), 5)
    xi = {w: LaurentPoly.const(Fraction(rng.randint(1, 9), 7))
          for w in zv.elements}
    pair = InfinitePair.of(free3, "s", "t")
    witnesses = double_coset_symbol_check(free3, pair, free3.element("u"), xi)
    assert witnesses


def test_symbol_commutation_long_key_matches_oracle(free3):
    """A key of 2,000 letters with its neighbours at lengths 1,999 to 2,002,
    past the default recursion limit of 1,000: every witness list equals
    the mult_gen oracle's, on the radial symbol and with the long key
    moved."""
    w = Element(free3, tuple((0, 1, 2)[i % 3] for i in range(2000)))
    keys = {w, *(free3.mult_gen(w, g, side)[0]
                 for g in range(3) for side in (LEFT, RIGHT))}
    keys |= {free3.mult_gen(v, g, RIGHT)[0] for v in list(keys)
             for g in range(3) if len(v) == 2001}
    assert {len(v) for v in keys} == {1999, 2000, 2001, 2002}
    radial = {v: LaurentPoly.u_power(len(v)) for v in keys}
    moved = dict(radial)
    moved[w] = radial[w] + 1
    for xi in (radial, moved):
        for p in (P_SYMBOL, -P_SYMBOL, 2):
            for s in range(3):
                assert check_symbol_commutation(free3, s, xi, p) == \
                    oracle_symbol_commutation(free3, s, xi, p), (s, p)
    assert check_symbol_commutation(free3, "u", radial, P_SYMBOL) == []
    assert check_symbol_commutation(free3, "u", moved, P_SYMBOL) == [w]


def typed_symbols(sys, rng):
    """Symbols on ball(4) valued in ints, Fractions and LaurentPolys, zero
    ones included: all zeros, mixed at random (in ball order and reversed),
    and radial ones a^|w| for the p that solves a^2 = 1 + p a (noted)."""
    ball = sys.ball(4)
    yield {w: rng.choice((0, Fraction(0), LaurentPoly.zero())) for w in ball}
    mixed = {w: rng.choice((rng.randint(-2, 2), Fraction(rng.randint(-3, 3), 2),
                            LaurentPoly.zero(), LaurentPoly.u_power(len(w))))
             for w in ball}
    yield mixed
    yield dict(reversed(mixed.items()))         # each key before its prefixes
    yield {w: (-1) ** len(w) for w in ball}                     # p = 0
    yield {w: 2 ** len(w) for w in ball}                        # p = 3/2
    yield {w: Fraction(1, 2) ** len(w) for w in ball}           # p = -3/2
    yield {w: LaurentPoly({-len(w): (-1) ** len(w)}) for w in ball}  # P_SYMBOL


def test_symbol_commutation_typed_values_match_oracle(named_systems):
    """Int, Fraction and zero values, with p a LaurentPoly, an int or a
    Fraction, give the witnesses of the oracle's LaurentPoly arithmetic;
    a float value or p is refused as that arithmetic refuses it, also
    where the oracle's != met it and reported a witness, and a float p
    also on a symbol with no quadruple."""
    rng = random.Random(4747)
    systems = list(named_systems.values())
    systems += [random_system(rng, 5) for _ in range(10)]
    cases = with_witnesses = 0
    for sys in systems:
        for xi in typed_symbols(sys, rng):
            for p in (P_SYMBOL, -P_SYMBOL, 0, 2, Fraction(3, 2),
                      Fraction(-3, 2)):
                for s in range(sys.n):
                    expected = oracle_symbol_commutation(sys, s, xi, p)
                    assert check_symbol_commutation(sys, s, xi, p) == \
                        expected, (sys, s, p)
                    cases += 1
                    with_witnesses += bool(expected)
    assert 0 < with_witnesses < cases
    free3 = named_systems["free3"]
    xi = {w: LaurentPoly.u_power(len(w)) for w in free3.ball(4)}
    for p in (0.5, Fraction(1, 2)):
        assert oracle_symbol_commutation(free3, "s", {}, p) == []
    with pytest.raises(TypeError):
        check_symbol_commutation(free3, "s", {}, 0.5)
    with pytest.raises(TypeError):
        check_symbol_commutation(free3, "s", xi, 0.5)
    for key in ("t", "ts"):                     # w = t, and its sw = ts
        bad = dict(xi)
        bad[free3.element(key)] = 0.5
        with pytest.raises(TypeError):
            check_symbol_commutation(free3, "s", bad, P_SYMBOL)
    assert oracle_symbol_commutation(free3, "s", bad, P_SYMBOL) == \
        [free3.element("t")]


def coset_symbols(sys, rng):
    """Symbols on ball(5): radial, perturbed at a few keys, Fraction-valued
    (radial and constant), zero-valued, and radial and perturbed ones
    missing about half their keys past length 3."""
    ball = sys.ball(5)
    radial = {w: LaurentPoly.u_power(len(w)) for w in ball}
    perturbed = dict(radial)
    for w in rng.sample(ball, min(5, len(ball))):
        perturbed[w] = perturbed[w] + rng.choice((1, LaurentPoly.u_power(1)))
    yield radial
    yield perturbed
    yield {w: LaurentPoly({len(w): Fraction(3, 7)}) for w in ball}
    yield {w: Fraction(3, 7) for w in ball}
    yield {w: rng.choice((0, Fraction(0), LaurentPoly.zero())) for w in ball}
    for xi in (radial, perturbed):
        yield {w: x for w, x in xi.items() if len(w) <= 3 or rng.random() < 0.5}


def test_double_coset_check_matches_oracle(named_systems):
    """The coefficient-dict comparison gives the witnesses of the
    LaurentPoly product it replaced, on the named systems and 20 seeded
    graphs with an infinite pair, for cosets of ball(3) elements."""
    rng = random.Random(4748)
    systems = list(named_systems.values())
    while len(systems) < 23:
        sys = random_system(rng, 5)
        if any(not sys.commutes(s, t) for s in range(sys.n)
               for t in range(s + 1, sys.n)):
            systems.append(sys)
    cases = with_witnesses = 0
    for sys in systems:
        pair = InfinitePair.of(sys, *next(
            (s, t) for s in range(sys.n) for t in range(s + 1, sys.n)
            if not sys.commutes(s, t)))
        ws = [w for w in sys.ball(3)
              if shortest_rep(sys, pair, w).nondegenerate]
        ws = rng.sample(ws, min(6, len(ws)))
        for xi in coset_symbols(sys, rng):
            for w in ws:
                expected = oracle_double_coset_check(sys, pair, w, xi)
                assert double_coset_symbol_check(sys, pair, w, xi) == \
                    expected, (sys, w)
                cases += 1
                with_witnesses += bool(expected)
    assert 0 < with_witnesses < cases
    # a float at a coset element: the oracle's != reports it, the check
    # refuses it as LaurentPoly arithmetic does
    free3 = named_systems["free3"]
    pair, u = InfinitePair.of(free3, "s", "t"), free3.element("u")
    xi = {w: LaurentPoly.u_power(len(w)) for w in free3.ball(4)}
    xi[free3.element("sus")] = 0.5
    assert oracle_double_coset_check(free3, pair, u, xi) == \
        [free3.element("sus")]
    with pytest.raises(TypeError):
        double_coset_symbol_check(free3, pair, u, xi)


# -- distance recurrence ---------------------------------------------------------------

def test_recurrence_pure_modes():
    q = 0.49
    rep = coset_recurrence(q, 1.0, math.sqrt(q), 6)
    assert rep.alpha == pytest.approx(1.0) and rep.beta == pytest.approx(0.0)
    assert rep.admissible
    for k, v in enumerate(rep.values):
        assert v == pytest.approx(q ** (k / 2))
    rep = coset_recurrence(q, 1.0, -1 / math.sqrt(q), 6)
    assert rep.alpha == pytest.approx(0.0) and rep.beta == pytest.approx(1.0)
    assert not rep.admissible


def test_recurrence_pure_modes_above_one():
    """For q > 1 the square-summable mode is (-1)^n q^{-n/2}."""
    rep = coset_recurrence(4, 1.0, -0.5, 8)
    assert rep.alpha == pytest.approx(0.0) and rep.beta == pytest.approx(1.0)
    assert rep.admissible
    for k, v in enumerate(rep.values):
        assert v == pytest.approx((-0.5) ** k)
    rep = coset_recurrence(4, 1.0, 2.0, 8)
    assert rep.alpha == pytest.approx(1.0) and rep.beta == pytest.approx(0.0)
    assert not rep.admissible
    for k, v in enumerate(rep.values):
        assert v == pytest.approx(2.0 ** k)


def test_recurrence_direct_arithmetic():
    rep = coset_recurrence(0.25, 1.0, 0.5, 2)
    # p = -1.5: f(2) = p f(1) + f(0) = 0.25
    assert rep.values[2] == pytest.approx(0.25)


def test_recurrence_q_one_degenerate():
    rep = coset_recurrence(1, 1.0, 1.0, 5)
    assert rep.values == (1.0,) * 6
    assert not rep.admissible
    rep = coset_recurrence(1, 0.0, 0.0, 5)
    assert rep.admissible


def test_recurrence_rejects_negative_n():
    with pytest.raises(InputError, match="n must be nonnegative"):
        coset_recurrence(0.25, 1.0, 0.5, -1)


@pytest.mark.parametrize("f0, f1", [(math.nan, 0.5), (1.0, math.inf),
                                    (-math.inf, 0.5), (1.0, math.nan)])
def test_recurrence_rejects_non_finite_values(f0, f1):
    with pytest.raises(InputError, match="f0 and f1 must be finite"):
        coset_recurrence(0.25, f0, f1, 4)


def test_recurrence_rejects_bad_q():
    with pytest.raises(InputError):
        coset_recurrence(-1, 1.0, 1.0, 3)


@pytest.mark.parametrize("q", [math.nan, math.inf])
def test_recurrence_rejects_non_finite_q(q):
    with pytest.raises(InputError, match="q must be positive"):
        coset_recurrence(q, 1.0, 1.0, 3)


def test_float_consumers_refuse_q_without_a_float(pentagon):
    """q = 10^-400 is positive, so exact decisions take it, but its float is
    0: every consumer of q as a float refuses it, the two ball consumers
    before the ball (a one-element cap would raise CapacityError), and a q
    whose float is inf likewise."""
    q = Fraction("1e-400")
    s = pentagon.element("p")
    for call in (lambda: verify_central_projection(pentagon, q, 50, 1),
                 lambda: zeta_symbol(pentagon, q, 50, 1),
                 lambda: coset_recurrence(q, 1.0, 1.0, 3),
                 lambda: t_basis(s, q),
                 lambda: t_basis(s).specialize(q)):
        with pytest.raises(InputError, match=r"q is 0\.0 as a float"):
            call()
    with pytest.raises(InputError, match="q is inf as a float"):
        coset_recurrence(10 ** 400, 1.0, 1.0, 3)
    report = classify(pentagon, q)
    assert (report.q, report.classification, report.center_dimension) \
        == (q, "factor_plus_C", 2)
    # a real type that Fraction does not take is read through its float
    assert coset_recurrence(np.float32(0.25), 1.0, 1.0, 3) \
        == coset_recurrence(0.25, 1.0, 1.0, 3)


# -- central projection certification -----------------------------------------------------

def test_projection_preconditions(free3, dihedral, z2xz2):
    with pytest.raises(PreconditionError, match="rho"):
        verify_central_projection(free3, Fraction(3, 4), 6)
    with pytest.raises(DomainError):
        verify_central_projection(dihedral, Fraction(1, 4), 6)
    with pytest.raises(DomainError):
        verify_central_projection(z2xz2, Fraction(1, 4), 6)
    with pytest.raises(InputError, match="radius must be at least 2"):
        verify_central_projection(free3, Fraction(1, 4), 1)


@pytest.mark.parametrize("q", [-1, 0, math.nan, math.inf])
def test_projection_rejects_bad_q(pentagon, q):
    with pytest.raises(InputError, match="q must be positive"):
        verify_central_projection(pentagon, q, 6)


def test_projection_report_small_radius(free3):
    rep = verify_central_projection(free3, Fraction(1, 4), 6)
    assert rep.scaling_identity_exact
    assert rep.projection_residual < rep.projection_bound
    assert rep.commutator_max < 1e-12
    assert rep.certified_radius == 3
    assert rep.rayleigh_estimate == pytest.approx(rep.partial_norm_sq)
    assert "projection residual" in rep.summary()


def dense_commutator_max(system, radius, p_mat, p):
    """max_s ||[L_s, P]|| on ball(h - 1) with each generator's left action
    as a dense matrix on ball(h), multiplied with P both ways: phase (c)
    as it was written before the commutators were gathered from P."""
    table = system.ball_table(radius)
    h = radius // 2
    n_h = int(np.count_nonzero(table.lengths <= h))
    n_c = int(np.count_nonzero(table.lengths <= h - 1))
    left, ldesc = table.left(n_h)
    commutator_max = 0.0
    cols = np.arange(n_h)
    for s in range(system.n):
        l_mat = np.zeros((n_h, n_h))
        inside = (left[s] >= 0) & (left[s] < n_h)
        l_mat[left[s, inside], cols[inside]] = 1.0
        down = cols[ldesc[s]]
        l_mat[down, down] = p
        commutator_max = max(commutator_max, float(np.linalg.norm(
            (l_mat @ p_mat - p_mat @ l_mat)[:n_c, :n_c], 2)))
    return commutator_max


def test_commutators_match_dense_oracle(monkeypatch):
    """With M_h replaced by a seeded random matrix the commutators are of
    order 1, so a gather from a wrong row or column shows; the true M_h
    commutes up to rounding and would hide it."""
    real, drawn = growth._table_phases, []

    def random_m_h(system, radius, *args):
        out = real(system, radius, *args)
        m_h = np.random.default_rng(len(drawn)).standard_normal(out[2].shape)
        drawn.append(m_h.copy())
        return (*out[:2], m_h, *out[3:])

    monkeypatch.setattr(growth, "_table_phases", random_m_h)
    rng, graphs = random.Random(27), []
    while len(graphs) < 20:
        system = random_system(rng)
        if system.irreducible and system.n >= 3:
            q = Fraction(rho(system) / 2).limit_denominator(1000)
            graphs.append((system, q, 4 + len(graphs) % 3))
    named = [(system, Fraction(1, 8), radius)
             for system in named_systems().values() for radius in range(4, 10)]
    for system, q, radius in named + graphs:
        rep = verify_central_projection(system, q, radius)
        expected = dense_commutator_max(system, radius, drawn[-1] / rep.w_q,
                                        float_q(q)[2])
        assert expected > 0.1
        assert rep.commutator_max == pytest.approx(expected, rel=1e-12)


def test_exact_fields_match_dense_oracle(monkeypatch):
    """The residual ||P @ P - P||_2 and the Rayleigh quotient
    zeta^T M zeta / zeta^T zeta, taken in floats on the real M_h as the
    certificate once did, agree with the fields read off x = W_h / W(q)."""
    real, drawn = growth._table_phases, []

    def keep_m_h(*args):
        out = real(*args)
        drawn.append(out[2].copy())
        return out

    monkeypatch.setattr(growth, "_table_phases", keep_m_h)
    rng, graphs = random.Random(33), []
    while len(graphs) < 20:
        system = random_system(rng)
        if system.irreducible and system.n >= 3:
            graphs.append((system, 4 + len(graphs) % 3))
    named = [(system, radius) for system in named_systems().values()
             for radius in range(4, 10)]
    for system, radius in named + graphs:
        q = Fraction(rho(system) / 2).limit_denominator(1000)
        rep = verify_central_projection(system, q, radius)
        m_h = drawn[-1]
        p_mat, zeta = m_h / rep.w_q, m_h[:, 0]      # column of the identity
        residual = float(np.linalg.norm(p_mat @ p_mat - p_mat, 2))
        rayleigh = float(zeta @ (m_h @ zeta)) / float(zeta @ zeta)
        assert rep.scaling_identity_exact
        assert rep.projection_residual == pytest.approx(residual, rel=1e-12)
        assert rep.rayleigh_estimate == pytest.approx(rayleigh, rel=1e-12)
        assert rep.projection_residual < rep.projection_bound


def test_projection_residual_decreases(z2sq_z2):
    q = Fraction(3, 10)
    r6 = verify_central_projection(z2sq_z2, q, 6)
    r8 = verify_central_projection(z2sq_z2, q, 8)
    assert r8.projection_residual < r6.projection_residual
    assert r8.projection_bound < r6.projection_bound
    assert r8.rayleigh_gap < r6.rayleigh_gap


def test_projection_partial_norm_exact(free3):
    rep = verify_central_projection(free3, Fraction(1, 4), 8)
    # certified radius 4: partial sum of a_n q^n is 1 + 3/4 sum 2^(n-1) 4^(1-n)
    expected = 1 + sum(3 * 2 ** (n - 1) * Fraction(1, 4) ** n
                       for n in range(1, 5))
    assert rep.partial_norm_sq == pytest.approx(float(expected))
    assert rep.w_q == pytest.approx(2.5)


def test_projection_builds_no_word_list(monkeypatch, named_systems):
    """The certificate reads the ball's prefix tree, never its words."""
    def no_words(*args):
        raise AssertionError("word list built")

    monkeypatch.setattr(coxeter, "_tree_words", no_words)
    rep = verify_central_projection(named_systems["pentagon"],
                                    Fraction(19, 100), 8)
    assert rep.scaling_identity_exact


def test_projection_scaling_checks_count(named_systems):
    for sys in named_systems.values():
        q = Fraction(rho_info(sys).value / 2).limit_denominator(1000)
        rep = verify_central_projection(sys, q, 7)
        assert rep.scaling_checks == sys.n * len(sys.ball(6))


@pytest.mark.parametrize("s", [0, 1])
def test_projection_scaling_identity_detects_flipped_descent(
        monkeypatch, capsys, tmp_path, free3, s):
    # word 's' has s as its only right descent: flip a true and a false flag
    build = CoxeterSystem.ball_table

    def flipped(self, radius, max_elements):
        table = build(self, radius, max_elements)
        descent = table.descent.copy()
        descent[s, 1] = not descent[s, 1]
        return table._replace(descent=descent)

    assert verify_central_projection(free3, Fraction(1, 4), 6) \
        .scaling_identity_exact
    monkeypatch.setattr(CoxeterSystem, "ball_table", flipped)
    rep = verify_central_projection(free3, Fraction(1, 4), 6)
    assert not rep.scaling_identity_exact
    path = tmp_path / "free3.json"
    path.write_text(json.dumps({"generators": list(free3.names),
                                "commuting_pairs": []}))
    code = main(["zeta-check", "--group", str(path), "--q", "1/4",
                 "--radius", "6", "--format", "json"])
    report = json.loads(capsys.readouterr().out)
    assert code == 1
    assert (report["scaling_identity_exact"], report["passed"]) == (False, False)


def test_projection_cap_below_one_is_input_error(pentagon):
    with pytest.raises(InputError, match="at least 1"):
        verify_central_projection(pentagon, Fraction(19, 100), 6, -5)


def test_projection_peak_below_twice_the_table(pentagon):
    """Each phase of the certificate keeps only what a later one reads, so
    at radius 11 its traced peak stays below twice the bytes of the ball
    table it is built on."""
    q = Fraction(rho_info(pentagon).value / 2).limit_denominator(1000)
    verify_central_projection(pentagon, q, 5)     # caches series and rho
    table_bytes = sum(a.nbytes for a in pentagon.ball_table(11))
    tracemalloc.start()
    try:
        verify_central_projection(pentagon, q, 11)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * table_bytes


@pytest.mark.parametrize("q", [0, -1, Fraction(-1, 3), math.nan, math.inf,
                               -math.inf, Decimal("NaN"), Decimal("Infinity")])
def test_q_below_rho_takes_q_through_positive_q(pentagon, q):
    """q <= 0 and non-finite floats are refused as every exact reader of q
    refuses them, not answered or raised from Fraction."""
    with pytest.raises(InputError, match="q must be positive"):
        rho_info(pentagon).q_below_rho(q)
