"""Acceptance suite.

Each test implements one acceptance criterion at its stated tolerance and
prints a single pass/fail line (visible with ``pytest -s``).  The three
named systems are the free product of three involutions, the free product
of a commuting pair with one more involution, and the five-generator
system whose commutation graph is a 5-cycle.
"""

import itertools
import math
import random
import time
from fractions import Fraction

from coxhecke import (FreeFactorSpec, InfinitePair, LaurentPoly,
                      P_SYMBOL, check_symbol_commutation, classify,
                      closed_form_condition, double_coset_symbol_check,
                      dykema_decompose, growth_series, hvn_z2_idempotents,
                      j_iso, mul, rho_info, shortest_rep, t_basis,
                      verify_central_projection, verify_component_structure,
                      zeta_symbol)
from coxhecke.hecke import HeckeElement
from coxhecke.verify import named_systems, three_generator_patterns

from conftest import oracle_unnormalized_mul


def report(number, name, elapsed, limit=None):
    budget = f", limit {limit:.0f}s" if limit else ""
    print(f"ACCEPTANCE {number} ({name}): PASS ({elapsed:.2f}s{budget})")


def rational_rho(system) -> Fraction:
    info = rho_info(system)
    return Fraction(info.value).limit_denominator(10**9)


def test_acceptance_1_growth_series_oracle():
    """Closed-form Taylor coefficients equal enumerated sphere counts
    exactly for n <= 12 on the three named systems, in under 5 seconds."""
    t0 = time.perf_counter()
    for name, sys in named_systems().items():
        series = growth_series(sys)        # construction re-validates too
        assert series.taylor(12) == sys.sphere_counts(12), name
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    report(1, "growth-series oracle", elapsed, 5)


def test_acceptance_2_rho_values():
    """The three convergence radii to 1e-9, in under 1 second."""
    t0 = time.perf_counter()
    systems = named_systems()
    expected = {
        "free3": 0.5,
        "z2sq-z2": (math.sqrt(5) - 1) / 2,
        "pentagon": (3 - math.sqrt(5)) / 2,
    }
    for name, sys in systems.items():
        assert abs(rho_info(sys).value - expected[name]) < 1e-9, name
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    report(2, "rho values", elapsed, 1)


def test_acceptance_3_interval_flips():
    """Classification flips exactly across rho and 1/rho (probed at
    rho (1 +- 1e-3) and the inverse points, decided by exact rational
    comparison against the bisected bracket), and matches under q -> 1/q
    for 20 seeded random rationals."""
    t0 = time.perf_counter()
    one_thousandth = Fraction(1, 1000)
    for name, sys in named_systems().items():
        r = rational_rho(sys)
        info = rho_info(sys)
        q_lo = r * (1 - one_thousandth)
        q_hi = r * (1 + one_thousandth)
        assert q_lo < info.bracket_low and q_hi > info.bracket_high
        assert classify(sys, q_lo).classification == "factor_plus_C", name
        assert classify(sys, q_hi).classification == "factor", name
        # symmetric points across 1/rho
        assert classify(sys, 1 / q_lo).classification == "factor_plus_C"
        assert classify(sys, 1 / q_hi).classification == "factor"
    rng = random.Random(7)
    systems = list(named_systems().values())
    for _ in range(20):
        q = Fraction(rng.randint(1, 80), rng.randint(1, 80))
        for sys in systems:
            assert classify(sys, q).classification == \
                classify(sys, 1 / q).classification
    elapsed = time.perf_counter() - t0
    report(3, "interval flips and duality", elapsed)


def test_acceptance_4_central_symbol_certification():
    """At q = rho/2 the generator scaling identity holds exactly in the
    formal ring on interior vertices; the projection residual at radius 10
    sits below the reported analytic tail bound and shrinks from radius 8
    to radius 10.  Under 60 seconds for all three systems."""
    t0 = time.perf_counter()
    for name, sys in named_systems().items():
        q = rational_rho(sys) / 2
        rep8 = verify_central_projection(sys, q, 8)
        rep10 = verify_central_projection(sys, q, 10)
        assert rep8.scaling_identity_exact, name
        assert rep10.scaling_identity_exact, name
        assert rep10.projection_residual < rep10.projection_bound, name
        assert rep10.projection_residual < rep8.projection_residual, name
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    report(4, "central symbol certification", elapsed, 60)


def test_acceptance_5_symbol_constraints_exact():
    """The radial symbol satisfies the generator constraints for every
    generator and the radial coset law on every non-degenerate double
    coset meeting the radius-8 ball, in exact arithmetic; a planted
    counterexample symbol is rejected with a witness."""
    t0 = time.perf_counter()
    for name, sys in named_systems().items():
        q = rational_rho(sys) / 2
        zv = zeta_symbol(sys, min(q, Fraction(1)), 8)
        xi = zv.exact_symbol()
        for s in range(sys.n):
            assert check_symbol_commutation(sys, s, xi, P_SYMBOL) == [], name

        pairs = [InfinitePair.of(sys, i, j)
                 for i in range(sys.n) for j in range(i + 1, sys.n)
                 if not sys.commutes(i, j)]
        for pair in pairs:
            # every coset is covered by checking each ball element against
            # its own shortest representative
            reps = {}
            checked_cosets = 0
            for v in zv.elements:
                info = shortest_rep(sys, pair, v)
                if not info.nondegenerate:
                    continue
                expected = xi[info.w0] * LaurentPoly.u_power(
                    len(v) - len(info.w0))
                assert xi[v] == expected, (name, str(v))
                if info.w0 not in reps:
                    reps[info.w0] = v
                    checked_cosets += 1
            assert checked_cosets > 0
            # exercise the coset-level check itself on a sample
            for w0 in itertools.islice(reps, 5):
                assert double_coset_symbol_check(sys, pair, w0, xi) == []

    # planted counterexample: the indicator of a single generator
    sys = named_systems()["free3"]
    ball = sys.ball(5)
    bad = {w: (LaurentPoly.one() if w.word == (0,) else LaurentPoly.zero())
           for w in ball}
    witnesses = check_symbol_commutation(sys, "t", bad, P_SYMBOL)
    assert sys.element("s") in witnesses
    elapsed = time.perf_counter() - t0
    report(5, "symbol constraints exact", elapsed)


def test_acceptance_6_graph_structure():
    """At radius 6 with slack 2 the graph splits into the expected
    isolated vertices plus a single component holding every other core
    vertex."""
    t0 = time.perf_counter()
    expected_exceptional = {
        "free3": ["e"],
        "z2sq-z2": ["e", "s"],
        "pentagon": ["e"],
    }
    for name, sys in named_systems().items():
        rep = verify_component_structure(sys, 6, 2)
        assert rep.passed, (name, rep.summary())
        assert [str(w) for w in rep.exceptional] == expected_exceptional[name]
    elapsed = time.perf_counter() - t0
    report(6, "graph component structure", elapsed)


def test_acceptance_7_hecke_soundness():
    """Normalized and unnormalized products agree on every basis pair of
    lengths at most 4; associativity on 1000 seeded random triples; the
    duality homomorphism identity holds exactly.  Under 30 seconds."""
    t0 = time.perf_counter()
    for name, sys in named_systems().items():
        ball = sys.ball(4)
        for v in ball:
            for w in ball:
                got = mul(t_basis(v), t_basis(w))
                expected = oracle_unnormalized_mul(sys, v, w)
                scale = len(v) + len(w)
                for x in set(got.terms) | set(expected):
                    lhs = expected.get(x, LaurentPoly.zero())
                    rhs = got.coefficient(x) * LaurentPoly.u_power(scale - len(x))
                    assert lhs == rhs, (name, v, w)

    rng = random.Random(101)
    sys = named_systems()["z2sq-z2"]
    ball3 = sys.ball(3)

    def rand_elem():
        acc = HeckeElement(sys)
        for _ in range(rng.randint(1, 3)):
            c = LaurentPoly({rng.randint(-1, 1):
                             Fraction(rng.randint(-3, 3), rng.randint(1, 3))})
            acc = acc + t_basis(rng.choice(ball3)).scale(c)
        return acc

    for _ in range(1000):
        a, b, c = rand_elem(), rand_elem(), rand_elem()
        assert mul(mul(a, b), c) == mul(a, mul(b, c))

    for _ in range(200):
        a, b = rand_elem(), rand_elem()
        assert j_iso(mul(a, b)) == mul(j_iso(a), j_iso(b),
                                       p_override=-P_SYMBOL)
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    report(7, "Hecke algebra soundness", elapsed, 30)


def test_acceptance_8_agreement_triangle():
    """For ranks (2,1), (2,2), (3,1) and the stated parameter set, the
    closed-form condition, a single surviving atom, and the extra central
    summand are equivalent; the rank-one idempotent identities hold
    symbolically."""
    t0 = time.perf_counter()
    golden = Fraction(1618, 1000)
    qs = [Fraction(1, 2), Fraction(1), Fraction(3, 2),
          golden - Fraction(1, 100), golden + Fraction(1, 100),
          Fraction(2), Fraction(3)]
    for ranks in ((2, 1), (2, 2), (3, 1)):
        spec = FreeFactorSpec(ranks)
        sys = spec.system()
        for q in qs:
            cond = closed_form_condition(spec, q)
            atoms = len(dykema_decompose(spec, q).atoms)
            cls = classify(sys, q).classification
            assert atoms in (0, 1), (ranks, q)
            assert cond == (atoms == 1) == (cls == "factor_plus_C"), (ranks, q)
    for q in (Fraction(1, 2), Fraction(1), Fraction(7, 3)):
        hvn_z2_idempotents(q)      # raises if any exact identity fails
    elapsed = time.perf_counter() - t0
    report(8, "free-product agreement triangle", elapsed)


def test_acceptance_9_word_condition_axioms():
    """Deletion, exchange and folding on exhaustive words of length <= 6
    over the four 3-generator commutation patterns, plus 5000 seeded
    random longer words.  Under 30 seconds."""
    t0 = time.perf_counter()
    systems = three_generator_patterns()
    for sys in systems:
        for n in range(7):
            for word in itertools.product(range(3), repeat=n):
                for s, t in itertools.product(range(3), repeat=2):
                    rep = sys.check_conditions(word, s, t)
                    assert rep.all_hold, (word, s, t)
    rng = random.Random(2024)
    for k in range(5000):
        sys = systems[k % len(systems)]
        word = [rng.randrange(3) for _ in range(rng.randint(7, 12))]
        rep = sys.check_conditions(word, rng.randrange(3), rng.randrange(3))
        assert rep.all_hold, word
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    report(9, "word condition axioms", elapsed, 30)
