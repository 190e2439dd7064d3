"""Growth series, convergence radius, classification, radial symbol."""

import math
import random
from fractions import Fraction

import pytest

from coxhecke import (CoxeterSystem, DomainError,
                      InfinitePair, InputError, LaurentPoly, P_SYMBOL,
                      PreconditionError, check_symbol_commutation, classify,
                      coset_recurrence, double_coset_symbol_check,
                      growth_series, rho, rho_info, verify_central_projection,
                      zeta_symbol)

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


def test_growth_series_taylor_matches_enumeration(named_systems):
    for sys in named_systems.values():
        series = growth_series(sys)
        assert series.taylor(12) == sys.sphere_counts(12)


def test_growth_series_str(free3):
    assert str(growth_series(free3)) == "(1 + t) / (1 - 2*t)"


def test_taylor_recurrence_against_direct_division():
    """Coefficients from the recurrence agree with long division by hand
    for the two-generator free product: 1/(1-t) * (1+t) = 1,2,2,2,..."""
    g = growth_series(CoxeterSystem("st"))
    assert g.taylor(5) == [1, 2, 2, 2, 2, 2]


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


def test_rho_reducible_is_min_over_components():
    sys = CoxeterSystem(["a", "b", "c", "x"],
                        [("a", "x"), ("b", "x"), ("c", "x")])
    # components: free product on a,b,c (rho 1/2) and the single x (finite)
    assert rho(sys) == pytest.approx(0.5, abs=1e-9)


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


def test_double_coset_check_random_symbol_fails(free3):
    rng = random.Random(29)
    zv = zeta_symbol(free3, Fraction(1, 4), 5)
    xi = {w: LaurentPoly.const(Fraction(rng.randint(1, 9), 7))
          for w in zv.elements}
    pair = InfinitePair.of(free3, "s", "t")
    witnesses = double_coset_symbol_check(free3, pair, free3.element("u"), xi)
    assert witnesses


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


def test_recurrence_rejects_bad_q():
    with pytest.raises(InputError):
        coset_recurrence(-1, 1.0, 1.0, 3)


# -- central projection certification -----------------------------------------------------

def test_projection_preconditions(free3, dihedral, z2xz2):
    with pytest.raises(PreconditionError, match="rho"):
        verify_central_projection(free3, Fraction(3, 4), 6)
    with pytest.raises(DomainError):
        verify_central_projection(dihedral, Fraction(1, 4), 6)
    with pytest.raises(DomainError):
        verify_central_projection(z2xz2, Fraction(1, 4), 6)


def test_projection_report_small_radius(free3):
    rep = verify_central_projection(free3, Fraction(1, 4), 6)
    assert rep.scaling_identity_exact
    assert rep.projection_residual < rep.projection_bound
    assert rep.commutator_max < 1e-12
    assert rep.certified_radius == 3
    assert rep.rayleigh_estimate == pytest.approx(rep.partial_norm_sq)
    assert "projection residual" in rep.summary()


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


def test_projection_scaling_checks_count(named_systems):
    for sys in named_systems.values():
        q = Fraction(rho_info(sys).value / 2).limit_denominator(1000)
        rep = verify_central_projection(sys, q, 7)
        assert rep.scaling_checks == sys.n * len(sys.ball(6))


@pytest.mark.parametrize("s", [0, 1])
def test_projection_scaling_identity_detects_flipped_descent(
        monkeypatch, free3, s):
    # word 's' has s as its only right descent: flip a true and a false flag
    build = CoxeterSystem.ball_table

    def flipped(self, radius, max_elements):
        words, lengths, right, descent = build(self, radius, max_elements)
        descent = descent.copy()
        descent[s, 1] = not descent[s, 1]
        return words, lengths, right, descent

    assert verify_central_projection(free3, Fraction(1, 4), 6) \
        .scaling_identity_exact
    monkeypatch.setattr(CoxeterSystem, "ball_table", flipped)
    rep = verify_central_projection(free3, Fraction(1, 4), 6)
    assert not rep.scaling_identity_exact
