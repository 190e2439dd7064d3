"""Free products of finite abelian pieces: measures, idempotents, the
iterated decomposition, and agreement with the growth-radius criterion."""

import math
import random
from decimal import Decimal
from fractions import Fraction

import pytest

from coxhecke import (CapacityError, CoxeterSystem, FreeFactorSpec, InputError,
                      PreconditionError, closed_form_condition,
                      cross_validate_with_rho, dykema_decompose,
                      freeness_test, hvn_z2_idempotents, mu_k, mul, rho,
                      state_phi)

GOLDEN = (1 + math.sqrt(5)) / 2


# -- the measures ------------------------------------------------------------------

def test_mu_k_examples():
    m = mu_k(1, 1)
    assert m.masses == {(): Fraction(1, 2), (0,): Fraction(1, 2)}
    m = mu_k(1, Fraction(5, 3))
    assert m.masses[()] == Fraction(3, 8) and m.masses[(0,)] == Fraction(5, 8)
    m = mu_k(2, 2)
    assert m.masses[()] == Fraction(1, 9)
    assert m.masses[(0, 1)] == Fraction(4, 9)
    assert sorted(m.masses.values()) == [Fraction(1, 9), Fraction(2, 9),
                                         Fraction(2, 9), Fraction(4, 9)]


@pytest.mark.parametrize("k", range(1, 7))
@pytest.mark.parametrize("q", [Fraction(1, 3), Fraction(1), Fraction(2),
                               Fraction(5)])
def test_mu_k_total_mass_exact(k, q):
    assert mu_k(k, q).total() == 1


def test_mu_k_validation():
    with pytest.raises(InputError):
        mu_k(0, 1)
    with pytest.raises(InputError):
        mu_k(2, 0)


# -- idempotents --------------------------------------------------------------------

def test_idempotents_exact_identities():
    """Construction itself verifies e^2 = e, e* = e and orthogonality in
    cleared form; here the pieces are re-checked explicitly."""
    pair = hvn_z2_idempotents(Fraction(3))
    c = pair.scale
    total = pair.scaled_plus + pair.scaled_minus
    assert total.terms == {pair.system.identity: c}
    assert mul(pair.scaled_plus, pair.scaled_plus) == pair.scaled_plus.scale(c)
    assert mul(pair.scaled_minus, pair.scaled_minus) == \
        pair.scaled_minus.scale(c)
    assert not mul(pair.scaled_plus, pair.scaled_minus)
    assert pair.scaled_plus.star() == pair.scaled_plus


def test_idempotent_states_match_measure():
    for q in (Fraction(1, 2), Fraction(1), Fraction(3)):
        pair = hvn_z2_idempotents(q)
        m = mu_k(1, q)
        assert pair.state_plus == m.masses[()]
        assert pair.state_minus == m.masses[(0,)]
        assert pair.state_plus + pair.state_minus == 1


def test_idempotents_numeric():
    pair = hvn_z2_idempotents(Fraction(3))
    ep, em = pair.numeric()
    prod = mul(ep, ep)
    for w in set(prod.terms) | set(ep.terms):
        assert prod.coefficient(w) == pytest.approx(ep.coefficient(w))
    assert state_phi(ep) == pytest.approx(0.25)
    assert state_phi(em) == pytest.approx(0.75)


# -- decomposition -------------------------------------------------------------------

def test_spec_validation():
    with pytest.raises(InputError):
        FreeFactorSpec((2,))
    with pytest.raises(InputError):
        FreeFactorSpec((2, 0))


def test_spec_system():
    sys = FreeFactorSpec((2, 1)).system()
    assert sys.n == 3 and sys.irreducible
    assert sys.commutes(0, 1) and not sys.commutes(0, 2)


def test_dykema_single_atom_weight():
    rep = dykema_decompose(FreeFactorSpec((2, 1)), 3)
    assert rep.diffuse_present
    assert len(rep.atoms) == 1
    label, = rep.atoms.points()
    # the tuple of longest elements, weight (3/4)^2 + 3/4 - 1 = 5/16
    assert label == ((0, 1), (0,))
    assert rep.atoms.masses[label] == Fraction(5, 16)


def test_dykema_empty_atoms():
    assert len(dykema_decompose(FreeFactorSpec((2, 1)), 1).atoms) == 0
    assert len(dykema_decompose(FreeFactorSpec((2, 2)), 1).atoms) == 0


def test_dykema_small_q_atom_at_identities():
    rep = dykema_decompose(FreeFactorSpec((2, 1)), Fraction(1, 3))
    label, = rep.atoms.points()
    assert label == ((), ())
    dual = dykema_decompose(FreeFactorSpec((2, 1)), Fraction(3))
    weight, = rep.atoms.masses.values()
    dual_weight, = dual.atoms.masses.values()
    assert weight == dual_weight


def test_dykema_rejects_all_rank_one():
    with pytest.raises(PreconditionError):
        dykema_decompose(FreeFactorSpec((1, 1, 1)), 3)
    # the closed form still evaluates for such specs
    assert closed_form_condition(FreeFactorSpec((1, 1, 1)), 3) is True


def test_dykema_atom_cap():
    """Atoms past DEFAULT_MAX_BALL are refused before they are built: the
    2^40 atoms of mu_40, and the 2^20 pairs of the fold over ranks 10, 10."""
    with pytest.raises(CapacityError, match="DEFAULT_MAX_BALL"):
        mu_k(40, 3)
    with pytest.raises(CapacityError, match="1048576 atoms"):
        dykema_decompose(FreeFactorSpec((10, 10)), 3)


def test_dykema_atom_count_never_exceeds_one():
    qs = [Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(2),
          Fraction(3), Fraction(10)]
    for ranks in ((2, 1), (2, 2), (3, 1), (3, 2, 2)):
        for q in qs:
            rep = dykema_decompose(FreeFactorSpec(ranks), q)
            assert len(rep.atoms) <= 1
            if len(rep.atoms) == 1 and q >= 1:
                label, = rep.atoms.points()
                assert label == tuple(tuple(range(k)) for k in ranks)



def test_dykema_matches_a_fold_over_atoms():
    """Folding on subset-size classes gives the atoms, masses and order of
    the pairwise fold over every atom of every factor."""
    qs = [Fraction(1, 1000), Fraction(1, 3), Fraction(9, 10), Fraction(1),
          Fraction(3, 2), Fraction(3), Fraction(1000)]
    for ranks in ((2, 1), (3, 3), (1, 4), (3, 2, 2), (2, 1, 3, 1)):
        spec = FreeFactorSpec(ranks)
        order = sorted(range(len(ranks)), key=lambda i: -ranks[i])
        for q in qs:
            acc = {(): 1}
            for fi in order:
                acc = {label + (x,): m1 + m2 - 1 for label, m1 in acc.items()
                       for x, m2 in mu_k(ranks[fi], q).masses.items()
                       if m1 + m2 > 1}
            expected = [(tuple(label[order.index(i)] for i in range(len(ranks))),
                         m) for label, m in acc.items()]
            got = dykema_decompose(spec, q).atoms.masses
            assert list(got.items()) == expected

def test_dykema_builds_no_factor_measure(monkeypatch):
    """The fold reads the masses q^r / (q+1)^k directly, so the reports do
    not change when mu_k cannot be called."""
    from coxhecke import freeprod
    cases = [(FreeFactorSpec(ranks), q)
             for ranks in ((2, 1), (2, 2), (3, 1), (3, 3, 2), (16, 3))
             for q in (Fraction(1, 2), 1, 3)]

    def reports(spec, q):
        d = dykema_decompose(spec, q)
        cv = cross_validate_with_rho(spec, q)
        return (d.summary(), d.atoms.masses, cv.summary(),
                cv.decomposition.atoms.masses, cv.agrees)

    expected = [reports(spec, q) for spec, q in cases]

    def refuse(k, q):
        raise AssertionError("mu_k called")

    monkeypatch.setattr(freeprod, "mu_k", refuse)
    assert [reports(spec, q) for spec, q in cases] == expected


# -- closed form and cross-validation ----------------------------------------------------

def test_closed_form_examples():
    assert closed_form_condition(FreeFactorSpec((1, 1, 1)), 3) is True
    assert closed_form_condition(FreeFactorSpec((2, 1)), Fraction(3, 2)) is False
    assert closed_form_condition(FreeFactorSpec((2, 1)), 2) is True


def test_closed_form_duality():
    for ranks in ((2, 1), (2, 2), (3, 1)):
        for q in (Fraction(1, 3), Fraction(2, 5), Fraction(9, 10)):
            assert closed_form_condition(FreeFactorSpec(ranks), q) == \
                closed_form_condition(FreeFactorSpec(ranks), 1 / q)


def test_cross_validation_golden_ratio_flip():
    spec = FreeFactorSpec((2, 1))
    lo = Fraction(GOLDEN).limit_denominator(10**6) - Fraction(1, 100)
    hi = Fraction(GOLDEN).limit_denominator(10**6) + Fraction(1, 100)
    cv_lo = cross_validate_with_rho(spec, lo)
    cv_hi = cross_validate_with_rho(spec, hi)
    assert cv_lo.agrees and cv_hi.agrees
    assert cv_lo.condition is False and cv_hi.condition is True
    assert cv_lo.rho == pytest.approx((math.sqrt(5) - 1) / 2, abs=1e-9)


def test_cross_validation_rank_one_spec_flip_at_two():
    spec = FreeFactorSpec((1, 1, 1))
    cv = cross_validate_with_rho(spec, Fraction(199, 100))
    assert cv.agrees and cv.condition is False
    cv = cross_validate_with_rho(spec, Fraction(201, 100))
    assert cv.agrees and cv.condition is True
    # exactly at the flip point the interval is closed: factor, no atom
    cv = cross_validate_with_rho(spec, Fraction(2))
    assert cv.agrees and cv.condition is False
    assert cv.rho == pytest.approx(0.5, abs=1e-9)


def test_cross_validation_q_one_always_factor():
    for ranks in ((2, 1), (2, 2), (3, 1), (1, 1, 1)):
        cv = cross_validate_with_rho(FreeFactorSpec(ranks), 1)
        assert cv.agrees
        assert cv.classification.classification == "factor"


def test_cross_validation_random_specs():
    """Seeded random ranks (2-4 factors of rank 1-4, at least three
    generators), each at two rational q drawn at random and two within 2%
    of the flip point 1/rho and its dual rho."""
    rng = random.Random(2020)
    specs = 0
    while specs < 60:
        ranks = tuple(rng.randint(1, 4) for _ in range(rng.randint(2, 4)))
        if sum(ranks) < 3:
            continue
        spec = FreeFactorSpec(ranks)
        r = rho(spec.system())
        qs = [Fraction(rng.randint(1, 40), rng.randint(1, 40))
              for _ in range(2)]
        for flip in (1 / r, r):
            near = flip * (1 + rng.choice((-1, 1)) * rng.uniform(1e-3, 0.02))
            qs.append(Fraction(near).limit_denominator(10**6))
        for q in qs:
            assert cross_validate_with_rho(spec, q).agrees, (ranks, q)
        specs += 1


# -- freeness ------------------------------------------------------------------------

def test_freeness_single_blocks():
    sys = CoxeterSystem("st")
    assert freeness_test(sys, [("s",), ("t",)], 5) == []


def test_freeness_mixed_blocks(z2sq_z2):
    assert freeness_test(z2sq_z2, [("s",), ("t", "u")], 6) == []


def test_freeness_three_blocks(free3):
    assert freeness_test(free3, [("s",), ("t",), ("u",)], 5) == []


def test_freeness_dihedral_block(free3):
    # a two-generator block is itself a valid free factor
    assert freeness_test(free3, [("s", "t"), ("u",)], 6) == []


def test_freeness_partition_validation(z2sq_z2, free3):
    with pytest.raises(InputError):
        freeness_test(z2sq_z2, [("s", "t"), ("u",)], 3)
    with pytest.raises(InputError):
        freeness_test(free3, [("s",), ("t",)], 3)
    with pytest.raises(InputError):
        freeness_test(free3, [("s", "t"), ("t", "u")], 3)


@pytest.mark.parametrize("q", [0, -1, math.nan, math.inf, Decimal("NaN"),
                               Decimal("Infinity")])
def test_cross_validation_takes_q_through_positive_q(q):
    with pytest.raises(InputError, match="q must be positive"):
        cross_validate_with_rho(FreeFactorSpec((2, 1)), q)
