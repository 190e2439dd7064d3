"""Hecke algebra arithmetic.

The independent oracle multiplies in the unnormalized basis, where the
one-generator rule in the shortening case reads q T~_{sw} + (q-1) T~_w
with q = u^2; agreement with the normalized product is checked through
the rescaling T~_w = u^{|w|} T_w.
"""

import copy
import hashlib
import itertools
import math
import pickle
import random
import re
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from coxhecke import (CapacityError, CoxeterSystem, Element, InputError,
                      LEFT, RIGHT, LaurentPoly, P_SYMBOL, action_matrix, inner,
                      j_iso, l2_norm, mul, parse_expression, state_phi,
                      t_basis, t_tilde, unit)
from coxhecke.coxeter import BallTable
from coxhecke.hecke import HeckeElement
from coxhecke import hecke, verify
from coxhecke.cli import main
from coxhecke.verify import random_system, suite_hecke

from conftest import OracleElement, oracle_exact_mul, oracle_unnormalized_mul

GROUPS = Path(__file__).resolve().parent.parent / "groups"


def random_exact_element(rng, sys, ball, n_terms=3, min_terms=1):
    acc = HeckeElement(sys)
    for _ in range(rng.randint(min_terms, n_terms)):
        c = LaurentPoly({rng.randint(-1, 1): Fraction(rng.randint(-3, 3),
                                                      rng.randint(1, 3))})
        acc = acc + t_basis(rng.choice(ball)).scale(c)
    return acc


# -- basis and product rules -------------------------------------------------------

def test_t_basis_and_unit(dihedral):
    one = unit(dihedral)
    s = t_basis(dihedral.element("s"))
    assert mul(one, s) == s == mul(s, one)
    assert state_phi(one) == LaurentPoly.one()


def test_t_tilde_rescaling(dihedral):
    w = dihedral.element("sts")
    assert t_tilde(w) == t_basis(w).scale(LaurentPoly.u_power(3))


def test_generator_square(dihedral):
    s = t_basis(dihedral.element("s"))
    assert mul(s, s) == unit(dihedral) + s.scale(P_SYMBOL)
    assert state_phi(mul(s, s)) == LaurentPoly.one()


def test_lengthening_product(dihedral):
    s, t = t_basis(dihedral.element("s")), t_basis(dihedral.element("t"))
    assert mul(s, t) == t_basis(dihedral.element("st"))


def test_associativity_instance(dihedral):
    s, t = t_basis(dihedral.element("s")), t_basis(dihedral.element("t"))
    lhs = mul(mul(s, t), t)
    rhs = mul(s, mul(t, t))
    expected = t_basis(dihedral.element("s")) \
        + t_basis(dihedral.element("st")).scale(P_SYMBOL)
    assert lhs == rhs == expected


def test_mode_and_system_mismatch(dihedral, free3):
    with pytest.raises(InputError):
        mul(t_basis(dihedral.element("s")), t_basis(free3.element("s")))
    with pytest.raises(InputError):
        mul(t_basis(dihedral.element("s")),
            t_basis(dihedral.element("s"), q=0.5))


@pytest.mark.parametrize("q", [-1.0, 0.0, float("nan"), float("inf")])
def test_numeric_element_rejects_bad_q(dihedral, q):
    with pytest.raises(InputError, match="q must be positive"):
        HeckeElement(dihedral, {dihedral.identity: 1.0}, q=q)


@pytest.mark.parametrize("q", [-1.0, 0.0, float("nan"), float("inf"),
                               Decimal("NaN"), Decimal("Infinity"), "abc", "1/0"])
def test_specialize_rejects_bad_q(dihedral, q):
    with pytest.raises(InputError, match="q must be positive"):
        t_basis(dihedral.element("s")).specialize(q)


def test_coefficient_of_foreign_element(dihedral):
    """A basis element of another system, even one with the same word, is
    refused in both modes."""
    other = CoxeterSystem("st")
    for q in (None, 0.5):
        a = t_basis(dihedral.element("s"), q=q)
        with pytest.raises(InputError,
                           match="basis element from a different system"):
            a.coefficient(other.element("s"))


def test_scalars_of_the_wrong_mode(dihedral):
    """Exact elements take exact scalars and structure constants, numeric
    elements real ones; the wrong kind is refused with the mode named."""
    w = dihedral.element("s")
    exact, numeric = t_basis(w), t_basis(w, q=0.5)
    with pytest.raises(InputError, match="exact mode cannot be a float"):
        exact.scale(0.1)
    with pytest.raises(InputError, match="exact mode cannot be a float"):
        0.1 * exact
    with pytest.raises(InputError, match="exact mode cannot be a float"):
        mul(exact, exact, p_override=0.5)
    with pytest.raises(InputError, match="exact mode cannot be a float"):
        HeckeElement(dihedral, {w: 0.1})
    with pytest.raises(InputError,
                       match="numeric mode cannot be a LaurentPoly"):
        numeric.scale(P_SYMBOL)
    with pytest.raises(InputError,
                       match="numeric mode cannot be a LaurentPoly"):
        mul(numeric, numeric, p_override=P_SYMBOL)
    assert numeric.scale(Fraction(1, 2)).coefficient(w) == 0.5
    assert exact.scale(Fraction(1, 2)).coefficient(w) == LaurentPoly.const(
        Fraction(1, 2))


def test_numeric_coefficients_are_read_as_scalars(dihedral):
    """A numeric element's coefficients pass the check ``scale`` applies:
    int, Fraction, float and bool are taken as floats, and a str, a
    Decimal or a LaurentPoly is refused with the mode named.  Exact
    elements take and refuse what they did."""
    w, v = dihedral.element("s"), dihedral.element("t s")
    for bad in ("2.5", Decimal("1.5"), P_SYMBOL):
        with pytest.raises(InputError, match="a coefficient in numeric mode "
                           f"cannot be a {type(bad).__name__}"):
            HeckeElement(dihedral, {v: 1.0, w: bad}, q=0.5)
    for c, f in [(2, 2.0), (Fraction(1, 4), 0.25), (1.5, 1.5), (True, 1.0)]:
        a = HeckeElement(dihedral, {w: c, v: 0}, q=0.5)
        assert a.terms == {w: f} and type(a.terms[w]) is float
    for bad in ("2.5", Decimal("1.5"), 0.5):
        with pytest.raises(InputError, match="a coefficient in exact mode "
                           f"cannot be a {type(bad).__name__}"):
            HeckeElement(dihedral, {w: bad})
    exact = HeckeElement(dihedral, {w: Fraction(1, 2), v: P_SYMBOL})
    assert exact.terms == {w: LaurentPoly.const(Fraction(1, 2)), v: P_SYMBOL}


def test_mixed_operands(dihedral):
    """A LaurentPoly on the left defers to the element it multiplies, and
    operands neither side takes are refused with TypeError."""
    w = dihedral.element("st")
    a = t_basis(w).scale(Fraction(2, 3)) + unit(dihedral)
    assert P_SYMBOL * a == a * P_SYMBOL == a.scale(P_SYMBOL)
    for bad in (lambda: a + 2, lambda: a - 2, lambda: 2 + a,
                lambda: P_SYMBOL + a, lambda: P_SYMBOL - a,
                lambda: P_SYMBOL * 0.5):
        with pytest.raises(TypeError):
            bad()
    numeric = a.specialize(0.5)
    for product in (lambda: numeric * P_SYMBOL, lambda: P_SYMBOL * numeric):
        with pytest.raises(InputError,
                           match="numeric mode cannot be a LaurentPoly"):
            product()


def test_copy_and_pickle(pentagon):
    """Copies are equal; a pickle round trip of (system, element) prints
    the same and equals the element rebuilt over the unpickled system."""
    text = "2/3*T(p q) + T(r)*T(r s) - star(T(p t))"
    for q in (None, 0.37):
        a = parse_expression(pentagon, text)
        a = a if q is None else a.specialize(q)
        assert copy.copy(a) == a and str(copy.deepcopy(a)) == str(a)
        system, b = pickle.loads(pickle.dumps((pentagon, a)))
        again = parse_expression(system, text)
        assert str(b) == str(a)
        assert b == (again if q is None else again.specialize(q))
    for c in (P_SYMBOL, LaurentPoly({-2: Fraction(1, 3), 1: 4})):
        assert copy.copy(c) == copy.deepcopy(c) == c
        assert pickle.loads(pickle.dumps(c)) == c


def test_elements_refuse_assignment(pentagon):
    """Exact and numeric elements, built by the constructor or as results,
    refuse assignment to every slot and to any other name."""
    a = parse_expression(pentagon, "2/3*T(p q) + T(r)*T(r s)")
    numeric = HeckeElement(pentagon, {pentagon.element("p"): 0.5}, 0.37)
    for x in (a, a.specialize(0.37), numeric, mul(numeric, numeric),
              HeckeElement(pentagon, {pentagon.element("q"): 2})):
        before = str(x)
        for name in (*HeckeElement.__slots__, "terms", "other"):
            with pytest.raises(AttributeError):
                setattr(x, name, None)
        assert str(x) == before and x.terms is x.terms


def assert_basis_product_matches_oracle(sys, v, w):
    """T_v T_w against the unnormalized recursion, through the rescaling
    T~_x = u^{|x|} T_x."""
    got = mul(t_basis(v), t_basis(w))
    expected = oracle_unnormalized_mul(sys, v, w)
    scale = len(v) + len(w)
    for x in set(got.terms) | set(expected):
        lhs = expected.get(x, LaurentPoly.zero())
        rhs = got.coefficient(x) * LaurentPoly.u_power(scale - len(x))
        assert lhs == rhs, (v, w, x)


def test_oracle_equivalence_all_short_pairs(named_systems):
    """Normalized against unnormalized recursion on every basis pair with
    lengths at most 4, over the three named systems."""
    for sys in named_systems.values():
        ball = sys.ball(4)
        for v in ball:
            for w in ball:
                assert_basis_product_matches_oracle(sys, v, w)


def random_element_of_length(rng, sys, length):
    """A random group element of the given length, or shorter when the
    group has no longer ones: random lengthening right steps."""
    w = sys.identity
    for _ in range(length):
        up = [s for s in range(sys.n) if s not in sys.right_descents(w)]
        if not up:
            break
        w, _ = sys.mult_gen(w, rng.choice(up), RIGHT)
    return w


def test_oracle_equivalence_unequal_lengths():
    """Basis pairs of a long and a short factor, in both orders, and of
    equal lengths, on seeded random graphs: exact products peel the
    letters of the right factor on the right of the left factor, whatever
    the lengths, so every shape must meet the oracle."""
    rng = random.Random(79)
    for _ in range(20):
        sys = random_system(rng)
        for _ in range(6):
            long = random_element_of_length(rng, sys, rng.randint(4, 8))
            short = random_element_of_length(rng, sys, rng.randint(0, 3))
            k = rng.randint(0, 5)
            equal = (random_element_of_length(rng, sys, k),
                     random_element_of_length(rng, sys, k))
            for v, w in ((long, short), (short, long), equal):
                assert_basis_product_matches_oracle(sys, v, w)


def count_steps(monkeypatch) -> list:
    """The sides of the ``_step`` calls made from now on."""
    sides = []
    step = CoxeterSystem._step

    def counted(self, word, s, side):
        sides.append(side)
        return step(self, word, s, side)

    monkeypatch.setattr(CoxeterSystem, "_step", counted)
    return sides


def test_exact_products_take_right_steps_only(monkeypatch):
    """Exact and numeric products, with a short or a long left factor,
    place each letter of the right factor inline by the rule of the right
    step: they take no left step, and no ``_step`` call on either side."""
    rng = random.Random(83)
    pairs = []
    for _ in range(10):
        sys = random_system(rng)
        pairs.append((random_element_of_length(rng, sys, rng.randint(1, 3)),
                      random_element_of_length(rng, sys, rng.randint(4, 8))))
    sides = count_steps(monkeypatch)
    for v, w in pairs:
        mul(t_basis(v), t_basis(w))
        mul(t_basis(v, q=0.7), t_basis(w, q=0.7))
        mul(t_basis(w, q=0.7), t_basis(v, q=0.7))
    assert LEFT not in sides and RIGHT not in sides


def test_exact_products_take_no_adjoint(monkeypatch):
    """Products in both modes, with every structure constant, place each
    letter inline and invert no word: no ``_step`` and no ``_fold`` call,
    for a long left factor, a long right factor, or many terms on each
    side."""
    rng = random.Random(89)
    pairs = []
    for _ in range(10):
        sys = random_system(rng)
        short = random_element_of_length(rng, sys, rng.randint(1, 3))
        long = random_element_of_length(rng, sys, rng.randint(4, 8))
        ball = sys.ball(4)
        pairs += [(t_basis(long), t_basis(short)),
                  (t_basis(short), t_basis(long)),
                  tuple(random_exact_element(rng, sys, ball, 8, 4)
                        for _ in range(2))]
    pairs = [(a, b, (None, -P_SYMBOL, Fraction(2, 3))) for a, b in pairs] + [
        (a.specialize(0.7), b.specialize(0.7), (None, -1.25, Fraction(2, 3)))
        for a, b in pairs]
    calls = []
    for name in ("_step", "_fold"):
        def counted(self, *args, name=name, method=getattr(CoxeterSystem, name)):
            calls.append(name)
            return method(self, *args)

        monkeypatch.setattr(CoxeterSystem, name, counted)
    for a, b, ps in pairs:
        for p in ps:
            mul(a, b, p_override=p)
    assert calls == []


def descent_place(sys, word, letters):
    """Which letter first shortens the word on the right as the letters
    are applied in turn: "first", "middle", "last" or "nowhere"."""
    for i, s in enumerate(letters):
        word, delta = sys._step(word, s, RIGHT)
        if delta < 0:
            return ("first" if i == 0 else "last" if i == len(letters) - 1
                    else "middle")
    return "nowhere"


def lone_term_cases():
    """Basis pairs (v, w) on seeded random graphs, four of each place of
    the first descent of the walk of v by w's letters."""
    rng = random.Random(139)
    cases = {"first": [], "middle": [], "last": [], "nowhere": []}
    while min(map(len, cases.values())) < 4:
        sys = random_system(rng)
        v, w = (random_element_of_length(rng, sys, rng.randint(1, 6))
                for _ in range(2))
        place = cases[descent_place(sys, v.word, w.word)]
        if len(place) < 4 and len(w.word) >= 3:
            place.append((sys, v, w))
    return cases


def count_placements(monkeypatch, systems) -> list:
    """A one-item list: the letters placed in the given systems from now
    on.  ``_step`` reads one commutation mask per right step, and the exact
    product's walk one per letter it places inline, so the masks count
    their reads."""
    placed = [0]

    class CountedMasks(tuple):
        def __getitem__(self, i):
            placed[0] += 1
            return super().__getitem__(i)

    for sys in systems:
        monkeypatch.setattr(sys, "_comm", CountedMasks(sys._comm))
    return placed


def test_lone_term_products_at_the_first_descent(monkeypatch):
    """One-term products whose lone term first descends on the first, a
    middle or the last letter, or on none: exact ones equal the oracle
    and place as many letters as it steps, numeric ones match the
    depth-first reference float for float."""
    cases = lone_term_cases()
    placed = count_placements(monkeypatch, {sys for place in cases.values()
                                            for sys, _, _ in place})
    for place in cases.values():
        for (sys, v, w), (ca, cb) in zip(place, itertools.product(
                (1, LaurentPoly({-1: Fraction(2, 3)})), (1, Fraction(-3, 2)))):
            for p in (None, -P_SYMBOL, Fraction(2, 3)):
                twin_a, twin_b = (OracleElement(sys, {x: c})
                                  for x, c in ((v, ca), (w, cb)))
                placed[0] = 0
                expected = oracle_exact_mul(twin_a, twin_b, p)
                oracle_steps = placed[0]
                placed[0] = 0
                got = mul(HeckeElement(sys, {v: ca}), HeckeElement(sys, {w: cb}),
                          p_override=p)
                assert placed[0] == oracle_steps
                assert_like_oracle(got, expected, ())
        for sys, v, w in place:
            for q, p in ((0.7, None), (2.5, -1.25)):
                a = HeckeElement(sys, {v: -0.3}, q)
                b = HeckeElement(sys, {w: 1.7}, q)
                got = mul(a, b, p_override=p)._num
                assert {x: c.hex() for x, c in got.items()} == \
                    {x: c.hex() for x, c in depth_first_product(a, b, p).items()}


def record_steps(monkeypatch) -> list:
    """(word, target, delta) of the ``_step`` calls made from now on."""
    calls = []
    step = CoxeterSystem._step

    def recorded(self, word, s, side):
        out = step(self, word, s, side)
        calls.append((word, *out))
        return out

    monkeypatch.setattr(CoxeterSystem, "_step", recorded)
    return calls


def oracle_merges(calls, n_terms, words) -> int:
    """How many targets the oracle's per-letter dicts merged, rebuilt from
    its ``_step`` calls: its n_terms words are peeled by each of ``words``
    in turn, one call per term and letter, and a call sends x to xs, and
    to x as well on a descent."""
    merges = 0
    for w in words:
        n = n_terms
        for _ in w:
            block, calls = calls[:n], calls[n:]
            targets = [xs for _, xs, _ in block]
            targets += [x for x, _, delta in block if delta < 0]
            n = len(set(targets))
            merges += len(targets) - n
    assert calls == []
    return merges


def random_poly(rng):
    """A Laurent polynomial with 1-3 nonzero rational coefficients."""
    return LaurentPoly({e: Fraction(rng.choice((-3, -2, -1, 1, 2, 3)),
                                    rng.randint(1, 3))
                        for e in rng.sample(range(-2, 3), rng.randint(1, 3))})


def test_single_term_products_take_the_oracles_steps(monkeypatch):
    """2,000 one-term products c_v T_v * c_w T_w on seeded random graphs,
    words of length 0-9 in both orders, for three structure constants:
    each equals the oracle and places as many letters as it steps, and
    the oracle's per-letter dicts never merge two terms, so a term peeled
    alone, depth first, makes the same sums."""
    rng = random.Random(149)
    cases = []
    for _ in range(200):
        sys = random_system(rng)
        for _ in range(5):
            v, w = (random_element_of_length(rng, sys, rng.randint(0, 9))
                    for _ in range(2))
            cv, cw = (rng.choice((1, random_poly(rng))) for _ in range(2))
            cases += [(sys, v, cv, w, cw), (sys, w, cw, v, cv)]
    calls = record_steps(monkeypatch)
    placed = count_placements(monkeypatch, {sys for sys, *_ in cases})
    for sys, v, cv, w, cw in cases:
        for p in (None, -P_SYMBOL, Fraction(2, 3)):
            del calls[:]
            placed[0] = 0
            expected = oracle_exact_mul(OracleElement(sys, {v: cv}),
                                        OracleElement(sys, {w: cw}), p)
            assert oracle_merges(calls, 1, [w.word]) == 0
            oracle_steps = len(calls)
            assert placed[0] == oracle_steps
            placed[0] = 0
            got = mul(HeckeElement(sys, {v: cv}), HeckeElement(sys, {w: cw}),
                      p_override=p)
            assert placed[0] == oracle_steps
            assert_like_oracle(got, expected, ())


def test_cross_term_merges_match_the_oracle(monkeypatch):
    """a holds x and xs, s the first letter of a word w of b and |xs| >
    |x|: at s the oracle's dict merges x s with the descent branch of xs,
    while mul peels each term alone.  The products equal the oracle's,
    each coefficient's exponents in the oracle's order."""
    rng = random.Random(151)
    calls = record_steps(monkeypatch)
    for _ in range(80):
        sys = random_system(rng)
        ball = sys.ball(3)
        w = random_element_of_length(rng, sys, rng.randint(1, 6))
        x = random_element_of_length(rng, sys, rng.randint(0, 5))
        xs, delta = sys.mult_gen(x, w.word[0], RIGHT)
        pair = [x, xs] if delta > 0 else [xs, x]
        support_a = rng.sample(pair, 2) + rng.sample(ball, rng.randint(0, 2))
        support_b = [w] + rng.sample(ball, rng.randint(0, 2))
        a_terms = {u: random_poly(rng) for u in support_a}
        b_terms = {u: rng.choice((1, random_poly(rng))) for u in support_b}
        a, b = HeckeElement(sys, a_terms), HeckeElement(sys, b_terms)
        a_twin, b_twin = OracleElement(sys, a_terms), OracleElement(sys, b_terms)
        for p in (None, -P_SYMBOL, Fraction(2, 3)):
            del calls[:]
            expected = oracle_exact_mul(a_twin, b_twin, p)
            assert oracle_merges(calls, len(a_terms),
                                 [u.word for u in b_terms]) > 0
            got = mul(a, b, p_override=p)
            assert_like_oracle(got, expected, ())
            assert ({u: list(c.terms) for u, c in got.terms.items()}
                    == {u: list(c.terms) for u, c in expected.terms.items()})


def clean_shortcut_cases():
    """(system, a's terms, b's terms) of exact products near the clean
    result of ``hecke._walk``: a power c_x p with a zero exponent (c_x =
    u + 1/u, one descent), two leaves on one word (cancelling, after a
    descent for p = u - 1/u or with no descent at all), a zero exponent
    from b's numerator, denominators 1 and above, and sums of basis terms
    with coefficients 1 or a monomial on seeded random graphs, which
    often take the shortcut."""
    free3 = verify.named_systems()["free3"]
    s, t, st, e = (free3.element(x) for x in ("s", "t", "s t", ""))
    u_sum, u_diff = LaurentPoly({1: 1, -1: 1}), LaurentPoly({1: 1, -1: -1})
    yield free3, {s: u_sum}, {s: 1}
    yield free3, {e: -u_diff, s: 1}, {s: 1}
    yield free3, {e: 1, st: -1}, {st: 1, e: 1}      # meeting with no descent
    yield free3, {s: u_sum}, {t: u_diff}
    yield free3, {s: Fraction(1, 2)}, {t: 2}
    yield free3, {s: Fraction(1, 2), t: LaurentPoly({1: 1})}, {st: 1, t: 1}
    yield free3, {s: Fraction(1, 2) * u_sum}, {s: Fraction(2, 3)}
    rng = random.Random(163)
    for _ in range(40):
        sys = random_system(rng)
        ball = sys.ball(3)
        yield sys, *({x: rng.choice((1, 1, -1, LaurentPoly({1: 2})))
                      for x in rng.sample(ball, min(len(ball),
                                                    rng.randint(1, 4)))}
                     for _ in range(2))


def test_clean_shortcut_results_are_canonical():
    """Whether or not ``hecke._walk`` skips the canonical pass, its result
    holds no zero numerator, is its own canonical form, and equals the
    oracle's, for every structure constant."""
    for sys, a_terms, b_terms in clean_shortcut_cases():
        a, b = HeckeElement(sys, a_terms), HeckeElement(sys, b_terms)
        a_twin, b_twin = OracleElement(sys, a_terms), OracleElement(sys, b_terms)
        for p in (None, -P_SYMBOL, Fraction(2, 3)):
            got = mul(a, b, p_override=p)
            assert all(c and 0 not in c.values() for c in got._num.values())
            assert (got._den, got._num) == hecke._canonical(got._den, got._num)
            assert_like_oracle(got, oracle_exact_mul(a_twin, b_twin, p), ())


def test_products_past_the_term_cap(monkeypatch, capsys, free3):
    """Exact and numeric products with one term more than
    ``MAX_PRODUCT_TERMS`` raise ``CapacityError`` naming the cap, and at
    the cap they do not; ``hecke --expr`` then exits 1 with nothing on
    stdout.  Both modes count the terms of the summed result, so four
    terms times 1 pass a cap of 3, though no peel holds more than one."""
    v, w = free3.element("s t u"), free3.element("u t s")
    sizes = {q: len(mul(t_basis(v, q), t_basis(w, q)).terms)
             for q in (None, 0.7)}
    for q, n in sizes.items():
        assert n > 3
        monkeypatch.setattr(hecke, "MAX_PRODUCT_TERMS", n)
        assert len(mul(t_basis(v, q), t_basis(w, q)).terms) == n
        monkeypatch.setattr(hecke, "MAX_PRODUCT_TERMS", n - 1)
        with pytest.raises(CapacityError, match=f"the cap of {n - 1}$"):
            mul(t_basis(v, q), t_basis(w, q))
    monkeypatch.setattr(hecke, "MAX_PRODUCT_TERMS", 3)
    for q in (None, 0.7):
        four = HeckeElement(free3, {free3.element(x): 1
                                    for x in ("s", "t", "u", "s t")}, q)
        with pytest.raises(CapacityError, match="the cap of 3$"):
            mul(four, unit(free3, q))
    assert main(["hecke", "--group", str(GROUPS / "free3.json"),
                 "--expr", "T(s t u)*T(u t s)"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and "cap of 3" in err


def test_products_leave_their_factors_alone():
    """mul starts each term's powers c_x p^k from a's own numerator dicts,
    and the adjoint and j share dicts with their argument: no product,
    sum, scale, adjoint or j writes into an operand's numerators, exact
    (with numerators 1 on b, which are added as they are, or not) or
    numeric."""
    rng = random.Random(157)
    for _ in range(30):
        sys = random_system(rng)
        ball = sys.ball(3)
        a, b = (random_exact_element(rng, sys, ball, 5) for _ in range(2))
        ones = HeckeElement(sys, {u: 1 for u in [sys.identity] + rng.sample(
            ball, min(6, len(ball)))})
        exact = [a, b, ones, a.star(), j_iso(a)]
        numeric = [x.specialize(0.7) for x in exact]
        before = [copy.deepcopy(x._num) for x in exact + numeric]
        for x, y in itertools.product(exact, repeat=2):
            mul(x, y), mul(x, y, p_override=Fraction(2, 3)), x + y
            x.scale(LaurentPoly({1: 2})), x.star(), j_iso(x)
        for x, y in itertools.product(numeric, repeat=2):
            mul(x, y), mul(x, y, p_override=-0.5), x + y
            x.scale(0.5), x.star()
        for x, num in zip(exact + numeric, before):     # order included
            assert repr(x._num) == repr(num)


def expected_product(a, b):
    """ab from the unnormalized oracle: T_v T_w is u^{-|v|-|w|} T~_v T~_w,
    and T~_x = u^{|x|} T_x."""
    sys = a.system
    out = {}
    for v, ca in a.terms.items():
        for w, cb in b.terms.items():
            for x, c in oracle_unnormalized_mul(sys, v, w).items():
                term = ca * cb * c * LaurentPoly.u_power(
                    len(x) - len(v) - len(w))
                out[x] = out.get(x, LaurentPoly.zero()) + term
    return HeckeElement(sys, out)


def random_graph_cases(seed, count=40):
    """Seeded random graphs, each with a few pairs of 1-3-term rational
    elements supported on ball(4)."""
    rng = random.Random(seed)
    for _ in range(count):
        sys = random_system(rng)
        ball = sys.ball(4)
        for _ in range(5):
            yield (random_exact_element(rng, sys, ball),
                   random_exact_element(rng, sys, ball))


def test_mul_matches_oracle_on_random_graphs():
    for a, b in random_graph_cases(61):
        assert mul(a, b) == expected_product(a, b), (a, b)


def test_j_homomorphism_on_random_graphs():
    for a, b in random_graph_cases(67):
        assert j_iso(mul(a, b)) == mul(j_iso(a), j_iso(b),
                                       p_override=-P_SYMBOL)


def test_rational_p_override_matches_numeric():
    """An exact rational structure constant against the float recursion
    of numeric mode with the same constant."""
    q = 0.6
    for a, b in itertools.islice(random_graph_cases(71), 60):
        for p in (Fraction(2, 3), -3):
            exact = mul(a, b, p_override=p).specialize(q)
            numeric = mul(a.specialize(q), b.specialize(q),
                          p_override=float(p))
            for w in set(exact.terms) | set(numeric.terms):
                lhs, rhs = exact.coefficient(w), numeric.coefficient(w)
                assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(lhs))


#: SHA-256 over the ``str`` of the products of :func:`exact_pin_products`,
#: recorded by running that function on the parent of the change that peels
#: the shorter factor (commit 2cb6f02, where the left factor was always
#: peeled from the left).
EXACT_PRODUCTS_PIN = ("f2d46e962482dda351f49c226078921e"
                      "3e97017e8d931b75a4074c115d32c969")


def exact_pin_products():
    """Exact products ab on the named systems and 10 seeded random graphs,
    with every structure constant in use.  a has 1-3 rational terms on a
    ball of random radius up to 5, and b adds to a's adjoint 1-3 such
    terms on another ball, so that lengths differ and descents occur."""
    rng = random.Random(83)
    systems = list(verify.named_systems().values())
    systems += [random_system(rng) for _ in range(10)]
    for sys in systems:
        balls = [sys.ball(r) for r in range(6)]
        for _ in range(8):
            a, b = (random_exact_element(rng, sys, rng.choice(balls))
                    for _ in range(2))
            for p in (None, -P_SYMBOL, Fraction(2, 3), 3):
                yield mul(a, b + a.star(), p_override=p)


def test_exact_products_pinned():
    digest = hashlib.sha256()
    for product in exact_pin_products():
        digest.update(str(product).encode() + b"\n")
    assert digest.hexdigest() == EXACT_PRODUCTS_PIN


#: SHA-256 over the ``str`` of the products of :func:`generic_p_cases`,
#: recorded on the parent of the change that peels exact products in one
#: right pass per word of the right factor (commit a6dac9c, where they
#: went through the adjoint).
GENERIC_P_PIN = ("452d5a9d9ec52b96524cd6ceb52a8164"
                 "ecc229a973322f4f879288a6819f98d7")

#: Structure constants beyond P_SYMBOL: T_s^2 = 1 + p T_s gives an
#: associative algebra for every p.
GENERIC_PS = (-P_SYMBOL, Fraction(2, 3), 3,
              LaurentPoly({1: Fraction(1, 2), -1: -3}))


def generic_p_cases():
    """Triples of 3-8-term rational elements on ball(4) of 40 seeded
    random graphs."""
    rng = random.Random(101)
    for _ in range(40):
        sys = random_system(rng)
        ball = sys.ball(4)
        yield tuple(random_exact_element(rng, sys, ball, 8, 3)
                    for _ in range(3))


def test_generic_p_override_associative_and_dual():
    """(ab)c == a(bc) for every structure constant in GENERIC_PS, and the
    duality isomorphism on ab, with the products pinned."""
    digest = hashlib.sha256()
    for a, b, c in generic_p_cases():
        for p in GENERIC_PS:
            ab = mul(a, b, p_override=p)
            abc = mul(ab, c, p_override=p)
            assert abc == mul(a, mul(b, c, p_override=p), p_override=p)
            digest.update(f"{ab}\n{abc}\n".encode())
        assert j_iso(mul(a, b)) == mul(j_iso(a), j_iso(b),
                                       p_override=-P_SYMBOL)
    assert digest.hexdigest() == GENERIC_P_PIN


#: SHA-256 over the words and the ``float.hex`` of the coefficients of the
#: products of :func:`numeric_pin_cases`, recorded when numeric products
#: took the exact product's depth-first walk: each term of a walks alone by
#: each word of b, and each target sums its leaves in the walk's order
#: (:func:`depth_first_product`).
NUMERIC_PRODUCTS_PIN = ("aff5b88a6ca16cd17ffc2ea1e05b778c"
                        "2ee9c54398ad19c2cc6f955ad3bf7509")


def numeric_pin_cases():
    """920 numeric factors (a, b, p_override) on the named systems and 20
    seeded random graphs, at random q in (0.05, 4) and with p_override None
    and a random float.  a has 1-4 float terms on a ball of random radius
    up to 5, and b adds to a's adjoint 1-4 such terms on another ball."""
    rng = random.Random(89)
    systems = list(verify.named_systems().values())
    systems += [random_system(rng) for _ in range(20)]
    for sys in systems:
        balls = [sys.ball(r) for r in range(6)]
        for _ in range(20):
            q = rng.uniform(0.05, 4)
            a, b = (HeckeElement(sys, {rng.choice(ball): rng.uniform(-3, 3)
                                       for _ in range(rng.randint(1, 4))}, q)
                    for ball in (rng.choice(balls), rng.choice(balls)))
            for p in (None, rng.uniform(-2, 2)):
                yield a, b + a.star(), p


def test_numeric_products_pinned():
    digest = hashlib.sha256()
    count = 0
    for a, b, p in numeric_pin_cases():
        product = mul(a, b, p_override=p)
        for w in product.support():
            digest.update(f"{w.word} {product.terms[w].hex()}\n".encode())
        digest.update(b"\n")
        count += 1
    assert count == 920
    assert digest.hexdigest() == NUMERIC_PRODUCTS_PIN


def depth_first_product(a, b, p=None) -> dict:
    """The numeric product ab as {canonical word: float}, stepped with
    ``CoxeterSystem._step``: for each word w of b and each term c_x T_x of
    a, x walks by the letters of w; at a descent the branch of xs goes
    first and that of x, times p, after it.  Each leaf adds c_x p^k (each
    power the one before times p) times b's coefficient at w into its
    target, so a target sums its leaves in depth-first order."""
    sys, out = a.system, {}
    p = a._p() if p is None else p

    def walk(x, letters, c, cw):
        for i, s in enumerate(letters):
            xs, delta = sys._step(x, s, RIGHT)
            if delta < 0:
                walk(xs, letters[i + 1:], c, cw)
                walk(x, letters[i + 1:], c * p, cw)
                return
            x = xs
        out[x] = out[x] + c * cw if x in out else c * cw

    for w, cw in b._num.items():
        for x, c in a._num.items():
            walk(x, w, c, cw)
    return {x: c for x, c in out.items() if c}


def test_numeric_products_match_the_depth_first_reference():
    """Every product of the numeric pin equals the depth-first reference
    float for float."""
    for a, b, p in numeric_pin_cases():
        got = mul(a, b, p_override=p)._num
        assert {x: c.hex() for x, c in got.items()} == \
            {x: c.hex() for x, c in depth_first_product(a, b, p).items()}


def walk_leaves(sys, x, letters, side=RIGHT) -> list:
    """The leaves of the walk of x by ``letters``, stepped on ``side`` with
    ``CoxeterSystem._step``, as (target, descents): a descent leaves a
    branch at x with one more descent and goes on at xs (at sx on the
    left)."""
    branches, leaves = [(x, 0, 0)], []
    while branches:
        x, i, k = branches.pop()
        for j in range(i, len(letters)):
            xs, delta = sys._step(x, letters[j], side)
            if delta < 0:
                branches.append((x, j + 1, k + 1))
            x = xs
        leaves.append((x, k))
    return leaves


def test_a_walks_leaves_have_distinct_targets(named_systems):
    """No walk of one word by another reaches a target twice, over every
    pair of ball(4) of the named systems and of ball(3) of 30 seeded
    random graphs, so only the order of the walks reaches a float sum.
    The left walk of w by the letters of x from the last, T_x T_w =
    T_{s1}(..(T_{sm} T_w)), which ``action_matrix`` takes on the left, has
    distinct targets too, with the descents of the right walk of x by w."""
    rng = random.Random(4513)
    cases = [(sys, 4) for sys in named_systems.values()]
    cases += [(random_system(rng), 3) for _ in range(30)]
    branched = 0
    for sys, radius in cases:
        words = [w.word for w in sys.ball(radius)]
        for x in words:
            for w in words:
                leaves = walk_leaves(sys, x, w)
                targets = dict(leaves)
                assert len(targets) == len(leaves), (sys, x, w)
                left = walk_leaves(sys, w, x[::-1], LEFT)
                assert len(left) == len(leaves), (sys, x, w)
                assert dict(left) == targets, (sys, x, w)
                branched += len(leaves) > 1
    assert branched > 90_000


def oracle_twins(rng, sys, ball, n_terms=3, min_terms=1):
    """A random exact element, summed term by term as in
    random_exact_element, its OracleElement twin, and the terms."""
    items = [(rng.choice(ball),
              LaurentPoly({rng.randint(-1, 1): Fraction(rng.randint(-3, 3),
                                                        rng.randint(1, 3))}))
             for _ in range(rng.randint(min_terms, n_terms))]
    elem, twin = HeckeElement(sys), OracleElement(sys)
    for w, c in items:
        elem = elem + t_basis(w).scale(c)
        twin = twin + OracleElement(sys, {w: 1}).scale(c)
    return elem, twin, items


def assert_like_oracle(elem, twin, words):
    """elem reads as its twin through every public accessor; the
    coefficients are compared on ``words`` and on the twin's support."""
    assert str(elem) == str(twin)
    assert bool(elem) == bool(twin)
    assert elem.phi() == twin.phi()
    assert elem.support() == twin.support()
    for w in set(words) | set(twin.terms):
        assert elem.coefficient(w) == twin.coefficient(w)
    assert elem.terms == twin.terms
    assert ({w: [type(x) for x in c.terms.values()]
             for w, c in elem.terms.items()}
            == {w: [type(x) for x in c.terms.values()]
                for w, c in twin.terms.items()})


def assert_same(x, y):
    assert x == y and hash(x) == hash(y)


def test_canonical_form_matches_oracle():
    """On 60 seeded random graphs, exact elements in the numerator form
    read, compare and hash as the {Element: LaurentPoly} oracle says:
    sums in two orders, a - a, a scale undone, j twice, the adjoint, and
    products with every structure constant of exact_pin_products and
    with a copy of u - 1/u built in the other order."""
    rng = random.Random(113)
    for _ in range(60):
        sys = random_system(rng)
        ball = sys.ball(4)
        a, a_twin, items = oracle_twins(rng, sys, ball)
        b, b_twin, _ = oracle_twins(rng, sys, ball, 8, 3)
        assert_like_oracle(a, a_twin, ball)
        assert_like_oracle(b, b_twin, ball)
        assert (a == b) == (a_twin == b_twin)

        backwards = HeckeElement(sys)
        for w, c in reversed(items):
            backwards = t_basis(w).scale(c) + backwards
        assert_same(backwards, a)
        assert_like_oracle(a + b, a_twin + b_twin, ball)
        assert_same(b + a, a + b)
        assert_same((a + b) - b, a)

        zero = a - a
        assert_like_oracle(zero, a_twin - a_twin, ball)
        assert_same(zero, HeckeElement(sys))
        assert str(zero) == "0" and not zero

        c = Fraction(rng.choice((-5, -2, 3, 7)), rng.choice((1, 4, 9)))
        for scalar, inverse in ((c, 1 / c),
                                (LaurentPoly({2: c}), LaurentPoly({-2: 1 / c}))):
            assert_like_oracle(a.scale(scalar), a_twin.scale(scalar), ball)
            assert_same(a.scale(scalar).scale(inverse), a)
        assert_like_oracle(b.scale(P_SYMBOL), b_twin.scale(P_SYMBOL), ball)

        assert_like_oracle(j_iso(a), a_twin.j(), ball)
        assert_same(j_iso(j_iso(a)), a)
        assert_like_oracle(a.star(), a_twin.star(), ball)

        for p in (None, -P_SYMBOL, Fraction(2, 3), 3,
                  LaurentPoly({-1: -1, 1: 1})):
            product = mul(a, b + a.star(), p_override=p)
            expected = oracle_exact_mul(a_twin, b_twin + a_twin.star(), p)
            assert_like_oracle(product, expected, ball)


def count_elements(monkeypatch) -> list:
    """The words of the ``Element``s that ``hecke`` builds from now on."""
    built = []

    class Counted(Element):
        def __init__(self, system, word):
            built.append(word)
            super().__init__(system, word)

    monkeypatch.setattr(hecke, "Element", Counted)
    return built


def test_terms_built_once_and_only_when_read(monkeypatch):
    """Exact sums, products, the adjoint, j, comparison, hashing and
    printing build no Element; the first read of ``terms`` builds one per
    support word, and later reads build none."""
    rng = random.Random(127)
    sys = verify.named_systems()["pentagon"]
    ball = sys.ball(3)
    a, b = (random_exact_element(rng, sys, ball, 6, 3) for _ in range(2))
    built = count_elements(monkeypatch)
    c = j_iso(mul(a, b) + b.star()).scale(Fraction(2, 3)) - a
    assert c == c.scale(1) and hash(c) == hash(c.scale(1)) and c
    str(c)
    assert built == []
    terms = c.terms
    assert sorted(built) == sorted(w.word for w in terms) and built
    assert c.terms is terms and len(built) == len(terms)


def test_specialize_and_fallback_build_no_element(monkeypatch, free3):
    """``specialize`` reads the numerators, and ``action_matrix`` past the
    cap indexes the ball by word; neither builds an Element."""
    rng = random.Random(131)
    sys = verify.named_systems()["pentagon"]
    a = random_exact_element(rng, sys, sys.ball(3), 6, 3)
    ball = free3.ball(2)                  # ball(3) has 22 elements
    monkeypatch.setattr(hecke, "DEFAULT_MAX_BALL", 20)
    built = count_elements(monkeypatch)
    assert a.specialize(0.37)
    for side in (LEFT, RIGHT):
        action_matrix(t_basis(free3.element("s t"), q=0.5), ball, side)
    assert built == [] and free3._ball_cache is None


def test_specialize_matches_evaluating_terms():
    """On 60 seeded random graphs, ``specialize(q)`` holds, float for
    float, each coefficient of ``terms`` evaluated at sqrt(q)."""
    rng = random.Random(137)
    for _ in range(60):
        sys = random_system(rng)
        ball = sys.ball(3)
        a = random_exact_element(rng, sys, ball, 6, 2)
        a = mul(a, random_exact_element(rng, sys, ball, 4)) + a.scale(
            Fraction(rng.randint(1, 9), rng.randint(1, 9)))
        q = rng.choice((0.05, 0.37, 1.0, 2.5, 11.0))
        expected = {w: c.evaluate(math.sqrt(q)) for w, c in a.terms.items()}
        got = a.specialize(q)
        assert got.q == q
        assert ({w: f.hex() for w, f in got.terms.items()}
                == {w: f.hex() for w, f in expected.items() if f})


def test_verify_suite_covers_random_graphs():
    for seed in (0, 1):
        result = suite_hecke(seed)
        assert result.passed and "5 random graphs" in result.detail


def test_laurent_integral_coefficients():
    """Integral coefficients are stored as int; equality, hashing and
    printing do not tell them from Fractions, and others stay Fractions."""
    boxed, plain = LaurentPoly({0: Fraction(4, 2)}), LaurentPoly({0: 2})
    assert boxed == plain and hash(boxed) == hash(plain)
    assert str(boxed) == str(plain) == "2"
    assert type(boxed.terms[0]) is int
    third = LaurentPoly({1: Fraction(1, 3), 0: Fraction(-6, 3)})
    assert third.terms == {1: Fraction(1, 3), 0: -2}
    assert type(third.terms[1]) is Fraction
    assert str(third) == "-2 + 1/3*u"
    assert (third + third).terms[1] == Fraction(2, 3)
    assert (third * LaurentPoly.const(3)).terms == {1: 1, 0: -6}
    assert type((third * 3).terms[1]) is int


@pytest.mark.parametrize("terms", [{0.5: 1}, {0.5: 1, 0: 2},
                                   {Fraction(3, 2): 1}, {"2": 1}, {1.0: 0}])
def test_laurent_refuses_non_integral_exponents(terms):
    """An exponent used to pass through ``int``: {0.5: 1, 0: 2} was the
    constant 2 and {"2": 1} was u^2."""
    with pytest.raises(InputError, match="is not an integer"):
        LaurentPoly(terms)


@pytest.mark.parametrize("c", [0.1, 0.5, "1/3", float("nan"), float("inf"),
                               Decimal("0.5"), Decimal("NaN"), 1j])
def test_laurent_refuses_non_rational_coefficients(c):
    """A coefficient used to pass through ``Fraction``: 0.1 became
    3602879701896397/36028797018963968, "1/3" became 1/3, and NaN raised
    a bare ValueError."""
    with pytest.raises(InputError, match=re.escape(f"coefficient {c!r} is "
                                                   "not rational")):
        LaurentPoly({0: 1, 1: c})


def test_laurent_takes_rational_coefficient_types():
    """bool and numpy integers are ``numbers.Rational`` and read as ints."""
    p = LaurentPoly({0: True, 1: np.int64(3), 2: Fraction(np.int64(4), 2)})
    assert p.terms == {0: 1, 1: 3, 2: 2}
    assert all(type(c) is int for c in p.terms.values())


def oracle_terms(c: dict) -> dict:
    """A {k: rational} dict as the oracle holds it: Fractions, no zeros."""
    return {k: Fraction(x) for k, x in c.items() if x}


def oracle_add(a: dict, b: dict) -> dict:
    out = dict(a)
    for k, x in b.items():
        out[k] = out.get(k, 0) + x
    return oracle_terms(out)


def oracle_mul(a: dict, b: dict) -> dict:
    out = {}
    for k, x in a.items():
        for j, y in b.items():
            out[k + j] = out.get(k + j, 0) + x * y
    return oracle_terms(out)


def assert_canonical(p: LaurentPoly, oracle: dict):
    """p holds the value of the Fraction dict ``oracle`` in canonical form:
    a positive denominator, no zero numerator, no common factor, and the
    ``terms`` view as ints where integral and as ``_num`` when d = 1."""
    assert p._den > 0 and 0 not in p._num.values()
    assert math.gcd(p._den, *p._num.values()) == 1
    assert {k: Fraction(n, p._den) for k, n in p._num.items()} == oracle
    assert p.terms == oracle
    assert all((type(c) is int) == (c.denominator == 1) for c in p.terms.values())
    assert p._den > 1 or p.terms is p._num


def random_rational_dict(rng: random.Random) -> dict:
    """Up to five terms of u^-3 .. u^3, ints and Fractions, zeros among them,
    with denominators that share factors."""
    return {rng.randint(-3, 3): rng.choice((
        rng.randint(-6, 6), Fraction(rng.randint(-12, 12), rng.choice((1, 2, 3, 4, 6, 12)))))
            for _ in range(rng.randint(0, 5))}


def test_laurent_canonical_form_matches_fraction_oracle():
    """On 400 seeded random {k: int | Fraction} dicts, the constructor, +,
    -, *, negation and scalars give the Fraction oracle's value in
    canonical form; equal values reached by other routes hold equal
    (_den, _num) and hash alike, and a pickle keeps all three."""
    rng = random.Random(149)
    for _ in range(400):
        x, y = random_rational_dict(rng), random_rational_dict(rng)
        a, b = LaurentPoly(x), LaurentPoly(y)
        ox, oy = oracle_terms(x), oracle_terms(y)
        assert_canonical(a, ox)
        assert_canonical(b, oy)
        assert_canonical(a + b, oracle_add(ox, oy))
        assert_canonical(a - b, oracle_add(ox, {k: -c for k, c in oy.items()}))
        assert_canonical(-a, {k: -c for k, c in ox.items()})
        assert_canonical(a * b, oracle_mul(ox, oy))
        c = Fraction(rng.randint(-4, 4), rng.randint(1, 6))
        assert_canonical(c * a, oracle_mul({0: c}, ox))
        assert_canonical(a + c, oracle_add(ox, oracle_terms({0: c})))
        routes = [a + b, b + a, (a - b) + b + b, a * b * LaurentPoly({0: 1}) + b
                  - a * b + a, LaurentPoly(oracle_add(ox, oy)),
                  pickle.loads(pickle.dumps(a + b))]
        for r in routes:
            assert (r._den, r._num, hash(r)) == (routes[0]._den, routes[0]._num,
                                                 hash(routes[0]))
            assert r == routes[0]


def test_hecke_terms_and_inner_are_canonical(dihedral):
    """Over the element's denominator 6, the numerators 2 + 4u of T_s are
    all even: ``terms`` and ``inner`` still give canonical polynomials."""
    s, t = dihedral.element("s"), dihedral.element("t")
    a = HeckeElement(dihedral, {s: LaurentPoly({0: Fraction(1, 3), 1: Fraction(2, 3)}),
                                t: Fraction(1, 6)})
    assert (a._den, a._num) == (6, {s.word: {0: 2, 1: 4}, t.word: {0: 1}})
    assert_canonical(a.terms[s], {0: Fraction(1, 3), 1: Fraction(2, 3)})
    assert_canonical(a.terms[t], {0: Fraction(1, 6)})
    b = HeckeElement(dihedral, {s: 3, t: Fraction(1, 2)})
    assert_canonical(inner(a, b), {0: Fraction(13, 12), 1: 2})
    assert_canonical(inner(a, a), oracle_add(
        oracle_mul(*[{0: Fraction(1, 3), 1: Fraction(2, 3)}] * 2),
        {0: Fraction(1, 36)}))
    rng = random.Random(151)
    for _ in range(50):
        x = random_exact_element(rng, dihedral, dihedral.ball(3), 6, 2)
        for c in x.terms.values():
            assert_canonical(c, oracle_terms(c.terms))
        assert_canonical(inner(x, x), oracle_terms(inner(x, x).terms))


def test_laurent_takes_numpy_integer_exponents():
    assert LaurentPoly({np.int64(2): 3, np.int8(-1): 1}).terms == {2: 3, -1: 1}


def test_laurent_evaluate_independent_of_term_order():
    """Equal polynomials evaluate to the same float, even where their
    terms cancel and come in another order."""
    a = LaurentPoly({-2: 1, 0: -2, 2: 1})
    b = LaurentPoly({2: 1, -2: 1, 0: -2})
    assert a == b
    assert a.evaluate(1.0000003) == b.evaluate(1.0000003)


def test_associativity_random_triples(z2sq_z2):
    rng = random.Random(17)
    ball = z2sq_z2.ball(3)
    for _ in range(150):
        a = random_exact_element(rng, z2sq_z2, ball)
        b = random_exact_element(rng, z2sq_z2, ball)
        c = random_exact_element(rng, z2sq_z2, ball)
        assert mul(mul(a, b), c) == mul(a, mul(b, c))


# -- involution --------------------------------------------------------------------

def test_star_examples(dihedral):
    assert unit(dihedral).star() == unit(dihedral)
    assert t_basis(dihedral.element("st")).star() == \
        t_basis(dihedral.element("ts"))
    assert t_tilde(dihedral.element("st")).star() == \
        t_tilde(dihedral.element("ts"))


def test_star_antimultiplicative(z2sq_z2):
    rng = random.Random(23)
    ball = z2sq_z2.ball(3)
    for _ in range(60):
        a = random_exact_element(rng, z2sq_z2, ball)
        b = random_exact_element(rng, z2sq_z2, ball)
        assert a.star().star() == a
        assert mul(a, b).star() == mul(b.star(), a.star())


# -- duality ------------------------------------------------------------------------

def test_j_on_unit_and_involutivity(dihedral):
    rng = random.Random(31)
    assert j_iso(unit(dihedral)) == unit(dihedral)
    ball = dihedral.ball(3)
    for _ in range(40):
        a = random_exact_element(rng, dihedral, ball)
        assert j_iso(j_iso(a)) == a
        assert j_iso(a.star()) == j_iso(a).star()


def test_j_homomorphism_into_minus_p_algebra(named_systems):
    rng = random.Random(37)
    for sys in named_systems.values():
        ball = sys.ball(3)
        for _ in range(40):
            a = random_exact_element(rng, sys, ball)
            b = random_exact_element(rng, sys, ball)
            assert j_iso(mul(a, b)) == mul(j_iso(a), j_iso(b),
                                           p_override=-P_SYMBOL)


def test_j_square_of_generator(dihedral):
    s = t_basis(dihedral.element("s"))
    lhs = j_iso(mul(s, s))
    rhs = mul(j_iso(s), j_iso(s), p_override=-P_SYMBOL)
    assert lhs == rhs == unit(dihedral) - s.scale(P_SYMBOL)


def test_j_rejects_numeric(dihedral):
    with pytest.raises(InputError):
        j_iso(t_basis(dihedral.element("s"), q=0.5))


# -- state and inner products ----------------------------------------------------------

def test_phi_examples(dihedral):
    assert state_phi(t_basis(dihedral.element("st"))) == LaurentPoly.zero()
    s = t_basis(dihedral.element("s"))
    assert state_phi(mul(s, s)) == LaurentPoly.one()


def test_phi_tracial_at_desk_scale(z2sq_z2):
    rng = random.Random(41)
    ball = z2sq_z2.ball(3)
    for _ in range(60):
        a = random_exact_element(rng, z2sq_z2, ball)
        b = random_exact_element(rng, z2sq_z2, ball)
        assert state_phi(mul(a, b)) == state_phi(mul(b, a))


def test_phi_positive_numeric(free3):
    rng = random.Random(43)
    ball = free3.ball(3)
    for q in (0.3, 1.0, 2.5):
        for _ in range(30):
            a = random_exact_element(rng, free3, ball).specialize(q)
            val = state_phi(mul(a.star(), a))
            assert val >= -1e-12


def test_inner_and_norm(dihedral):
    s, t = dihedral.element("s"), dihedral.element("t")
    assert inner(t_basis(s), t_basis(s)) == LaurentPoly.one()
    assert inner(t_basis(s), t_basis(t)) == LaurentPoly.zero()
    a = unit(dihedral) + t_basis(s).scale(P_SYMBOL)
    assert inner(a, a) == LaurentPoly.one() + P_SYMBOL * P_SYMBOL
    q = 0.25
    an = a.specialize(q)
    p = (q - 1) / q ** 0.5
    assert l2_norm(an) == pytest.approx((1 + p * p) ** 0.5)
    with pytest.raises(InputError):
        l2_norm(a)


def test_inner_hermitian_numeric(z2sq_z2):
    rng = random.Random(47)
    ball = z2sq_z2.ball(3)
    for _ in range(30):
        a = random_exact_element(rng, z2sq_z2, ball).specialize(0.7)
        b = random_exact_element(rng, z2sq_z2, ball).specialize(0.7)
        assert inner(a, b) == pytest.approx(inner(b, a))


def test_inner_independent_of_term_order():
    """Equal numeric elements built in two insertion orders have equal
    pairings and norms."""
    rng = random.Random(101)
    sys = verify.named_systems()["pentagon"]
    ball = sys.ball(4)
    for _ in range(300):
        items = [(w, rng.uniform(-3, 3)) for w in rng.sample(ball, 6)]
        a = HeckeElement(sys, dict(items), q=1.5)
        b = HeckeElement(sys, dict(reversed(items)), q=1.5)
        assert a == b and list(a.terms) != list(b.terms)
        assert inner(a, a) == inner(b, b) == inner(a, b)
        assert l2_norm(a) == l2_norm(b)


def test_specialization_consistency(named_systems):
    rng = random.Random(53)
    for sys in named_systems.values():
        ball = sys.ball(3)
        for q in (0.25, 1.0, 3.0):
            for _ in range(20):
                a = random_exact_element(rng, sys, ball)
                b = random_exact_element(rng, sys, ball)
                exact = mul(a, b).specialize(q)
                numeric = mul(a.specialize(q), b.specialize(q))
                for w in set(exact.terms) | set(numeric.terms):
                    lhs, rhs = exact.coefficient(w), numeric.coefficient(w)
                    assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))


# -- action matrices ----------------------------------------------------------------

def test_action_matrix_identity(free3):
    ball = free3.ball(2)
    am = action_matrix(unit(free3, q=0.5), ball)
    assert np.allclose(am.matrix, np.eye(len(ball)))
    assert am.exact_columns.all()


def test_action_matrix_generator_columns(free3):
    q = 0.4
    ball = free3.ball(3)
    index = {w: i for i, w in enumerate(ball)}
    s = free3.element("s")
    am = action_matrix(t_basis(s, q=q), ball, side=LEFT)
    for j, w in enumerate(ball):
        sw, delta = free3.mult_gen(w, 0, LEFT)
        if delta > 0 and len(sw) <= 3:
            col = am.matrix[:, j]
            assert col[index[sw]] == 1.0
            assert np.count_nonzero(col) == 1
            assert am.exact_columns[j]
        if len(w) == 3 and delta > 0:
            assert not am.exact_columns[j]


def test_action_matrix_requires_numeric(free3):
    with pytest.raises(InputError):
        action_matrix(t_basis(free3.element("s")), free3.ball(2))


def test_left_right_actions_commute_on_exact_columns(named_systems):
    """Composites of a left and a right generator action agree wherever
    both evaluation orders stay inside the ball."""
    q = 0.6
    for sys in named_systems.values():
        ball = sys.ball(3)
        for si, ti in itertools.permutations(range(min(sys.n, 3)), 2):
            ls = action_matrix(t_basis(sys.element([si]), q=q), ball, LEFT)
            rt = action_matrix(t_basis(sys.element([ti]), q=q), ball, RIGHT)
            comm = ls.matrix @ rt.matrix - rt.matrix @ ls.matrix
            # columns whose full two-step images stay in the ball
            safe = [j for j, w in enumerate(ball) if len(w) <= 1]
            assert np.abs(comm[:, safe]).max() < 1e-12



def action_cases():
    """Inputs of the pinned action matrices, on the pentagon at q = 0.37."""
    sys = verify.named_systems()["pentagon"]
    q = 0.37

    def elem(terms):
        return HeckeElement(sys, {sys.element(w): c for w, c in terms}, q=q)

    b5, b4, b3 = sys.ball(5), sys.ball(4), sys.ball(3)
    # every third element backwards, a repeat and an element of length 4
    nonball = b4[::-3] + [b4[7], sys.element("p q r s")]
    return {
        "two-term": (elem([("p r", 1.25), ("q s", -0.8)]), b5),
        "unit": (unit(sys, q=q), b4),
        "zero": (unit(sys, q=q).scale(0), b3),
        "non-ball": (elem([("r", 0.5), ("p s t", -1.5)]), nonball),
        # T(s p) and T(s q) send T(p q r) outside ball(3) with opposite
        # coefficients, which cancel
        "cancel": (elem([("s p", 1.0), ("s q", -1.0)]), b3),
    }


# SHA-256 of matrix.tobytes() + exact_columns.tobytes(), recorded from
# the per-column products
ACTION_PINS = {
    ("two-term", "left"):
        "47b1780003d06455b5ac5d398c7f6ef921e95b1f9ed2631ee3384c14e2a71889",
    ("two-term", "right"):
        "e378c4ef5f731c1f66d7c5aca1d3d11aec6fd877fe7874658e6a93af1210fb21",
    ("unit", "left"):
        "5095150520cd4ba0b0f45b49c6cc853e589012c1ad9a3284790a518a2beb3e10",
    ("unit", "right"):
        "5095150520cd4ba0b0f45b49c6cc853e589012c1ad9a3284790a518a2beb3e10",
    ("zero", "left"):
        "6621e8ad9f7402523faa4234180a85f1e82115569675cb901518aaaba367f9df",
    ("zero", "right"):
        "6621e8ad9f7402523faa4234180a85f1e82115569675cb901518aaaba367f9df",
    ("non-ball", "left"):
        "1a7014cc1298aabd7cc3c91eca2e97e833cf535b2d05ab68067aeac47e68fe8d",
    ("non-ball", "right"):
        "9f8fab42cd6e55192c311a07c4dad052798b9c855debf61e3506093913e159eb",
    ("cancel", "left"):
        "af4f7d6cc5bc73766aae0c9c55e052f418daf6e8ce43e3b8a68cf1ce38287aef",
    ("cancel", "right"):
        "b084502181d2c66a7efdb92d57b6689b64511c3f34fdddf15229fdc0edea77e4",
}


def action_by_products(a, ball, side):
    """Matrix and exact flags column by column from one product each."""
    index = {w: i for i, w in enumerate(ball)}
    mat = np.zeros((len(ball), len(ball)))
    exact = np.ones(len(ball), dtype=bool)
    for j, w in enumerate(ball):
        basis = t_basis(w, q=a.q)
        image = mul(a, basis) if side == LEFT else mul(basis, a)
        for v, c in image.terms.items():
            if v in index:
                mat[index[v], j] = c
            else:
                exact[j] = False
    return mat, exact


@pytest.mark.parametrize("name,side", sorted(ACTION_PINS))
def test_action_matrix_pinned(name, side):
    a, ball = action_cases()[name]
    am = action_matrix(a, ball, side)
    mat, exact = action_by_products(a, ball, side)
    assert np.array_equal(am.matrix, mat)
    assert np.array_equal(am.exact_columns, exact)
    digest = hashlib.sha256(am.matrix.tobytes()
                            + am.exact_columns.tobytes()).hexdigest()
    assert digest == ACTION_PINS[name, side]


def test_action_matrix_cancellation_outside_ball():
    a, ball = action_cases()["cancel"]
    j = [str(w) for w in ball].index("p.q.r")
    one_term = HeckeElement(a.system, {a.system.element("s p"): 1.0}, q=a.q)
    assert action_matrix(a, ball, LEFT).exact_columns[j]
    assert not action_matrix(one_term, ball, LEFT).exact_columns[j]


def test_action_matrix_matches_products_on_random_graphs():
    """Bit for bit the per-column products, on seeded random graphs at a
    random q and at q = 1, where p = 0.0 and every branch a descent keeps
    is +-0.0, and for terms of length 4 on ball(4) of free3 and z2sq-z2,
    whose rows split several times."""
    rng = random.Random(2019)
    cases = []
    for _ in range(30):
        sys = random_system(rng, 6)
        ball = sys.ball(3)
        q = rng.uniform(0.05, 4.0)
        terms = {rng.choice(ball): rng.uniform(-2.0, 2.0)
                 for _ in range(rng.randint(0, 3))}
        lists = (ball, [rng.choice(ball) for _ in range(rng.randint(0, 12))])
        cases += [(HeckeElement(sys, terms, q=x), lst)
                  for x in (q, 1.0) for lst in lists]
    for sys in (verify.named_systems()[name] for name in ("free3", "z2sq-z2")):
        ball = sys.ball(4)
        length4 = [w for w in ball if len(w) == 4]
        terms = {w: rng.uniform(-2.0, 2.0) for w in rng.sample(length4, 3)}
        cases += [(HeckeElement(sys, terms, q=x), ball)
                  for x in (rng.uniform(0.05, 4.0), 1.0)]
    for (a, lst), side in itertools.product(cases, (LEFT, RIGHT)):
        am = action_matrix(a, lst, side)
        mat, exact = action_by_products(a, lst, side)
        assert np.array_equal(am.matrix, mat)
        assert np.array_equal(am.exact_columns, exact)


def test_action_matrix_beyond_table_cap(free3):
    """ball(21) of three involutions exceeds the table cap: the columns
    come from single products, with no CapacityError."""
    w = free3.element(["t", "u"] * 10)
    ball = [w, free3.identity, free3.element("s")]
    a = t_basis(free3.element("s"), q=0.5)
    for side in (LEFT, RIGHT):
        am = action_matrix(a, ball, side)
        mat, exact = action_by_products(a, ball, side)
        assert np.array_equal(am.matrix, mat)
        assert np.array_equal(am.exact_columns, exact)
        assert am.exact_columns.tolist() == [False, True, True]



def fresh_copy(sys):
    """The same Coxeter system as a new object, with nothing cached."""
    return CoxeterSystem(sys.names, [(i, j) for i in range(sys.n)
                                     for j in range(i + 1, sys.n)
                                     if sys.commutes(i, j)])


def test_action_matrix_reuses_cached_table_exactly():
    """Matrices read from the one table a system holds, at radii that grow
    and shrink, are bit for bit those of a system that builds afresh."""
    rng = random.Random(1523)
    for _ in range(20):
        sys = random_system(rng, 6)
        q = rng.uniform(0.05, 4.0)
        short = sys.ball(2)
        for radius in (1, 3, 0, 4, 2):
            ball = sys.ball(radius)
            a = HeckeElement(sys, {rng.choice(short): rng.uniform(-2.0, 2.0)
                                   for _ in range(rng.randint(0, 3))}, q=q)
            copy = fresh_copy(sys)
            a_copy = HeckeElement(copy, {copy.element(w.word): c
                                         for w, c in a.terms.items()}, q=q)
            ball_copy = [copy.element(w.word) for w in ball]
            for side in (LEFT, RIGHT):
                am = action_matrix(a, ball, side)
                ref = action_matrix(a_copy, ball_copy, side)
                assert am.matrix.tobytes() == ref.matrix.tobytes()
                assert am.exact_columns.tobytes() == ref.exact_columns.tobytes()


def test_action_matrix_builds_one_table_per_growth(monkeypatch):
    """One ball table per growth, and its left table only once a left
    call comes, kept until the table grows."""
    builds, lefts = [], []
    ball_table, left = CoxeterSystem.ball_table, BallTable.left

    def counted(self, radius, *args):
        builds.append(radius)
        return ball_table(self, radius, *args)

    def counted_left(self, *args):
        lefts.append(len(self.lengths))
        return left(self, *args)

    monkeypatch.setattr(CoxeterSystem, "ball_table", counted)
    monkeypatch.setattr(BallTable, "left", counted_left)
    sys = verify.named_systems()["pentagon"]
    a = HeckeElement(sys, {sys.element("p r"): 1.25,
                           sys.element("q s"): -0.8}, q=0.37)
    for _ in range(3):
        action_matrix(a, sys.ball(3), RIGHT)
    assert builds == [5] and lefts == []
    for k in range(10):
        action_matrix(a, sys.ball(3), LEFT if k % 2 else RIGHT)
    assert builds == [5] and lefts == [len(sys.ball(5))]
    action_matrix(a, sys.ball(4), RIGHT)
    assert builds == [5, 6] and len(lefts) == 1
    action_matrix(a, sys.ball(1), LEFT)
    action_matrix(unit(sys, q=0.37), sys.ball(5), LEFT)
    assert builds == [5, 6] and lefts == [len(sys.ball(5)), len(sys.ball(6))]


def test_action_matrix_maps_balls_in_table_order(monkeypatch, pentagon):
    """Ball lists on both sides, bit for bit the per-column products:
    fresh elements in table order and prefixes of a larger cached table
    map to the table's first rows with no word lookup; a permuted list
    with a repeat, and the ball in table order with that repeat appended,
    go through the word index."""
    lookups = []

    class Index(dict):
        def __getitem__(self, word):
            lookups.append(word)
            return dict.__getitem__(self, word)

    tables = hecke._action_table

    def counted(*args):
        entry = tables(*args)
        return entry._replace(index=Index(entry.index))

    monkeypatch.setattr(hecke, "_action_table", counted)
    a = HeckeElement(pentagon, {pentagon.element("p r"): 1.25,
                                pentagon.element("q s t"): -0.8}, q=0.37)
    fresh = [Element(pentagon, tuple(list(w.word))) for w in pentagon.ball(3)]
    repeat = pentagon.ball(3) + [pentagon.element("r s")]
    permuted = repeat[::-1]
    random.Random(7).shuffle(permuted)

    def check(ball, side, looked_up):
        lookups.clear()
        am = action_matrix(a, ball, side)
        mat, exact = action_by_products(a, ball, side)
        assert am.matrix.tobytes() == mat.tobytes()
        assert am.exact_columns.tobytes() == exact.tobytes()
        assert len(lookups) == looked_up

    for side in (LEFT, RIGHT):
        pentagon._ball_cache = None
        check(fresh, side, 0)
        check(permuted, side, len(permuted))
        check(repeat, side, len(repeat))
        assert pentagon._ball_cache.radius == 6
        action_matrix(unit(pentagon, q=0.37), pentagon.ball(8), side)
        assert pentagon._ball_cache.radius == 8
        check(pentagon.ball(4), side, 0)
        check(pentagon.ball(2)[:5], side, 0)


def test_action_matrix_adds_negative_zero_leaves_as_products_do(pentagon):
    """At q = 1, p = 0, so a descent leaf of a negative term is -0.0; the
    first term's scatter adds it to 0.0 as the per-column products do,
    leaving +0.0, bit for bit on both sides."""
    a = HeckeElement(pentagon, {pentagon.element("p r"): -1.25,
                                pentagon.element("q s"): -0.8,
                                pentagon.element("p"): -2.0}, q=1.0)
    ball = pentagon.ball(3)
    for side in (LEFT, RIGHT):
        am = action_matrix(a, ball, side)
        mat, exact = action_by_products(a, ball, side)
        assert not np.signbit(am.matrix[am.matrix == 0]).any()
        assert am.matrix.tobytes() == mat.tobytes()
        assert am.exact_columns.tobytes() == exact.tobytes()


def test_action_matrix_makes_no_sphere_count(monkeypatch, pentagon):
    """``ball_table`` checks its own cap, so ``action_matrix`` builds and
    reuses its table without counting the ball by the automaton."""
    counts = []
    sizes = CoxeterSystem.sphere_counts

    def counted(self, n, max_total):
        counts.append(n)
        return sizes(self, n, max_total)

    monkeypatch.setattr(CoxeterSystem, "sphere_counts", counted)
    a = HeckeElement(pentagon, {pentagon.element("p r"): 1.25}, q=0.37)
    for ball, side in ((pentagon.ball(3), LEFT), (pentagon.ball(3), RIGHT),
                       (pentagon.ball(2), LEFT), (pentagon.ball(4), RIGHT)):
        action_matrix(a, ball, side)
    assert pentagon._ball_cache[0] == 6
    assert counts == []


def test_action_matrix_past_cap_caches_nothing(monkeypatch, free3):
    """Past the cap the columns come from single products, as before, and
    the system keeps no table."""
    monkeypatch.setattr(hecke, "DEFAULT_MAX_BALL", 20)
    assert_falls_back(monkeypatch, free3)


def assert_falls_back(monkeypatch, free3):
    fallback = []
    by_products = hecke._action_by_products

    def counted(*args):
        fallback.append(args[2])
        return by_products(*args)

    monkeypatch.setattr(hecke, "_action_by_products", counted)
    ball = free3.ball(2)                  # ball(3) has 22 elements
    a = t_basis(free3.element("s"), q=0.5)
    for side in (LEFT, RIGHT):
        am = action_matrix(a, ball, side)
        mat, exact = action_by_products(a, ball, side)
        assert np.array_equal(am.matrix, mat)
        assert np.array_equal(am.exact_columns, exact)
    assert fallback == [LEFT, RIGHT]
    assert free3._ball_cache is None

# -- expression language ---------------------------------------------------------------

def test_parse_expression_basic(free3):
    e = parse_expression(free3, "T(s)*T(s)")
    assert e == mul(t_basis(free3.element("s")), t_basis(free3.element("s")))
    e = parse_expression(free3, "2/3 * T(s t) + star(T(u s)) - T(e)")
    expect = (t_basis(free3.element("s t")).scale(Fraction(2, 3))
              + t_basis(free3.element("s u")) - unit(free3))
    assert e == expect


def test_parse_expression_leading_sign(free3):
    s, t, u = (t_basis(free3.element(x)) for x in "stu")
    assert parse_expression(free3, "-T(s) + T(t)") == t - s
    assert parse_expression(free3, "+T(s)") == s
    assert parse_expression(free3, "-T(s)*T(t) - T(u)") == -mul(s, t) - u
    assert parse_expression(free3, "(-T(s))") == -s


def test_parse_expression_j(dihedral):
    e = parse_expression(dihedral, "j(T(s t s))")
    assert e == t_basis(dihedral.element("sts")).scale(-1)


def test_parse_expression_errors(free3):
    from coxhecke import ParseError
    with pytest.raises(ParseError):
        parse_expression(free3, "T(s) +")
    with pytest.raises(ParseError):
        parse_expression(free3, "frob(T(s))")
    with pytest.raises(InputError):
        parse_expression(free3, "T(x)")
    with pytest.raises(ParseError):
        parse_expression(free3, "T(s) ? T(t)")


@pytest.mark.parametrize("text, column", [("1/0", 1), ("3/0*T(s)", 1),
                                          ("T(s) + 2/00", 8)])
def test_parse_expression_zero_denominator(free3, text, column):
    from coxhecke import ParseError
    with pytest.raises(ParseError, match="zero denominator") as info:
        parse_expression(free3, text)
    assert info.value.column == column
    assert parse_expression(free3, "0/3 + 10/20*T(s)") == \
        t_basis(free3.element("s")).scale(Fraction(1, 2))


def test_printer_sorted_terms(free3):
    e = parse_expression(free3, "T(u) + T(s) + T(s t)")
    assert str(e) == "(1)*T(s) + (1)*T(u) + (1)*T(s.t)"
