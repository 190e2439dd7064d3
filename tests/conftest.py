import math
from fractions import Fraction

import pytest

from coxhecke import (LEFT, RIGHT, CoxeterSystem, Element, InputError,
                      LaurentPoly, PreconditionError, shortest_rep, verify)
from coxhecke.cosets import coset_elements
from coxhecke.growth import (FACTOR, FACTOR_PLUS_C, NOT_APPLICABLE,
                             CenterReport, ComponentClassification, rho_info)


def oracle_unnormalized_mul(sys, v, w):
    """Product T~_v T~_w in the unnormalized basis, peeling v's word.

    Independent of the package's product: the shortening rule picks up
    q and q - 1 (with q = u^2) directly on a coefficient dict.
    """
    q_poly = LaurentPoly({2: 1})
    qm1_poly = LaurentPoly({2: 1, 0: -1})
    terms = {w: LaurentPoly.one()}
    for s in reversed(v.word):
        nxt = {}
        for x, c in terms.items():
            sx, delta = sys.mult_gen(x, s, LEFT)
            if delta > 0:
                nxt[sx] = nxt.get(sx, LaurentPoly.zero()) + c
            else:
                nxt[sx] = nxt.get(sx, LaurentPoly.zero()) + q_poly * c
                nxt[x] = nxt.get(x, LaurentPoly.zero()) + qm1_poly * c
        terms = {x: c for x, c in nxt.items() if c}
    return terms


class OracleElement:
    """An exact Hecke element held as {Element: LaurentPoly}, each term
    checked and coerced on construction: the representation the package
    used before the numerator form, kept as that form's oracle."""

    def __init__(self, system, terms=None):
        self.system = system
        self.terms = {}
        for w, c in (terms or {}).items():
            if w.system is not system:
                raise InputError("basis element from a different system")
            c = c if isinstance(c, LaurentPoly) else LaurentPoly.const(c)
            if c:
                self.terms[w] = c

    def __add__(self, other):
        out = dict(self.terms)
        for w, c in other.terms.items():
            out[w] = out.get(w, LaurentPoly.zero()) + c
        return OracleElement(self.system, out)

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, c):
        c = c if isinstance(c, LaurentPoly) else LaurentPoly.const(c)
        return OracleElement(self.system,
                             {w: x * c for w, x in self.terms.items()})

    def __eq__(self, other):
        return self.system is other.system and self.terms == other.terms

    def __bool__(self):
        return bool(self.terms)

    def coefficient(self, w):
        return self.terms.get(w, LaurentPoly.zero())

    def support(self):
        return sorted(self.terms, key=Element.sort_key)

    def phi(self):
        return self.coefficient(self.system.identity)

    def star(self):
        return OracleElement(self.system, {self.system.inverse(w): c
                                           for w, c in self.terms.items()})

    def j(self):
        return OracleElement(self.system, {w: -c if len(w) % 2 else c
                                           for w, c in self.terms.items()})

    def __str__(self):
        return " + ".join(f"({self.terms[w]})*T({w})"
                          for w in self.support()) or "0"


def _oracle_numerators(polys):
    """A common denominator d of the LaurentPoly values of ``polys`` and d
    times each as an {exponent: int} dict."""
    d = 1
    for c in polys.values():
        for x in c.terms.values():
            if type(x) is not int:
                d = math.lcm(d, x.denominator)
    return d, {key: {e: x * d if type(x) is int
                     else x.numerator * (d // x.denominator)
                     for e, x in c.terms.items()}
               for key, c in polys.items()}


def _add_poly(c1, c2):
    out = dict(c1)
    for e, n in c2.items():
        out[e] = out.get(e, 0) + n
    return out


def _mul_poly_into(acc, c1, c2):
    for e1, n1 in c1.items():
        for e2, n2 in c2.items():
            acc[e1 + e2] = acc.get(e1 + e2, 0) + n1 * n2
    return acc


def oracle_exact_mul(a, b, p=None):
    """The exact product of two OracleElements as the package computed it
    before the numerator form: both factors cleared to integer numerators,
    a's peeled on the right by each word of b with p (default u - 1/u)
    times the coefficient on a descent, and each output divided by the
    product of the denominators."""
    sys = a.system
    p = LaurentPoly({1: 1, -1: -1}) if p is None else (
        p if isinstance(p, LaurentPoly) else LaurentPoly.const(p))
    da, num_a = _oracle_numerators({w.word: c for w, c in a.terms.items()})
    db, num_b = _oracle_numerators(b.terms)
    result = {}
    for w, cw in num_b.items():
        terms = num_a
        for s in w.word:
            nxt = {}
            for x, c in terms.items():
                xs, delta = sys._step(x, s, RIGHT)
                nxt[xs] = _add_poly(nxt.get(xs, {}), c)
                if delta < 0:
                    nxt[x] = _add_poly(nxt.get(x, {}),
                                       _mul_poly_into({}, c, p.terms))
            terms = nxt
        for x, c in terms.items():
            _mul_poly_into(result.setdefault(x, {}), c, cw)
    d = da * db
    return OracleElement(sys, {Element(sys, x): LaurentPoly(
        {e: Fraction(n, d) for e, n in acc.items()})
        for x, acc in result.items()})


def oracle_symbol_commutation(sys, s, xi, p):
    """The per-element loop check_symbol_commutation ran before it moved
    onto canonical words, kept as its oracle: three mult_gen calls for
    every key of xi, with no length cut."""
    s = sys.generator_index(s)
    witnesses = []
    for w in xi:
        ws, d2 = sys.mult_gen(w, s, RIGHT)
        if d2 < 0:
            continue
        sw, d1 = sys.mult_gen(w, s, LEFT)
        if d1 < 0:
            continue
        sws, d3 = sys.mult_gen(sw, s, RIGHT)
        if d3 < 0 or sws not in xi:
            continue
        if sw not in xi or ws not in xi:
            continue
        if xi[sw] != xi[ws] or xi[sws] != xi[w] + p * xi[sw]:
            witnesses.append(w)
    return sorted(witnesses, key=Element.sort_key)


def oracle_double_coset_check(system, pair, w, xi):
    """The body double_coset_symbol_check ran before it compared
    coefficient dicts, kept as its oracle: each coset element in xi against
    xi(w0) * u^(|v| - |w0|) as a LaurentPoly product, with !=."""
    info = shortest_rep(system, pair, w)
    if not info.nondegenerate:
        raise PreconditionError("the double coset is degenerate")
    w0 = info.w0
    if w0 not in xi:
        raise InputError("the coset's shortest element is outside the symbol")
    if any(v.system is not system for v in xi):
        raise InputError("element belongs to a different Coxeter system")
    radius, base = max(len(v) for v in xi), xi[w0]
    witnesses = [v for v in coset_elements(system, info, radius)
                 if v in xi
                 and xi[v] != base * LaurentPoly.u_power(len(v) - len(w0))]
    return sorted(witnesses, key=Element.sort_key)


def oracle_classify(system, q):
    """The per-component walk classify ran before it read the component
    map, kept as its oracle: a subsystem and rho_info for every component,
    a finite one included, with a running overall rho and center
    dimension.  q must be a positive Fraction."""
    comps = []
    total_dim = 1
    overall_rho = math.inf
    for comp in system.components:
        names = tuple(system.names[i] for i in comp)
        if system.component_is_finite(comp):
            comps.append(ComponentClassification(
                generators=names, kind="finite_abelian",
                classification=NOT_APPLICABLE,
                reason="finite abelian component: commutative summand",
                rho=math.inf, center_dimension=2))
            if total_dim is not None:
                total_dim *= 2
            continue
        sub, _ = system.subsystem(comp)
        info = rho_info(sub)
        overall_rho = min(overall_rho, info.value)
        if sub.n < 3:
            comps.append(ComponentClassification(
                generators=names, kind="dihedral",
                classification=NOT_APPLICABLE,
                reason="infinite two-generator component: the interval "
                       "criterion requires at least 3 generators",
                rho=info.value, center_dimension=None))
            total_dim = None
            continue
        r = min(q, 1 / q)
        inside = (r >= 1) or not info.q_below_rho(r)
        comps.append(ComponentClassification(
            generators=names, kind="classified",
            classification=FACTOR if inside else FACTOR_PLUS_C,
            reason="",
            rho=info.value, center_dimension=1 if inside else 2))
        if total_dim is not None:
            total_dim *= 1 if inside else 2

    if len(comps) == 1:
        only = comps[0]
        classification, reason = only.classification, only.reason
    elif total_dim == 1:
        classification, reason = FACTOR, "all components are factors"
    elif total_dim is None:
        classification = NOT_APPLICABLE
        reason = "a two-generator infinite component is unclassified"
    else:
        classification = NOT_APPLICABLE
        reason = ("reducible system: center dimension reported, summands "
                  "not classified")
    return CenterReport(q=q, rho=overall_rho, classification=classification,
                        reason=reason, center_dimension=total_dim,
                        components=tuple(comps))


@pytest.fixture
def free3():
    """Free product of three involutions: no commuting pairs."""
    return verify.named_systems()["free3"]


@pytest.fixture
def z2sq_z2():
    """Z2^2 * Z2: s is the free factor, t and u commute."""
    return verify.named_systems()["z2sq-z2"]


@pytest.fixture
def pentagon():
    """Five generators whose commutation graph is a 5-cycle."""
    return verify.named_systems()["pentagon"]


@pytest.fixture
def dihedral():
    """Infinite dihedral: two non-commuting involutions."""
    return CoxeterSystem("st")


@pytest.fixture
def z2xz2():
    """Direct product of two involutions (finite, four elements)."""
    return CoxeterSystem("st", [("s", "t")])


@pytest.fixture
def named_systems(free3, z2sq_z2, pentagon):
    return {"free3": free3, "z2sq-z2": z2sq_z2, "pentagon": pentagon}
