"""Exact Laurent polynomials in one variable u with rational coefficients,
and the dense integer polynomial helpers shared by the other modules.

The Hecke deformation parameter enters through u with u^2 = q, so the
structure constant p = (q - 1)/sqrt(q) is the ring element u - 1/u and
every algebra identity becomes a decidable equality of Laurent
polynomials.  Numbers only appear when a polynomial is evaluated at a
concrete sqrt(q).  A polynomial holds integer numerators over one positive
denominator with no zero entry and no common factor, as an exact Hecke
element holds each word's: both go through one :func:`_canonical`.
"""

from __future__ import annotations

import math
import numbers
import operator
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .errors import InputError

# -- integer polynomial helpers: dense (ascending degree) and sparse dicts -----


def _poly_trim(p: list) -> list:
    while p and not p[-1]:
        p.pop()
    return p


def _poly_mul(a: Sequence, b: Sequence) -> list:
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return _poly_trim(out)


def _poly_add(a: Sequence, b: Sequence) -> list:
    out = [0] * max(len(a), len(b))
    for i, x in enumerate(a):
        out[i] += x
    for i, y in enumerate(b):
        out[i] += y
    return _poly_trim(out)


def _sparse_mul_into(acc: dict, c1: Mapping, c2: Mapping) -> dict:
    """Add the product of two {exponent: coefficient} dicts into ``acc``."""
    for e1, n1 in c1.items():
        for e2, n2 in c2.items():
            acc[e1 + e2] = acc.get(e1 + e2, 0) + n1 * n2
    return acc


def _poly_eval(p: Sequence, x):
    out = x * 0
    for c in reversed(p):
        out = out * x + c
    return out


def _sturm_chain(p: Sequence[int]) -> list[list[int]]:
    """Sturm sequence of a nonzero integer polynomial: p, p', then negated
    pseudo-remainders (scaled by |lc|^k), each over its positive content."""
    chain = [list(p)]
    r = [i * c for i, c in enumerate(p)][1:]
    while r:
        g = math.gcd(*r)
        b = [x // g for x in r]
        r, lc = chain[-1], b[-1]
        chain.append(b)
        while len(r) >= len(b):
            c = r[-1] if lc > 0 else -r[-1]
            r = [abs(lc) * x for x in r]
            for i, y in enumerate(b, len(r) - len(b)):
                r[i] -= c * y
            _poly_trim(r)
        r = [-x for x in r]
    return chain


def _has_root_up_to(chain: Sequence[Sequence[int]], k: int, n: int) -> bool:
    """Whether the first member of a Sturm chain has a root in (0, k/n].

    Sign changes along the chain (zeros skipped) drop from 0 to x by the
    number of distinct roots in (0, x]; at a multiple root all members
    vanish, leaving none, which still answers yes.  Members are evaluated
    in integers, as sum c_i k^i n^(d-i) for degree d, with the same sign.
    """
    def changes(values) -> int:
        signs = [v > 0 for v in values if v]
        return sum(a != b for a, b in zip(signs, signs[1:]))

    at_x = []
    for p in chain:
        value, weight = 0, 1
        for c in reversed(p):
            value, weight = value * k + c * weight, weight * n
        at_x.append(value)
    return changes(at_x) < changes(p[0] for p in chain)


def _terms_str(terms: Iterable[tuple[int, Fraction | int]], var: str) -> str:
    """Sum of nonzero c*var^k in the given order; "0" when there is none."""
    parts = []
    for k, c in terms:
        mono = var if k == 1 else f"{var}^{k}"
        parts.append(str(c) if k == 0 else mono if c == 1
                     else f"-{mono}" if c == -1 else f"{c}*{mono}")
    return " + ".join(parts).replace("+ -", "- ") if parts else "0"


def poly_str(p: Sequence[int]) -> str:
    """Human-readable polynomial in t, ascending degree."""
    return _terms_str(((k, c) for k, c in enumerate(p) if c), "t")


# -- Laurent polynomials -------------------------------------------------------


def _coercing(op):
    """``op`` on a coerced operand, or NotImplemented for any other type."""
    def binary(self, other):
        if not isinstance(other, (int, Fraction, LaurentPoly)):
            return NotImplemented
        return op(self, _coerce(other))
    return binary


class LaurentPoly:
    """Immutable Laurent polynomial sum of c_k u^k with rational c_k, held
    as canonical {k: int} numerators ``_num`` over ``_den``.  ``terms`` is
    the {k: c_k} view, integral c_k as ``int``s, ``_num`` itself when
    ``_den`` is 1.  A coefficient that is not ``numbers.Rational`` or an
    exponent that is not an integer is an ``InputError``."""

    __slots__ = ("_den", "_num", "terms")

    def __init__(self, terms: Mapping[int, Fraction | int] | None = None):
        den, view = 1, {}       # reduced fractions over their lcm: canonical
        for k, c in (terms or {}).items():
            try:
                k = operator.index(k)
            except TypeError:
                raise InputError(f"exponent {k!r} is not an integer") from None
            if type(c) is not int:
                if type(c) is not Fraction and not isinstance(c, numbers.Rational):
                    raise InputError(f"coefficient {c!r} is not rational")
                c, den = ((int(c.numerator), den) if c.denominator == 1 else
                          (Fraction(c), math.lcm(den, c.denominator)))
            if c:
                view[k] = c
        _set_den(self, den)
        _set_num(self, view if den == 1 else {
            k: c.numerator * den // c.denominator for k, c in view.items()})
        _set_terms(self, view)

    def __setattr__(self, *a):
        raise AttributeError("LaurentPoly is immutable")

    def __reduce__(self):
        return _reduce, (self._den, self._num)

    # -- constructors --------------------------------------------------------

    @staticmethod
    def zero() -> "LaurentPoly":
        return _ZERO

    @staticmethod
    def one() -> "LaurentPoly":
        return _ONE

    @staticmethod
    def u_power(k: int) -> "LaurentPoly":
        return LaurentPoly({k: 1})

    @staticmethod
    def const(c) -> "LaurentPoly":
        return LaurentPoly({0: c})

    # -- ring operations -----------------------------------------------------

    @_coercing
    def __add__(self, other) -> "LaurentPoly":
        d, n = _add(self._den, {0: self._num}, other._den, {0: other._num})
        return _reduce(d, n[0])

    __radd__ = __add__

    def __neg__(self) -> "LaurentPoly":
        return _reduce(self._den, {k: -n for k, n in self._num.items()})

    @_coercing
    def __sub__(self, other) -> "LaurentPoly":
        return self + (-other)

    @_coercing
    def __rsub__(self, other) -> "LaurentPoly":
        return other + (-self)

    @_coercing
    def __mul__(self, other) -> "LaurentPoly":
        return _reduce(self._den * other._den,
                       _sparse_mul_into({}, self._num, other._num))

    __rmul__ = __mul__

    # -- structure -----------------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self._num)

    @_coercing
    def __eq__(self, other) -> bool:
        return self.terms == other.terms

    def __hash__(self):     # a constant hashes as the number it equals
        t = self.terms
        return hash(t.get(0, 0) if t.keys() <= {0} else frozenset(t.items()))

    def evaluate(self, u_value: float) -> float:
        """Numeric value at a concrete u (callers pass sqrt(q))."""
        return _evaluate(self._den, self._num, u_value)

    def __str__(self):
        return _terms_str(sorted(self.terms.items()), "u")

    def __repr__(self):
        return f"LaurentPoly({self})"


#: The slots' setters, which bypass the refusing ``__setattr__``.
_set_den, _set_num, _set_terms = (
    LaurentPoly.__dict__[k].__set__ for k in LaurentPoly.__slots__)


def _reduce(den: int, num: dict) -> LaurentPoly:
    """The polynomial num / den, for a positive den and {k: int} num."""
    den, num = _canonical(den, {0: num})
    num, out = num.get(0, {}), object.__new__(LaurentPoly)
    _set_den(out, den)
    _set_num(out, num)
    _set_terms(out, num if den == 1 else {
        k: n // den if n % den == 0 else Fraction(n, den) for k, n in num.items()})
    return out


def _coerce(x) -> LaurentPoly:
    """An int, a Fraction or a LaurentPoly, as a LaurentPoly; else TypeError."""
    if isinstance(x, LaurentPoly):
        return x
    if isinstance(x, (int, Fraction)):
        return LaurentPoly.const(x)
    raise TypeError(f"a {type(x).__name__} is not a Laurent polynomial")


def _canonical(den: int, num: dict) -> tuple[int, dict]:
    """Numerators {key: {k: int}} over den without zero entries or empty
    keys, divided by the common factor of den and all of them (a gcd taken
    only while it is not 1): equal values get equal forms."""
    g, out = den, {}
    for w, c in num.items():
        if 0 in c.values():
            c = {e: n for e, n in c.items() if n}
        if c:
            out[w] = c
            g = 1 if g == 1 else math.gcd(g, *c.values())
    if g != 1:
        out = {w: {e: n // g for e, n in c.items()} for w, c in out.items()}
    return den // g, out


def _add(d1: int, n1: dict, d2: int, n2: dict) -> tuple[int, dict]:
    """n1 / d1 + n2 / d2 for numerators {key: {k: int}}, not canonical."""
    d = math.lcm(d1, d2)
    f, g = d // d1, d // d2
    out = {w: {e: n * f for e, n in c.items()} for w, c in n1.items()}
    for w, c in n2.items():
        acc = out.setdefault(w, {})
        for e, n in c.items():
            acc[e] = acc.get(e, 0) + n * g
    return d, out


def _evaluate(den: int, num: Mapping, u: float) -> float:
    """sum n_k u^k / den, each n_k / den rounded as the rational is, by
    ``fsum``, so independent of the order of the terms."""
    return math.fsum(n / den * u ** k for k, n in num.items())


_ZERO = LaurentPoly()
_ONE = LaurentPoly({0: 1})

#: The Hecke structure constant p = u - 1/u, i.e. (q - 1)/sqrt(q).
P_SYMBOL = LaurentPoly({1: 1, -1: -1})


def positive_q(q) -> Fraction:
    """The exact door for q: q as a rational, refused unless positive, as
    is what ``Fraction`` refuses by value (NaN, inf, "abc"), not by type."""
    try:
        if (q := Fraction(q)) > 0:
            return q
    except (ValueError, OverflowError, ZeroDivisionError):
        pass
    raise InputError("q must be positive")


def float_q(q) -> tuple[float, float, float]:
    """The float door for q: q, sqrt(q) and p = (q - 1)/sqrt(q), for a q past
    :func:`positive_q` (read as a float if ``Fraction`` refuses its type)."""
    try:
        qf = float(positive_q(q))
    except TypeError:
        qf = float(positive_q(float(q)))
    except OverflowError:
        qf = math.inf
    if qf in (0.0, math.inf):
        raise InputError(f"q is {qf} as a float; it must be positive and finite")
    return qf, math.sqrt(qf), (qf - 1.0) / math.sqrt(qf)
