"""Exact Laurent polynomials in one variable u with rational coefficients,
and the dense integer polynomial helpers shared by the other modules.

The Hecke deformation parameter enters through u with u^2 = q, so the
structure constant p = (q - 1)/sqrt(q) is the ring element u - 1/u and
every algebra identity becomes a decidable equality of Laurent
polynomials.  Numbers only appear when a polynomial is evaluated at a
concrete sqrt(q).
"""

from __future__ import annotations

import math
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


def _sparse_add(c1: Mapping, c2: Mapping) -> dict:
    """The sum of two {exponent: coefficient} dicts, as a new dict."""
    out = dict(c1)
    for e, n in c2.items():
        out[e] = out.get(e, 0) + n
    return out


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
        if k == 0:
            parts.append(str(c))
        else:
            mono = var if k == 1 else f"{var}^{k}"
            if c == 1:
                parts.append(mono)
            elif c == -1:
                parts.append(f"-{mono}")
            else:
                parts.append(f"{c}*{mono}")
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
    """Immutable Laurent polynomial sum of c_k u^k with rational c_k.

    A coefficient is stored as an ``int`` when it is integral (a
    ``Fraction`` with denominator 1 is reduced to one) and as a
    ``Fraction`` otherwise, so integer arithmetic is never boxed.
    Equality, hashing and printing do not see the difference.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[int, Fraction | int] | None = None):
        clean = {}
        if terms:
            for k, c in terms.items():
                try:
                    k = operator.index(k)
                except TypeError:
                    raise InputError(f"exponent {k!r} is not an integer") from None
                if type(c) is not int:
                    c = Fraction(c)
                    if c.denominator == 1:
                        c = c.numerator
                if c:
                    clean[k] = c
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, *a):
        raise AttributeError("LaurentPoly is immutable")

    def __reduce__(self):
        return LaurentPoly, (self.terms,)

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
        return LaurentPoly(_sparse_add(self.terms, other.terms))

    __radd__ = __add__

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly({k: -c for k, c in self.terms.items()})

    @_coercing
    def __sub__(self, other) -> "LaurentPoly":
        return self + (-other)

    @_coercing
    def __rsub__(self, other) -> "LaurentPoly":
        return other + (-self)

    @_coercing
    def __mul__(self, other) -> "LaurentPoly":
        return LaurentPoly(_sparse_mul_into({}, self.terms, other.terms))

    __rmul__ = __mul__

    # -- structure -----------------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = LaurentPoly.const(other)
        return isinstance(other, LaurentPoly) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def evaluate(self, u_value: float) -> float:
        """Numeric value at a concrete u (callers pass sqrt(q)); ``fsum``
        makes it independent of the order of the terms."""
        return math.fsum(float(c) * u_value ** k for k, c in self.terms.items())

    def __str__(self):
        return _terms_str(sorted(self.terms.items()), "u")

    def __repr__(self):
        return f"LaurentPoly({self})"


def _coerce(x) -> LaurentPoly:
    """An int, a Fraction or a LaurentPoly, as a LaurentPoly."""
    return x if isinstance(x, LaurentPoly) else LaurentPoly.const(x)


def _numerators(polys: Mapping) -> tuple[int, dict]:
    """A common denominator d of the values of the {exponent: rational}
    dicts in ``polys``, and d times each as an {exponent: int} dict."""
    d = 1
    for c in polys.values():
        for x in c.values():
            if type(x) is not int:
                d = math.lcm(d, x.denominator)
    return d, {key: {e: x * d if type(x) is int
                     else x.numerator * (d // x.denominator)
                     for e, x in c.items()}
               for key, c in polys.items()}


def _from_numerators(num: Mapping, d: int) -> LaurentPoly:
    """num / d for {exponent: numerator}: an int where d divides it and a
    ``Fraction`` otherwise, zeros dropped, built without re-validation."""
    out = object.__new__(LaurentPoly)
    object.__setattr__(out, "terms", {e: n // d if n % d == 0
                                      else Fraction(n, d)
                                      for e, n in num.items() if n})
    return out


_ZERO = LaurentPoly()
_ONE = LaurentPoly({0: 1})

#: The Hecke structure constant p = u - 1/u, i.e. (q - 1)/sqrt(q).
P_SYMBOL = LaurentPoly({1: 1, -1: -1})


def positive_q(q) -> Fraction:
    """The exact door for q: q as a rational, refused unless positive."""
    if isinstance(q, float) and not math.isfinite(q) or Fraction(q) <= 0:
        raise InputError("q must be positive")
    return Fraction(q)


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
