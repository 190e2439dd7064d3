"""Arithmetic in the Hecke algebra of a right-angled Coxeter system.

Elements are finitely supported sums over the normalized basis {T_w}.
The product is the bilinear extension of the one-generator recursion

    T_s T_w = T_{sw}            if |sw| > |w|
    T_s T_w = T_{sw} + p T_w    otherwise,

with p = (q - 1)/sqrt(q).  In exact mode coefficients are Laurent
polynomials in u (u^2 = q) and p is the ring element u - 1/u; numeric
mode fixes a concrete q > 0 and keeps float coefficients.

An exact element holds {canonical word: {exponent of u: int}} over one
positive denominator, canonical as a LaurentPoly's numerators are (no
zero entry, no common factor), so equal elements are held alike; arithmetic
works on that form, and ``terms`` ({Element: LaurentPoly}) is built from it
on first read, each coefficient put in its own canonical form.

Both modes walk with right steps on canonical words: T_x T_s = T_{xs},
plus p T_x on a descent.  A product walks each term of a alone, depth
first, by each word of b, placing letters inline by the right step's
rule, and sums the branches where they end; it takes no adjoint, because
inverting the inputs and every output word costs more steps than peeling
the shorter factor saves (descents are rare).  One walk's branches end on
distinct words, so a float sum reads only the order of the walks.
:func:`action_matrix` takes the walks of all columns at once on a ball's
tables: right steps on the right table, and on the left the one-generator
recursion itself, T_v T_w = T_{s1}(..(T_{sm} T_w)), on the left table.
It adds each term of a by one scatter, in a's order, as products sum.
"""

from __future__ import annotations

import math
import re
from collections import namedtuple
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .coxeter import DEFAULT_MAX_BALL, LEFT, RIGHT, CoxeterSystem, Element
from .errors import CapacityError, InputError, ParseError
from .laurent import (LaurentPoly, P_SYMBOL, _add, _canonical, _coerce,
                      _evaluate, _reduce, _sparse_mul_into, float_q)

EXACT = "exact"

#: Caps on a product's terms as they come (about 1 KB and 10 us an exact
#: term) and on parenthesis depth (three parser frames a level).
MAX_PRODUCT_TERMS = 10**5
MAX_EXPR_DEPTH = 200


class HeckeElement:
    """A finitely supported linear combination of normalized basis terms.

    ``q`` is None in exact mode and a positive float in numeric mode.
    ``terms`` maps the support to the coefficients, LaurentPolys or
    floats; it is built on first read from the coefficients by canonical
    word, exact ones as numerators over one denominator (see above).
    Values are immutable; all arithmetic returns fresh elements.
    """

    __slots__ = ("system", "q", "_den", "_num", "_terms")

    def __new__(cls, system: CoxeterSystem, terms=None, q: float | None = None):
        q = None if q is None else float_q(q)[0]
        if not terms:
            return _make(system, q, 1, {})
        if any(w.system is not system for w in terms):
            raise InputError("basis element from a different system")
        if q is None:
            polys = {w.word: _scalar(None, c, "a coefficient")
                     for w, c in terms.items()}
            d = math.lcm(*(c._den for c in polys.values()))
            den, num = _canonical(d, {
                w: {e: n * (d // c._den) for e, n in c._num.items()}
                for w, c in polys.items()})
        else:
            den, num = 1, {w.word: f for w, c in terms.items()
                           if (f := float(c))}
        return _make(system, q, den, num)

    def __setattr__(self, *a):
        raise AttributeError("HeckeElement is immutable")

    def __reduce__(self):
        return _make, (self.system, self.q, self._den, self._num)

    @property
    def terms(self) -> dict:
        """{Element: coefficient}, built on the first read and kept."""
        if self._terms is None:
            d, exact = self._den, self.q is None
            _set_terms(self, {
                Element(self.system, w): _reduce(d, c) if exact else c
                for w, c in self._num.items()})
        return self._terms

    # -- mode helpers ----------------------------------------------------------

    @property
    def mode(self) -> str:
        return EXACT if self.q is None else "numeric"

    def _p(self):
        return P_SYMBOL if self.q is None else float_q(self.q)[2]

    def _check_compat(self, other: "HeckeElement"):
        if self.system is not other.system:
            raise InputError("elements live over different Coxeter systems")
        if self.q != other.q:
            raise InputError("elements are in different coefficient modes")

    # -- linear structure --------------------------------------------------------

    def __add__(self, other: "HeckeElement") -> "HeckeElement":
        if not isinstance(other, HeckeElement):
            return NotImplemented
        self._check_compat(other)
        if not (self._num and other._num):
            return self if self._num else other
        if self.q is not None:
            out = dict(self._num)
            for w, c in other._num.items():
                out[w] = out.get(w, 0.0) + c
            return _make(self.system, self.q, 1,
                         {w: c for w, c in out.items() if c})
        return _make(self.system, None, *_canonical(
            *_add(self._den, self._num, other._den, other._num)))

    def __sub__(self, other: "HeckeElement") -> "HeckeElement":
        if not isinstance(other, HeckeElement):
            return NotImplemented
        return self + other.scale(-1)

    def __neg__(self) -> "HeckeElement":
        return self.scale(-1)

    def scale(self, c) -> "HeckeElement":
        c = _scalar(self.q, c, "a scalar")
        if self.q is not None:
            return _make(self.system, self.q, 1,
                         {w: f for w, x in self._num.items() if (f := x * c)})
        d, k = self._den * c._den, c._num
        if len(k) != 1:
            return _make(self.system, None, *_canonical(d, {
                w: _sparse_mul_into({}, x, k) for w, x in self._num.items()}))
        (s, f), = k.items()             # a monomial shifts and multiplies
        return _make(self.system, None, *_canonical(d, {
            w: {e + s: n * f for e, n in x.items()} for w, x in self._num.items()}))

    def __mul__(self, other):
        if isinstance(other, HeckeElement):
            return mul(self, other)
        if isinstance(other, (int, Fraction, float, LaurentPoly)):
            return self.scale(other)
        return NotImplemented

    __rmul__ = __mul__      # reached only with a scalar on the left

    def __eq__(self, other):
        return (isinstance(other, HeckeElement) and self.system is other.system
                and self.q == other.q and self._den == other._den
                and self._num == other._num)

    def __hash__(self):
        return hash((id(self.system), self.q, self._den, frozenset(self._num)))

    def __bool__(self):
        return bool(self._num)

    def coefficient(self, w: Element):
        if w.system is not self.system:
            raise InputError("basis element from a different system")
        return self.terms.get(w, LaurentPoly.zero() if self.q is None else 0.0)

    def support(self) -> list[Element]:
        return sorted(self.terms, key=Element.sort_key)

    # -- involution and state ------------------------------------------------------

    def star(self) -> "HeckeElement":
        """The adjoint: the same coefficients on inverted basis words
        (coefficients are real, so conjugation fixes them)."""
        fold = self.system._fold
        return _make(self.system, self.q, self._den,
                     {fold((), reversed(w)): c for w, c in self._num.items()})

    def phi(self):
        """The vacuum state: the coefficient of the identity basis term."""
        return self.coefficient(self.system.identity)

    def specialize(self, q: float) -> "HeckeElement":
        """Evaluate exact coefficients at u = sqrt(q), yielding numeric mode:
        each word's numerators as ``LaurentPoly.evaluate`` reads its own,
        so the floats are those of ``terms``, with no Element built."""
        if self.q is not None:
            raise InputError("element is already numeric")
        (q, u, _), d = float_q(q), self._den
        return _make(self.system, q, 1, {
            w: f for w, c in self._num.items() if (f := _evaluate(d, c, u))})

    def __str__(self):
        """The terms in ShortLex order, formatted with no Element built."""
        d, name = self._den, self.system.word_str
        return " + ".join(
            f"({c if self.q else _reduce(d, c)})*T({name(w)})"
            for w, c in sorted(self._num.items(),
                               key=lambda t: (len(t[0]), t[0]))) or "0"

    def __repr__(self):
        return f"HeckeElement[{self.mode}]({self})"


#: The slots' setters, which bypass the refusing ``__setattr__``.
_set_system, _set_q, _set_den, _set_num, _set_terms = (
    HeckeElement.__dict__[k].__set__ for k in HeckeElement.__slots__)


def _make(system: CoxeterSystem, q, den, num) -> HeckeElement:
    """The element with the coefficients ``num`` over ``den``, unchecked."""
    out = object.__new__(HeckeElement)
    _set_system(out, system)
    _set_q(out, q)
    _set_den(out, den)
    _set_num(out, num)
    _set_terms(out, None)
    return out


def _scalar(q: float | None, c, what: str):
    """``c`` checked as a scalar of the mode of ``q``: exact mode takes an
    int, a Fraction or a LaurentPoly and returns a LaurentPoly, numeric
    mode takes an int, a Fraction or a float and returns it as it is."""
    if isinstance(c, (int, Fraction, LaurentPoly if q is None else float)):
        return c if q else _coerce(c)
    mode = EXACT if q is None else "numeric"
    raise InputError(f"{what} in {mode} mode cannot be a {type(c).__name__}")


# -- constructors ------------------------------------------------------------------


def unit(system: CoxeterSystem, q: float | None = None) -> HeckeElement:
    return t_basis(system.identity, q)


def t_basis(w: Element, q: float | None = None) -> HeckeElement:
    """The normalized basis term T_w with coefficient one."""
    q = None if q is None else float_q(q)[0]
    return _make(w.system, q, 1, {w.word: 1.0 if q else {0: 1}})


def t_tilde(w: Element, q: float | None = None) -> HeckeElement:
    """The unnormalized basis term, u^{|w|} times the normalized one."""
    return t_basis(w, q).scale(LaurentPoly.u_power(len(w)) if q is None
                               else float(q) ** (len(w) / 2.0))


# -- multiplication ------------------------------------------------------------------


def _past_cap(n: int) -> CapacityError:
    return CapacityError(f"a Hecke product reached {n} terms, "
                         f"more than the cap of {MAX_PRODUCT_TERMS}")


def _walk(a: HeckeElement, b: HeckeElement, p) -> HeckeElement:
    """The product ab on the coefficients of a and b: for each word w of
    b, each term c_x T_x of a walks alone, depth first, by the letters of
    w, placed inline by the right step of ``CoxeterSystem._step``; a
    descent leaves a branch at x with one more factor p, and a branch with
    k of them adds c_x p^k (built once per term, each power the one before
    times p) times b's coefficient at w into its target, which no other
    branch of the walk reaches.  Numeric coefficients are floats.  Exact
    ones are numerators, one exponent dict per target over d_a d_b d_p^L
    for p = p'/d_p and L the longest word of b: a's numerators times d_p^L
    keep each power, the one before times p' divided by d_p, integral, as
    a walk has at most L descents.
    With no descent, no two branches on one target, numerators 1 on b and
    d_a d_b = 1, the exact result is canonical as it stands."""
    exact, comm, tables, result, clean = a.q is None, a.system._comm, {}, {}, True
    pt, dp = (p._num, p._den) if exact else (p, 1)
    lift = 1 if dp == 1 else dp ** max(map(len, b._num), default=0)
    a_num = a._num if lift == 1 else {
        x: {e: n * lift for e, n in c.items()} for x, c in a._num.items()}
    for w, cw in b._num.items():
        one, n = cw == {0: 1}, len(w)
        clean = clean and one
        for x0, c0 in a_num.items():
            x, i, k, branches = x0, 0, 0, None
            while True:
                for i in range(i, n):
                    s = w[i]
                    m, j = comm[s], len(x) - 1
                    if j >= 0 and (t := x[j]) != s and not m >> t & 1:
                        x += (s,)           # the last letter blocks s
                        continue
                    while j >= 0 and (t := x[j]) != s and m >> t & 1:
                        j -= 1
                    if j >= 0 and t == s:               # a descent
                        if branches is None:     # the term's first descent
                            clean, branches, table = False, [], tables.setdefault(x0, [c0])
                        if k + 1 == len(table):
                            pk = (_sparse_mul_into({}, table[k], pt) if exact
                                  else table[k] * pt)
                            table.append(pk if dp == 1 else
                                         {e: n // dp for e, n in pk.items()})
                        branches.append((x, i + 1, k + 1))
                        x = x[:j] + x[j + 1:]
                    else:                   # before the first larger letter
                        j, end = j + 1, len(x)
                        while j < end and x[j] < s:
                            j += 1
                        x = x[:j] + (s,) + x[j:]
                c, acc = table[k] if k else c0, result.get(x)
                if acc is not None:
                    clean = False
                    result[x] = _sparse_mul_into(acc, c, cw) if exact else acc + c * cw
                elif len(result) < MAX_PRODUCT_TERMS:   # a copy: c is shared
                    result[x] = (c * cw if not exact else dict(c) if one
                                 else _sparse_mul_into({}, c, cw))
                else:
                    raise _past_cap(len(result) + 1)
                if not branches:
                    break
                x, i, k = branches.pop()
    if not exact:
        return _make(a.system, a.q, 1, {x: c for x, c in result.items() if c})
    d = a._den * b._den * lift
    if clean and d == 1:
        return _make(a.system, None, 1, result)
    return _make(a.system, None, *_canonical(d, result))


def mul(a: HeckeElement, b: HeckeElement, p_override=None) -> HeckeElement:
    """The Hecke product ab, by the walk of :func:`_walk` in either mode.

    ``p_override`` substitutes a different structure constant (used for
    the sign-twisted target algebra of the duality isomorphism); in exact
    mode it must be exact (a LaurentPoly or a rational), in numeric mode
    a real number.
    """
    a._check_compat(b)
    return _walk(a, b, a._p() if p_override is None
                 else _scalar(a.q, p_override, "p_override"))


def j_iso(a: HeckeElement) -> HeckeElement:
    """The duality isomorphism onto the inverted-parameter algebra.

    Each basis term picks up the sign (-1)^{|w|}.  The image is read in
    the algebra at parameter 1/q, which over the same coefficient ring
    multiplies with structure constant -p; the identity

        j(a b) = mul(j(a), j(b), p_override=-p)

    holds exactly, and j composed with itself is the identity.
    Exact mode only; numeric elements should be specialized afterwards.
    """
    if a.q is not None:
        raise InputError("duality isomorphism needs exact mode; specialize "
                         "the image at 1/q instead")
    return _make(a.system, None, a._den,
                 {w: {e: -n for e, n in c.items()} if len(w) % 2 else c
                  for w, c in a._num.items()})


def state_phi(a: HeckeElement):
    """State value <a delta_1, delta_1>, the identity coefficient."""
    return a.phi()


def inner(a: HeckeElement, b: HeckeElement):
    """l2 pairing of symbols: sum over w of coeff_a(w) * coeff_b(w); the
    coefficients are real, so no conjugation is needed.  The numeric sum
    is exactly rounded, so it does not depend on the order of the terms."""
    a._check_compat(b)
    if a.q is None:
        acc = {}
        for w in a._num.keys() & b._num.keys():
            _sparse_mul_into(acc, a._num[w], b._num[w])
        return _reduce(a._den * b._den, acc)
    return math.fsum(c * b._num.get(w, 0.0) for w, c in a._num.items())


def l2_norm(a: HeckeElement) -> float:
    """Norm of the symbol; numeric mode (specialize exact elements first)."""
    if a.q is None:
        raise InputError("l2 norm needs numeric mode; use specialize(q)")
    return math.sqrt(max(inner(a, a), 0.0))


# -- truncated action matrices ----------------------------------------------------------


@dataclass(frozen=True)
class ActionMatrix:
    """Matrix of a left or right multiplication operator over a ball basis.

    ``matrix[i, j]`` is the coefficient of the i-th ball element in the
    image of the j-th basis vector.  ``exact_columns[j]`` is True iff the
    full untruncated image of that basis vector stays inside the ball, in
    which case the column is exact rather than truncated.
    """
    elements: tuple[Element, ...]
    matrix: np.ndarray
    exact_columns: np.ndarray
    side: str


def _action_by_products(a: HeckeElement, ball: list[Element],
                        side: str) -> ActionMatrix:
    """The action matrix column by column, one Hecke product per column."""
    index = {w.word: i for i, w in enumerate(ball)}
    n = len(ball)
    mat = np.zeros((n, n))
    exact = np.ones(n, dtype=bool)
    for j, w in enumerate(ball):
        basis = t_basis(w, q=a.q)
        image = mul(a, basis) if side == LEFT else mul(basis, a)
        for v, c in image._num.items():
            i = index.get(v)
            if i is None:
                exact[j] = False
            else:
                mat[i, j] = c
    return ActionMatrix(tuple(ball), mat, exact, side)


_ActionTables = namedtuple("_ActionTables", "radius table words index right left")


def _action_table(system: CoxeterSystem, radius: int, side: str) -> _ActionTables | None:
    """The tables of :func:`action_matrix`, one set per system, rebuilt
    only at a larger radius: the ball table of ``radius``, its words,
    {word: row}, and each side's (step rows, descent rows), a row per
    letter.  The right rows are views of the table's; the left ones, from
    ``BallTable.left()``, are built at the first left call on the table
    and kept (5 bytes a row and letter).  Past ``DEFAULT_MAX_BALL``
    elements, where ``ball_table`` refuses, it caches nothing: None."""
    entry = system._ball_cache
    if entry is None or entry.radius < radius:
        try:
            table = system.ball_table(radius, DEFAULT_MAX_BALL)
        except CapacityError:
            return None
        words = table.words()
        entry = system._ball_cache = _ActionTables(
            radius, table, words, {w: i for i, w in enumerate(words)},
            (list(table.right), list(table.descent)), None)
    if side == LEFT and entry.left is None:
        entry = system._ball_cache = entry._replace(
            left=tuple(map(list, entry.table.left())))
    return entry


def _rows_walk(at, val, letters, step, descent, p):
    """The walks of :func:`_walk` on one side's table rows, one per column,
    all at once: column j starts at row ``at[j]`` with value ``val[j]`` and
    steps by ``letters`` on the rows ``step[s]`` and ``descent[s]``.  A
    descent moves a row to its step and appends the row before it times
    p.  A walk's leaves have distinct targets, so the returned (column,
    row) pairs are distinct; they come with their values."""
    col = np.arange(len(at))
    for s in letters:
        d = np.flatnonzero(descent[s][at])
        nxt = step[s][at]
        if len(d):
            col = np.concatenate((col, col[d]))
            val = np.concatenate((val, val[d] * p))
            nxt = np.concatenate((nxt, at[d]))
        at = nxt
    return col, at, val


def action_matrix(a: HeckeElement, ball: list[Element], side: str = LEFT) -> ActionMatrix:
    """Truncation of the multiplication operator of ``a`` to a metric ball.

    ``ball`` may be any list of elements.  All columns walk at once on the
    tables of ball(r + m), r and m the longest words in ``ball`` and in
    ``a``, which hold every intermediate term.  For each term c T_v of
    ``a`` the columns' rows walk by v's letters on the right table (side
    "right", leaves (1 p p ..) c) or by v's letters from the last on the
    left table (side "left", leaves c p p ..).  A walk's leaves have
    distinct targets, so a term adds its leaves inside ``ball`` by one
    scatter; in a's order that gives the sums of per-column products bit
    for bit.  The first scatter writes 0.0 + v without reading the fresh
    matrix, whose pages then fault once, not twice.  Only the leaves
    outside are merged (int64 keys), to flag the columns that leave the
    ball.  A ball in table order, as ``system.ball(r)``, maps to the first
    rows at once; another list goes through the word index.  Each term is
    a walk, so elements with few terms suit it best: on the pentagon's
    ball(5), two terms take 0.2 ms and sixty of length 3-4 take 5.7 ms.
    Tables come from :func:`_action_table`, grown on demand and never
    shrunk, since a smaller ball is a prefix with the same rows and sums.
    Past the cap the columns come from single products, indexed by
    canonical word, and nothing is cached.
    """
    if a.q is None:
        raise InputError("action matrices need numeric mode")
    if side not in (LEFT, RIGHT):
        raise InputError(f"side must be {LEFT!r} or {RIGHT!r}")
    sys = a.system
    words = [w.word for w in ball if w.system is sys]
    if len(words) < len(ball):
        raise InputError("elements live over different Coxeter systems")
    r = max(map(len, words), default=0)
    m = max(map(len, a._num), default=0)
    entry = _action_table(sys, r + m, side)
    if entry is None:
        return _action_by_products(a, ball, side)
    step, descent = entry.left if side == LEFT else entry.right
    n, p, rows = len(words), a._p(), entry.words

    if words == rows[:n]:               # the table's first n rows
        where, row = np.arange(n), None
    else:
        where = np.array([entry.index[w] for w in words], dtype=np.int64)
        row = np.full(len(rows), n, dtype=np.int64)     # n: outside the ball
        kept, first = np.unique(where[::-1], return_index=True)
        row[kept] = n - 1 - first       # a repeated element takes its last row
    mat = np.zeros((n, n))
    flat, outside = mat.ravel(), []
    for k, (v, c) in enumerate(a._num.items()):     # in a's order
        if side == LEFT:
            col, at, val = _rows_walk(where, np.full(n, c), v[::-1], step, descent, p)
        else:
            col, at, val = _rows_walk(where, np.ones(n), v, step, descent, p)
            val = val * c
        i = at if row is None else row[at]
        inside = i < n
        ij = np.multiply(i[inside], n, dtype=np.int64) + col[inside]
        flat[ij] = (flat[ij] if k else 0.0) + val[inside]
        outside.append((col[~inside], at[~inside], val[~inside]))
    exact = np.ones(n, dtype=bool)
    if outside:     # flag the columns where an outside sum, in order, is not 0
        col, at, val = map(np.concatenate, zip(*outside))
        keys, key = np.unique(np.multiply(col, len(rows), dtype=np.int64) + at,
                              return_inverse=True)
        exact[keys[np.bincount(key, weights=val) != 0] // len(rows)] = False
    return ActionMatrix(tuple(ball), mat, exact, side)


# -- expression mini-language --------------------------------------------------------------

_TOKEN = re.compile(r"""
    (?P<num>\d+(?:/\d+)?)      |
    (?P<name>[A-Za-z_]\w*)     |
    (?P<op>[()+\-*])           |
    (?P<ws>\s+)
""", re.VERBOSE)


def _tokenize(text: str):
    pos = depth = 0
    out = []
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            raise ParseError(f"unexpected character {text[pos]!r}",
                             line=1, column=pos + 1)
        depth += (m.group() == "(") - (m.group() == ")")
        if depth > MAX_EXPR_DEPTH:
            raise ParseError(f"parentheses nest deeper than {MAX_EXPR_DEPTH} "
                             "levels", line=1, column=pos + 1)
        if m.lastgroup != "ws":
            out.append((m.lastgroup, m.group(), pos))
        pos = m.end()
    out.append(("end", "", pos))
    return out


class _ExprParser:
    """Recursive descent for: terms T(word), rational scalars, + - *,
    star(...), j(...) and parentheses."""

    def __init__(self, system: CoxeterSystem, text: str):
        self.system = system
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def take(self, kind=None, value=None):
        tok = self.tokens[self.pos]
        if kind and tok[0] != kind or value and tok[1] != value:
            raise ParseError(f"expected {value or kind}, found {tok[1]!r}",
                             line=1, column=tok[2] + 1)
        self.pos += 1
        return tok

    def parse(self) -> HeckeElement:
        value = self.expr()
        tok = self.peek()
        if tok[0] != "end":
            raise ParseError(f"trailing input {tok[1]!r}", line=1, column=tok[2] + 1)
        return value

    def expr(self) -> HeckeElement:
        sign = 1
        tok = self.peek()
        if tok[0] == "op" and tok[1] in "+-":
            self.take()
            sign = -1 if tok[1] == "-" else 1
        value = self.term().scale(sign)
        while True:
            tok = self.peek()
            if tok[0] == "op" and tok[1] in "+-":
                self.take()
                rhs = self.term()
                value = value + (rhs if tok[1] == "+" else -rhs)
            else:
                return value

    def term(self) -> HeckeElement:
        value = self.factor()
        while True:
            tok = self.peek()
            if tok[0] == "op" and tok[1] == "*":
                self.take()
                value = mul(value, self.factor())
            else:
                return value

    def factor(self) -> HeckeElement:
        tok = self.peek()
        if tok[0] == "num":
            self.take()
            try:
                c = Fraction(tok[1])
            except (ValueError, ZeroDivisionError) as exc:
                raise ParseError(
                    "zero denominator" if isinstance(exc, ZeroDivisionError)
                    else "number exceeds Python's int-to-str digit limit",
                    line=1, column=tok[2] + 1) from None
            return unit(self.system).scale(c)
        if tok[0] == "op" and tok[1] == "(":
            self.take()
            value = self.expr()
            self.take("op", ")")
            return value
        if tok[0] == "name":
            name = tok[1]
            self.take()
            if name == "T":
                self.take("op", "(")
                letters = []
                while self.peek()[1] != ")":
                    t = self.peek()
                    if t[0] not in ("name", "num"):
                        raise ParseError(f"bad word token {t[1]!r}",
                                         line=1, column=t[2] + 1)
                    letters.append(self.take()[1])
                self.take("op", ")")
                word = self.system.parse_word(" ".join(letters))
                return t_basis(self.system.normalize(word))
            if name in ("star", "j"):
                self.take("op", "(")
                value = self.expr()
                self.take("op", ")")
                return value.star() if name == "star" else j_iso(value)
            raise ParseError(f"unknown function {name!r}", line=1, column=tok[2] + 1)
        raise ParseError(f"unexpected token {tok[1]!r}", line=1, column=tok[2] + 1)


def parse_expression(system: CoxeterSystem, text: str) -> HeckeElement:
    """Parse the Hecke expression mini-language into an exact element."""
    return _ExprParser(system, text).parse()
