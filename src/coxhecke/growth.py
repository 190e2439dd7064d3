"""Growth series, convergence radius, factoriality classification, and
numerical certification of the radial central symbol.

The spherical growth series of a right-angled system is rational:
W(t) = (1+t)^n / P(t) where P sums (-t)^{|C|} (1+t)^{n-|C|} over the
cliques C of the commutation graph.  The formula is validated at
construction against enumerated sphere counts and the build aborts on
any mismatch, so no downstream result rests on the formula alone.

The convergence radius rho is the smallest positive root of the reduced
denominator: the series has nonnegative coefficients, hence a singularity
on the positive axis.  For an irreducible system with at least three
generators, the completed algebra at parameter q has trivial center
exactly for q in [rho, 1/rho]; below rho the radial vector

    zeta(w) = q^{|w|/2}

is square-summable with norm^2 = W(q) and spans the extra central summand.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

import numpy as np

from .coxeter import LEFT, RIGHT, CoxeterSystem, Element, DEFAULT_MAX_BALL
from .cosets import InfinitePair, coset_elements, shortest_rep
from .errors import (CapacityError, ConsistencyError, DomainError, InputError,
                     PreconditionError)
from .laurent import LaurentPoly

# -- integer polynomial helpers (dense, ascending degree) ----------------------


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


def _poly_divmod(a: Sequence, b: Sequence) -> tuple[list, list]:
    a = [Fraction(x) for x in a]
    b = [Fraction(x) for x in b]
    _poly_trim(a), _poly_trim(b)
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    q = [Fraction(0)] * max(len(a) - len(b) + 1, 0)
    while len(a) >= len(b):
        c = a[-1] / b[-1]
        d = len(a) - len(b)
        q[d] = c
        for i, y in enumerate(b):
            a[d + i] -= c * y
        _poly_trim(a)
    return _poly_trim(q), a


def _poly_gcd(a: Sequence, b: Sequence) -> list:
    a = _poly_trim([Fraction(x) for x in a])
    b = _poly_trim([Fraction(x) for x in b])
    while b:
        a, b = b, _poly_divmod(a, b)[1]
    if a:
        lead = a[-1]
        a = [x / lead for x in a]
    return a


def _poly_to_int(p: Sequence[Fraction]) -> list[int]:
    if not p:
        return []
    lcm = 1
    for x in p:
        lcm = lcm * x.denominator // math.gcd(lcm, x.denominator)
    ints = [int(x * lcm) for x in p]
    g = 0
    for x in ints:
        g = math.gcd(g, abs(x))
    return [x // g for x in ints] if g else ints


def _poly_eval(p: Sequence, x):
    out = x * 0
    for c in reversed(p):
        out = out * x + c
    return out


def poly_str(p: Sequence[int], var: str = "t") -> str:
    """Human-readable polynomial, ascending degree."""
    if not p:
        return "0"
    parts = []
    for k, c in enumerate(p):
        if not c:
            continue
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
    return " + ".join(parts).replace("+ -", "- ")


# -- the rational growth series -------------------------------------------------


@dataclass(frozen=True)
class RationalSeries:
    """A rational function with integer coefficients, in lowest terms,
    normalized so the denominator has positive constant term."""
    numerator: tuple[int, ...]
    denominator: tuple[int, ...]

    def taylor(self, n: int) -> list[int]:
        """First n + 1 Taylor coefficients at zero (exact integers)."""
        den = self.denominator
        if not den or den[0] == 0:
            raise DomainError("series is not regular at zero")
        coeffs: list[Fraction] = []
        for k in range(n + 1):
            num_k = self.numerator[k] if k < len(self.numerator) else 0
            acc = Fraction(num_k)
            for j in range(1, min(k, len(den) - 1) + 1):
                acc -= den[j] * coeffs[k - j]
            coeffs.append(acc / den[0])
        out = []
        for c in coeffs:
            if c.denominator != 1:
                raise ConsistencyError("non-integer Taylor coefficient")
            out.append(int(c))
        return out

    def evaluate(self, x: Fraction) -> Fraction:
        den = _poly_eval(self.denominator, Fraction(x))
        if den == 0:
            raise DomainError(f"pole at {x}")
        return _poly_eval(self.numerator, Fraction(x)) / den

    def __str__(self):
        return f"({poly_str(self.numerator)}) / ({poly_str(self.denominator)})"


def _clique_size_counts(system: CoxeterSystem) -> list[int]:
    """Number of cliques of each size in the commutation graph (the empty
    clique included)."""
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


def growth_series(system: CoxeterSystem, validate_to: int = 12,
                  max_total: int = DEFAULT_MAX_BALL) -> RationalSeries:
    """The spherical growth series, reduced to lowest terms.

    Construction validates the Taylor coefficients against enumerated
    sphere counts (up to ``validate_to``, truncated if the enumeration cap
    is reached first) and aborts on any disagreement.  The validated
    result is cached on the system for the default arguments.
    """
    default_args = validate_to == 12 and max_total == DEFAULT_MAX_BALL
    cached = getattr(system, "_growth_series", None)
    if default_args and cached is not None:
        return cached
    n = system.n
    counts = _clique_size_counts(system)
    one_t = [1, 1]
    num = [1]
    for _ in range(n):
        num = _poly_mul(num, one_t)
    den: list = []
    for k, c in enumerate(counts):
        if not c:
            continue
        piece = _shift([(-1) ** k * c], k)
        rest = [1]
        for _ in range(n - k):
            rest = _poly_mul(rest, one_t)
        den = _poly_add(den, _poly_mul(piece, rest))
    g = _poly_gcd(num, den)
    num_r, rem1 = _poly_divmod(num, g)
    den_r, rem2 = _poly_divmod(den, g)
    if rem1 or rem2:
        raise ConsistencyError("gcd does not divide")
    num_i = _poly_to_int(num_r)
    den_i = _poly_to_int(den_r)
    if den_i[0] < 0:
        num_i = [-x for x in num_i]
        den_i = [-x for x in den_i]
    series = RationalSeries(tuple(num_i), tuple(den_i))

    # hard postcondition: closed form must reproduce the enumerated counts
    check_n = validate_to
    try:
        observed = system.sphere_counts(check_n, max_total=max_total)
    except CapacityError:
        check_n = len(system._sphere_counts) - 1
        observed = system.sphere_counts(check_n, max_total=max_total)
    predicted = series.taylor(check_n)
    if predicted != observed:
        raise ConsistencyError(
            f"growth series coefficients {predicted} disagree with "
            f"enumerated sphere counts {observed}")
    if default_args:
        system._growth_series = series
    return series


def _shift(p: Sequence, k: int) -> list:
    return [0] * k + list(p)


# -- convergence radius -----------------------------------------------------------


@dataclass(frozen=True)
class RhoInfo:
    """Convergence radius of a growth series with an exact decision bracket.

    ``value`` is the bisected root of the reduced denominator in (0, 1],
    or inf for a finite group.  For rational arguments falling inside the
    float bracket, exact sign evaluation of the integer denominator
    settles comparisons against rho.
    """
    value: float
    bracket_low: Fraction | None
    bracket_high: Fraction | None
    denominator: tuple[int, ...]

    @property
    def is_finite_group(self) -> bool:
        return math.isinf(self.value)

    def q_below_rho(self, q: Fraction) -> bool:
        """Exact decision of q < rho for rational q in (0, 1]."""
        if self.is_finite_group:
            return True
        if q < self.bracket_low:
            return True
        if q > self.bracket_high:
            return False
        sign = _poly_eval(self.denominator, Fraction(q))
        return sign > 0


GRID_STEP = Fraction(1, 10**4)
BISECT_TOL = 1e-12


def rho_info(system: CoxeterSystem, series: RationalSeries | None = None) -> RhoInfo:
    """Locate the smallest denominator root in (0, 1] by grid bracketing
    plus bisection.

    The denominator is positive at 0; a grid scan at step 1e-4 finds the
    first sign change (so no smaller positive root can hide between grid
    points that both evaluate positive), then bisection narrows the
    bracket below 1e-12.  The result is cached on the system.
    """
    if series is None:
        series = growth_series(system)
    cached = getattr(system, "_rho_info", None)
    if cached is not None and cached.denominator == series.denominator:
        return cached
    den = series.denominator
    info = _locate_root(system, den)
    system._rho_info = info
    return info


def _locate_root(system: CoxeterSystem, den: tuple[int, ...]) -> RhoInfo:
    if len(den) == 1:
        return RhoInfo(math.inf, None, None, den)

    def f(x: Fraction) -> Fraction:
        return _poly_eval(den, x)

    prev = Fraction(0)
    if f(prev) <= 0:
        raise ConsistencyError("denominator not positive at zero")
    lo = None
    x = GRID_STEP
    while x <= 1:
        val = f(x)
        if val <= 0:
            lo, hi = prev, x
            break
        prev = x
        x += GRID_STEP
    else:
        return RhoInfo(math.inf, None, None, den)

    while float(hi - lo) > BISECT_TOL:
        mid = (lo + hi) / 2
        if f(mid) > 0:
            lo = mid
        else:
            hi = mid
    value = float((lo + hi) / 2)
    if not system.is_finite() and value > 1.0 + 1e-9:
        raise ConsistencyError("infinite group with radius above one")
    return RhoInfo(value, lo, hi, den)


def rho(system: CoxeterSystem) -> float:
    """Convergence radius of the growth series; inf for a finite group.

    For reducible systems the growth series multiplies over components,
    so the radius is the minimum over the irreducible components.
    """
    best = math.inf
    for comp in system.components:
        if system.component_is_finite(comp):
            continue
        sub, _ = system.subsystem(comp)
        best = min(best, rho_info(sub).value)
    return best


# -- factoriality classification ----------------------------------------------------

FACTOR = "factor"
FACTOR_PLUS_C = "factor_plus_C"
NOT_APPLICABLE = "not_applicable"


@dataclass(frozen=True)
class ComponentClassification:
    """Classification of one irreducible component's completed algebra."""
    generators: tuple[str, ...]
    kind: str                      # finite_abelian | dihedral | classified
    classification: str
    reason: str
    rho: float
    center_dimension: int | None


@dataclass(frozen=True)
class CenterReport:
    """Center structure of the completed algebra at parameter q.

    The overall center dimension multiplies over components (centers of
    tensor products are tensor products of centers); it is None when a
    two-generator infinite component leaves a summand unclassified.
    """
    q: Fraction
    rho: float
    classification: str
    reason: str
    center_dimension: int | None
    components: tuple[ComponentClassification, ...]
    residuals: dict = field(default_factory=dict)

    def summary(self) -> str:
        dim = "unknown" if self.center_dimension is None else self.center_dimension
        rho_s = "inf" if math.isinf(self.rho) else f"{self.rho:.12f}"
        lines = [f"q = {self.q}", f"rho = {rho_s}",
                 f"classification = {self.classification}"
                 + (f" ({self.reason})" if self.reason else ""),
                 f"center_dimension = {dim}"]
        if len(self.components) > 1:
            for c in self.components:
                cdim = "unknown" if c.center_dimension is None else c.center_dimension
                lines.append(f"  component {{{', '.join(c.generators)}}}: "
                             f"{c.classification}, center dim {cdim}")
        for name, val in self.residuals.items():
            lines.append(f"residual {name} = {val:.3e}")
        return "\n".join(lines)


def classify(system: CoxeterSystem, q) -> CenterReport:
    """Classify the center of the completed Hecke algebra at parameter q.

    Each irreducible component contributes: a finite Z2 component a
    two-dimensional commutative summand, an infinite component with at
    least three generators a factor (trivial center) exactly when
    min(q, 1/q) is at least the component's convergence radius, and a
    one-dimensional extra summand otherwise.  Two-generator infinite
    components are left unclassified (their center is large and outside
    the scope of the interval criterion).
    """
    q = Fraction(q)
    if q <= 0:
        raise InputError("q must be positive")
    comps = []
    total_dim: int | None = 1
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


# -- the radial symbol -----------------------------------------------------------


@dataclass(frozen=True)
class ZetaVector:
    """The radial vector q^{|w|/2} truncated to a metric ball."""
    system: CoxeterSystem
    q: Fraction
    radius: int
    elements: tuple[Element, ...]
    values: np.ndarray
    partial_norm_sq: tuple[float, ...]   # by level

    @property
    def norm_sq(self) -> float:
        return self.partial_norm_sq[-1]

    def exact_symbol(self) -> dict[Element, LaurentPoly]:
        """Formal version: u^{|w|} per ball element, with u^2 = q."""
        return {w: LaurentPoly.u_power(len(w)) for w in self.elements}


def zeta_symbol(system: CoxeterSystem, q, radius: int,
                max_elements: int = DEFAULT_MAX_BALL) -> ZetaVector:
    """Truncated radial symbol with its running partial norms.

    Requires q <= 1: for larger parameters classify at 1/q instead (the
    duality isomorphism exchanges the two algebras).
    """
    q = Fraction(q)
    if q <= 0:
        raise InputError("q must be positive")
    if q > 1:
        raise PreconditionError(
            "zeta needs q <= 1; apply the duality isomorphism and classify "
            "at 1/q instead")
    ball = system.ball(radius, max_elements)
    sq = math.sqrt(float(q))
    values = np.array([sq ** len(w) for w in ball])
    partials = []
    acc = 0.0
    cur_len = 0
    for w, v in zip(ball, values):
        if len(w) != cur_len:
            partials.append(acc)
            cur_len = len(w)
        acc += v * v
    partials.append(acc)
    return ZetaVector(system, q, radius, tuple(ball), values, tuple(partials))


def check_symbol_commutation(system: CoxeterSystem, s, xi: dict, p,
                             tol: float = 0.0) -> list[Element]:
    """Check the two-sided constraints a generator imposes on a symbol.

    For every w with |sws| = |w| + 2 whose whole quadruple lies in the
    domain of xi, the symbol must satisfy xi(sw) = xi(ws) and
    xi(sws) = xi(w) + p xi(sw).  Returns the violating w (empty = pass);
    exact values are compared exactly, floats to within tol.
    """
    s = system.generator_index(s)

    def eq(a, b):
        if isinstance(a, LaurentPoly) or isinstance(b, LaurentPoly):
            return a == b
        return abs(a - b) <= tol

    witnesses = []
    for w in xi:
        sw, d1 = system.mult_gen(w, s, LEFT)
        ws, d2 = system.mult_gen(w, s, RIGHT)
        if d1 < 0 or d2 < 0:
            continue
        sws, d3 = system.mult_gen(sw, s, RIGHT)
        if d3 < 0 or sws not in xi:
            continue
        if sw not in xi or ws not in xi:
            continue
        if not eq(xi[sw], xi[ws]) or not eq(xi[sws], xi[w] + p * xi[sw]):
            witnesses.append(w)
    return sorted(witnesses, key=Element.sort_key)


def double_coset_symbol_check(system: CoxeterSystem, pair: InfinitePair,
                              w: Element, xi: dict, p=None,
                              tol: float = 0.0) -> list[Element]:
    """Check that a symbol is radial along one non-degenerate double coset.

    Every coset element dwd' in the domain of xi must carry the value
    xi(w0) q^{(|dwd'| - |w0|)/2}, where w0 is the shortest representative.
    Exact symbols (Laurent values) are compared exactly using powers of u.
    """
    info = shortest_rep(system, pair, w)
    if not info.nondegenerate:
        raise PreconditionError(
            "the double coset is degenerate: its shortest element commutes "
            "with both generators, so the radial constraint does not apply")
    w0 = info.w0
    if w0 not in xi:
        raise InputError("the coset's shortest element is outside the symbol")
    radius = max(len(v) for v in xi)
    base = xi[w0]
    exact = isinstance(base, LaurentPoly)
    if not exact and p is None:
        raise InputError("numeric symbols need the evaluation parameter")
    witnesses = []
    for v in coset_elements(system, info, radius):
        if v not in xi:
            continue
        gap = len(v) - len(w0)
        if exact:
            expected = base * LaurentPoly.u_power(gap)
            ok = xi[v] == expected
        else:
            expected = base * p ** gap        # here p is sqrt(q)
            ok = abs(xi[v] - expected) <= tol
        if not ok:
            witnesses.append(v)
    return sorted(witnesses, key=Element.sort_key)


# -- the distance recurrence along a coset --------------------------------------------


@dataclass(frozen=True)
class RecurrenceReport:
    """Mode decomposition of the distance recurrence f(n+2) = p f(n+1) + f(n).

    The general solution combines q^{n/2} and (-1)^n q^{-n/2}; along an
    infinite coset only the first is square-summable, so admissibility
    demands beta = 0 (and for q = 1, where both modes have constant
    magnitude, alpha = 0 as well).
    """
    q: float
    values: tuple[float, ...]
    alpha: float
    beta: float
    admissible: bool


def coset_recurrence(q, f0: float, f1: float, n: int,
                     tol: float = 1e-12) -> RecurrenceReport:
    """Iterate the recurrence and solve for the mode coefficients."""
    q = float(q)
    if q <= 0:
        raise InputError("q must be positive")
    sq = math.sqrt(q)
    p = (q - 1.0) / sq
    values = [float(f0), float(f1)]
    for _ in range(max(n - 1, 0)):
        values.append(p * values[-1] + values[-2])
    # modes: f(k) = alpha q^{k/2} + beta (-1)^k q^{-k/2}
    alpha = (f0 / sq + f1) * sq / (q + 1.0)
    beta = f0 - alpha
    for k, v in enumerate(values):
        model = alpha * sq ** k + beta * (-1.0) ** k * sq ** (-k)
        if abs(model - v) > 1e-9 * max(1.0, abs(v)):
            raise ConsistencyError("mode decomposition failed to reproduce "
                                   "the iterated values")
    scale = max(abs(f0), abs(f1), 1.0)
    if q < 1.0:
        admissible = abs(beta) <= tol * scale
    elif q == 1.0:
        admissible = abs(alpha) <= tol * scale and abs(beta) <= tol * scale
    else:
        admissible = abs(beta) <= tol * scale
    return RecurrenceReport(q=q, values=tuple(values[: n + 1]),
                            alpha=alpha, beta=beta, admissible=admissible)


# -- certification of the central projection -------------------------------------------


@dataclass(frozen=True)
class ProjectionReport:
    """Numerical certificate for the rank-one central projection at q < rho.

    The action matrix of the truncated radial operator is assembled on the
    ball's right-multiplication table, the column of w = w't being the
    column of w' times t; entries with |v| + |w| <= radius are exact
    (truncation effects cannot propagate that far inward), so residuals
    are evaluated on the certified square sub-block over the half-radius
    ball.  The scaling identity is exact: it is decided in integers on the
    table's lengths, one check per interior vertex and generator.
    """
    q: Fraction
    radius: int
    certified_radius: int
    w_q: float                       # series value W(q)
    partial_norm_sq: float           # certified-ball partial sum of q^{|w|}
    scaling_identity_exact: bool     # generator action scales zeta by sqrt(q)
    scaling_checks: int
    projection_residual: float       # ||P^2 - P|| on the certified block
    projection_bound: float          # analytic tail bound (W - W_h)/W
    commutator_max: float            # max_s ||[L_s, P]|| on the certified block
    rayleigh_estimate: float         # certified Rayleigh quotient, -> W(q)
    rayleigh_gap: float

    def summary(self) -> str:
        return "\n".join([
            f"q = {self.q}, ball radius {self.radius}, certified radius "
            f"{self.certified_radius}",
            f"W(q) = {self.w_q:.12f}, certified partial norm^2 = "
            f"{self.partial_norm_sq:.12f}",
            f"generator scaling identity exact on interior: "
            f"{self.scaling_identity_exact} ({self.scaling_checks} checks)",
            f"projection residual ||P^2 - P|| = {self.projection_residual:.6e}"
            f"  (analytic tail bound {self.projection_bound:.6e})",
            f"max generator commutator norm = {self.commutator_max:.6e}",
            f"Rayleigh estimate {self.rayleigh_estimate:.12f} vs W(q) "
            f"(gap {self.rayleigh_gap:.6e})",
        ])


def verify_central_projection(system: CoxeterSystem, q, radius: int,
                              max_elements: int = DEFAULT_MAX_BALL) -> ProjectionReport:
    """Certify that the normalized radial operator is close to a projection.

    Runs four checks: (a) the exact generator scaling identity for the
    radial symbol on interior vertices, decided by integer exponents on
    the ball's right-multiplication table (the symbol is u^{|w|}); (b) the
    residual ||P^2 - P|| of the truncated, normalized action matrix on the
    certified sub-block, against the analytic tail bound; (c) commutation
    of P with every generator's left action on the certified sub-block;
    (d) the certified Rayleigh quotient converging to W(q).
    """
    q = Fraction(q)
    if not system.irreducible or system.is_finite() or system.n < 3:
        raise DomainError("projection certification needs an irreducible "
                          "infinite system with at least 3 generators")
    if radius < 2:
        raise InputError("radius must be at least 2")
    series = growth_series(system)
    info = rho_info(system, series)
    if not info.q_below_rho(q):
        raise PreconditionError(
            "no central projection exists for q >= rho: the radial vector "
            "is not square-summable")

    words, lengths, idx, desc = system.ball_table(radius, max_elements)

    # (a) formal scaling identity on interior vertices: for xi = u^{|w|} and
    # p = u - 1/u, xi(ws) + [s descent] p xi(w) = u xi(w) holds iff ws lies
    # in the ball with |ws| = |w| - 1 on a descent and |w| + 1 otherwise
    n_in = int(np.count_nonzero(lengths <= radius - 1))
    image = idx[:, :n_in]
    step = np.where(desc[:, :n_in], -1, 1)
    exact_ok = bool(np.all((image >= 0)
                           & (lengths[image] == lengths[:n_in] + step)))
    checks = system.n * n_in

    # numeric data
    qf = float(q)
    sq = math.sqrt(qf)
    p = (qf - 1.0) / sq
    zeta = sq ** lengths.astype(float)
    w_q = float(series.evaluate(q))

    h = radius // 2
    n_h = int(np.count_nonzero(lengths <= h))
    ends = np.searchsorted(lengths, np.arange(2 * h + 1), side="right")

    def apply_right(vec: np.ndarray, s: int, end: int) -> np.ndarray:
        moved = np.where(idx[s, :end] >= 0, vec[idx[s, :end]], 0.0)
        return moved + p * vec[:end] * desc[s, :end]

    # (b) truncated action matrix of the radial operator, certified block.
    # The column of w = w't is its parent's column times t; a column at
    # length k is needed only up to length 2h - k to fill the block.
    columns = [zeta[:ends[2 * h]]]
    for jcol in range(1, n_h):
        t = words[jcol][-1]
        columns.append(apply_right(columns[idx[t, jcol]], t,
                                   ends[2 * h - lengths[jcol]]))
    m_h = np.column_stack([col[:n_h] for col in columns])
    partial = float(sum(Fraction(c) * q ** k
                        for k, c in enumerate(system.sphere_counts(h))))
    p_mat = m_h / w_q
    residual = float(np.linalg.norm(p_mat @ p_mat - p_mat, 2))
    bound = (w_q - partial) / w_q

    # (c) commutators with generator left actions on the certified block
    n_c = int(np.count_nonzero(lengths <= h - 1))
    commutator_max = 0.0
    ball_h = [Element(system, word) for word in words[:n_h]]
    index = {w.word: i for i, w in enumerate(ball_h)}
    for s in range(system.n):
        l_mat = np.zeros((n_h, n_h))
        for jcol, w in enumerate(ball_h):
            sw, delta = system.mult_gen(w, s, LEFT)
            i = index.get(sw.word)
            if i is not None:
                l_mat[i, jcol] = 1.0
            if delta < 0:
                l_mat[jcol, jcol] += p
        comm = (l_mat @ p_mat - p_mat @ l_mat)[:n_c, :n_c]
        if comm.size:
            commutator_max = max(commutator_max,
                                 float(np.linalg.norm(comm, 2)))

    # (d) certified Rayleigh quotient
    zeta_h = zeta[:n_h]
    denom = float(zeta_h @ zeta_h)
    rayleigh = float(zeta_h @ (m_h @ zeta_h)) / denom if denom else 0.0

    return ProjectionReport(
        q=q, radius=radius, certified_radius=h, w_q=w_q,
        partial_norm_sq=partial,
        scaling_identity_exact=exact_ok, scaling_checks=checks,
        projection_residual=residual, projection_bound=bound,
        commutator_max=commutator_max,
        rayleigh_estimate=rayleigh, rayleigh_gap=abs(w_q - rayleigh),
    )
