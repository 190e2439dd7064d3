"""Growth series, convergence radius, factoriality classification, and
numerical certification of the radial central symbol.

The spherical growth series of a right-angled system is rational:
1/W(t) = f(-t/(1+t)), f the clique polynomial of the commutation graph
(c_k cliques of size k), which is the independence polynomial of the
non-commutation graph and is computed by deletion-contraction.  With
omega = deg f the clique number, W(t) = (1+t)^omega / Q(t) where
Q = sum c_k (-t)^k (1+t)^{omega-k}.  This is in lowest terms by
construction: Q(0) = c_0 = 1 and Q(-1) = c_omega >= 1, so the
irreducible 1 + t does not divide Q.  The formula is validated at
construction against the sphere counts of the canonical-word automaton
to depth 12, and the build aborts on any mismatch, so no downstream
result rests on the formula alone.

The convergence radius rho is the smallest positive root of the reduced
denominator: the series has nonnegative coefficients, hence a singularity
on the positive axis.  Sturm's theorem, on the integer Sturm chain of
the denominator, decides exactly whether a root lies in (0, x] for
rational x, and a search on that predicate picks a cell of width at most
1e-12: it probes first the cell a float Newton estimate points at, then
bisects what is left.
For an irreducible system with at least three generators, the
completed algebra at parameter q has trivial center exactly for q in
[rho, 1/rho]; below rho the radial vector

    zeta(w) = q^{|w|/2}

is square-summable with norm^2 = W(q) and spans the extra central summand.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from typing import Iterator

import numpy as np

from .coxeter import (LEFT, RIGHT, CoxeterSystem, Element, DEFAULT_MAX_BALL,
                      _component, _level_ends, _tree_words)
from .cosets import InfinitePair, coset_elements, shortest_rep
from .errors import ConsistencyError, DomainError, InputError, PreconditionError
from .laurent import (LaurentPoly, _coerce, _has_root_up_to, _poly_add,
                      _poly_eval, _poly_mul, _sparse_mul_into, _sturm_chain,
                      float_q, poly_str, positive_q)

# -- the rational growth series -------------------------------------------------


@dataclass(frozen=True)
class RationalSeries:
    """A rational function with integer coefficients, in lowest terms,
    normalized so the denominator has positive constant term."""
    numerator: tuple[int, ...]
    denominator: tuple[int, ...]

    def taylor(self, n: int) -> list[int]:
        """First n + 1 Taylor coefficients at zero (exact integers)."""
        return list(itertools.islice(self.coefficients(), max(n + 1, 0)))

    def coefficients(self) -> Iterator[int]:
        """All Taylor coefficients at zero, each computed when it is read."""
        den = self.denominator
        if not den or den[0] == 0:
            raise DomainError("series is not regular at zero")
        coeffs: list[int] = []
        for k in itertools.count():
            acc = self.numerator[k] if k < len(self.numerator) else 0
            for j in range(1, min(k, len(den) - 1) + 1):
                acc -= den[j] * coeffs[k - j]
            c, rem = divmod(acc, den[0])
            if rem:
                raise ConsistencyError("non-integer Taylor coefficient")
            coeffs.append(c)
            yield c

    def evaluate(self, x: Fraction) -> Fraction:
        den = _poly_eval(self.denominator, Fraction(x))
        if den == 0:
            raise DomainError(f"pole at {x}")
        return _poly_eval(self.numerator, Fraction(x)) / den

    def __str__(self):
        return f"({poly_str(self.numerator)}) / ({poly_str(self.denominator)})"


def _clique_polynomial(system: CoxeterSystem) -> list[int]:
    """Clique polynomial of the commutation graph: coefficient k counts the
    cliques of size k (the empty clique included).

    It is the independence polynomial I of the non-commutation graph,
    computed on vertex bitmasks with I(empty) = 1, as the product over
    the connected components of a disconnected mask, and on a connected
    mask with lowest vertex v by deletion-contraction,
    I(mask) = I(mask - v) + x I(mask - N[v]) (Levit-Mandrescu).
    """
    noncomm = system._noncomm

    @cache
    def indep(mask: int) -> tuple[int, ...]:
        if not mask & (mask - 1):               # no vertex or one
            return (1, 1) if mask else (1,)
        v = (mask & -mask).bit_length() - 1
        comp = _component(noncomm, v, mask)
        if comp != mask:
            return tuple(_poly_mul(indep(comp), indep(mask & ~comp)))
        rest = mask & ~(1 << v)
        return tuple(_poly_add(indep(rest), (0,) + indep(rest & ~noncomm[v])))

    return list(indep(system._full))


#: Depth to which every growth series is checked against sphere counts.
VALIDATION_DEPTH = 12


def growth_series(system: CoxeterSystem) -> RationalSeries:
    """The spherical growth series, reduced to lowest terms.

    Construction checks the Taylor coefficients against the sphere counts
    of the canonical-word automaton up to ``VALIDATION_DEPTH`` and aborts
    on any disagreement.  The validated result is cached on the system.
    """
    cached = getattr(system, "_growth_series", None)
    if cached is not None:
        return cached
    # hard postcondition: closed form must reproduce the automaton's counts,
    # counted first so that a count that raises costs no cliques
    observed = system.sphere_counts(VALIDATION_DEPTH, math.inf)
    cliques = _clique_polynomial(system)
    num, den = [1], [cliques[0]]    # (1+t)^k, Q_k = Q_{k-1} (1+t) + c_k (-t)^k
    for k, c in enumerate(cliques[1:], 1):
        num = _poly_mul(num, [1, 1])
        den = _poly_add(_poly_mul(den, [1, 1]), [0] * k + [(-1) ** k * c])
    series = RationalSeries(tuple(num), tuple(den))
    predicted = series.taylor(VALIDATION_DEPTH)
    if predicted != observed:
        raise ConsistencyError(
            f"growth series coefficients {predicted} disagree with "
            f"automaton sphere counts {observed}")
    system._growth_series = series
    return series


# -- convergence radius -----------------------------------------------------------


@dataclass(frozen=True)
class RhoInfo:
    """Convergence radius of a growth series with an exact decision bracket.

    ``value`` is the midpoint of the bracket (bracket_low, bracket_high],
    of width at most ``BISECT_TOL``, that holds the smallest positive root
    of the reduced denominator, or inf for a finite group (no root in
    (0, 1]).  The denominator has no root in (0, bracket_low] and one in
    (0, bracket_high]; both ends are fractions a / (10^4 2^j).
    """
    value: float
    bracket_low: Fraction | None
    bracket_high: Fraction | None
    denominator: tuple[int, ...]

    def q_below_rho(self, q: Fraction) -> bool:
        """Exact decision of q < rho for rational q > 0: the denominator
        has no root in (0, q].  The bracket decides q outside its cell; the
        Sturm chain counts q inside it, or any q when rho is inf."""
        q = positive_q(q)
        if self.bracket_low is not None and not \
                self.bracket_low < q < self.bracket_high:
            return q <= self.bracket_low
        return not _has_root_up_to(_sturm_chain(self.denominator),
                                   q.numerator, q.denominator)


#: rho is placed in a cell of the grid of (0, 1] with GRID_CELLS 2^j equal
#: cells, j the least for which a cell is at most BISECT_TOL wide.
GRID_CELLS = 10**4
BISECT_TOL = 1e-12


def rho_info(system: CoxeterSystem) -> RhoInfo:
    """Locate the smallest denominator root in (0, 1] by exact root
    counting on its integer Sturm chain.

    "A root lies in (0, x]" is monotone in x, so any search keeping it
    false at lo and true at hi ends in the cell, of the 10^4 2^27 cells
    of width at most 1e-12, that holds the root.  :func:`_locate_root`
    probes the cell of a float Newton estimate and the neighbour its answer
    points to, then bisects the rest; every decision is an integer sign
    count, so a double root or two roots in one cell cannot be missed.
    The result is cached on the system.
    """
    cached = getattr(system, "_rho_info", None)
    if cached is not None:
        return cached
    info = _locate_root(growth_series(system).denominator)
    system._rho_info = info
    return info


def _locate_root(den: tuple[int, ...]) -> RhoInfo:
    """The :class:`RhoInfo` of a denominator positive at zero; see rho_info."""
    if den[0] <= 0:
        raise ConsistencyError("denominator not positive at zero")
    chain = _sturm_chain(den)
    if not _has_root_up_to(chain, 1, 1):
        return RhoInfo(math.inf, None, None, den)
    scale = GRID_CELLS
    while 1 / scale > BISECT_TOL:
        scale *= 2
    lo, hi = 0, scale                 # roots up to hi/scale, none up to lo/scale
    probe = min(int(_root_estimate(den) * scale), scale - 1)
    for _ in range(2):                # the estimate's cell, then its neighbour
        if _has_root_up_to(chain, probe, scale):
            hi, probe = probe, probe - 1
        else:
            lo, probe = probe, probe + 1
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if _has_root_up_to(chain, mid, scale):
            hi = mid
        else:
            lo = mid
    return RhoInfo((2 * lo + 1) / (2 * scale), Fraction(lo, scale),
                   Fraction(hi, scale), den)


def _root_estimate(den: tuple[int, ...]) -> float:
    """Float Newton estimate, in [0, 1], of the smallest positive root of
    ``den``, from t = 0.  It stops at the first step no shorter than the
    one before, so it ends; it only picks where exact counts look first."""
    slope_poly = [k * c for k, c in enumerate(den)][1:]
    t, last = 0.0, math.inf
    while slope := _poly_eval(slope_poly, t):
        step = _poly_eval(den, t) / slope
        if not abs(step) < last:
            break
        t, last = t - step, abs(step)
    return min(max(t, 0.0), 1.0)


def component_rhos(system: CoxeterSystem) -> dict[tuple[int, ...], RhoInfo | None]:
    """Each irreducible component, by indices, to the :class:`RhoInfo` of
    its subsystem: the one walk over the components for radii.  A
    one-generator component (the finite Z2, radius inf) maps to None, and
    no subsystem, growth series or Sturm chain is built for it."""
    return {comp: None if system.component_is_finite(comp)
            else rho_info(system.subsystem(comp)[0])
            for comp in system.components}


def rho(system: CoxeterSystem) -> float:
    """Convergence radius of the growth series; inf for a finite group.

    For reducible systems the growth series multiplies over components,
    so the radius is the least radius in :func:`component_rhos`.
    """
    return min((info.value for info in component_rhos(system).values()
                if info is not None), default=math.inf)


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
        return "\n".join(lines)


def _classify_component(names: tuple[str, ...], info: RhoInfo | None,
                        q: Fraction) -> ComponentClassification:
    """One component's entry of :func:`classify`, from its radius record."""
    if info is None:
        return ComponentClassification(
            generators=names, kind="finite_abelian",
            classification=NOT_APPLICABLE,
            reason="finite abelian component: commutative summand",
            rho=math.inf, center_dimension=2)
    if len(names) < 3:
        return ComponentClassification(
            generators=names, kind="dihedral", classification=NOT_APPLICABLE,
            reason="infinite two-generator component: the interval "
                   "criterion requires at least 3 generators",
            rho=info.value, center_dimension=None)
    r = min(q, 1 / q)
    inside = (r >= 1) or not info.q_below_rho(r)
    return ComponentClassification(
        generators=names, kind="classified",
        classification=FACTOR if inside else FACTOR_PLUS_C, reason="",
        rho=info.value, center_dimension=1 if inside else 2)


def classify(system: CoxeterSystem, q) -> CenterReport:
    """Classify the center of the completed Hecke algebra at parameter q.

    Each irreducible component contributes, read off its entry of
    :func:`component_rhos`: a finite Z2 component a two-dimensional
    commutative summand, an infinite component with at least three
    generators a factor (trivial center) exactly when min(q, 1/q) is at
    least the component's convergence radius, and a one-dimensional extra
    summand otherwise.  Two-generator infinite components are left
    unclassified (their center is large and outside the scope of the
    interval criterion).  The overall rho and center dimension are the
    minimum and the product over the components' entries."""
    q = positive_q(q)
    comps = tuple(_classify_component(tuple(system.names[i] for i in comp),
                                      info, q)
                  for comp, info in component_rhos(system).items())
    dims = [c.center_dimension for c in comps]
    total_dim = None if None in dims else math.prod(dims)

    if len(comps) == 1:
        classification, reason = comps[0].classification, comps[0].reason
    elif total_dim == 1:
        classification, reason = FACTOR, "all components are factors"
    elif total_dim is None:
        classification = NOT_APPLICABLE
        reason = "a two-generator infinite component is unclassified"
    else:
        classification = NOT_APPLICABLE
        reason = ("reducible system: center dimension reported, summands "
                  "not classified")
    return CenterReport(q=q, rho=min(c.rho for c in comps),
                        classification=classification, reason=reason,
                        center_dimension=total_dim, components=comps)


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
    q = positive_q(q)
    if q > 1:
        raise PreconditionError(
            "zeta needs q <= 1; apply the duality isomorphism and classify "
            "at 1/q instead")
    sq = float_q(q)[1]
    lengths, parent, last = system._ball_levels(radius, max_elements)
    values = np.array([sq ** k for k in range(int(lengths[-1]) + 1)])[lengths]
    partials = tuple(np.cumsum(values * values)[_level_ends(lengths) - 1])
    elements = tuple(Element(system, w) for w in _tree_words(parent, last))
    return ZetaVector(system, q, radius, elements, values, partials)


def _symbol_radius(system: CoxeterSystem, xi: dict) -> int:
    """The longest key of the symbol xi (0 for none), each one checked to
    be an element of ``system`` in the same pass, with no call per key."""
    radius = 0
    for w in xi:
        if w.system is not system:
            raise InputError("element belongs to a different Coxeter system")
        if len(w.word) > radius:
            radius = len(w.word)
    return radius


def check_symbol_commutation(system: CoxeterSystem, s, xi: dict,
                             p) -> list[Element]:
    """Check the two-sided constraints a generator imposes on a symbol.

    For every w with |sws| = |w| + 2 whose whole quadruple lies in the
    domain of xi, the symbol must satisfy xi(sw) = xi(ws) and
    xi(sws) = xi(w) + p xi(sw), compared exactly on coefficient dicts.
    Returns the violating w (empty = pass).  One pass maps canonical words
    to values and finds the longest key; a w longer than it minus 2 is
    skipped: its sws is outside xi.
    """
    s = system.generator_index(s)
    vals, radius = {}, 0
    for w, v in xi.items():
        if w.system is not system:
            raise InputError("element belongs to a different Coxeter system")
        vals[w.word] = v
        if len(w.word) > radius:
            radius = len(w.word)
    cut, step, pt = radius - 2, system._step, _coerce(p).terms
    witnesses = []
    for w, v in vals.items():
        if len(w) > cut:
            continue
        ws, d2 = step(w, s, RIGHT)
        if d2 < 0:
            continue
        sw, d1 = step(w, s, LEFT)
        if d1 < 0:
            continue
        sws, d3 = step(sw, s, RIGHT)
        if d3 < 0 or not (sws in vals and sw in vals and ws in vals):
            continue
        a = _coerce(vals[sw]).terms
        rhs = _sparse_mul_into(dict(_coerce(v).terms), pt, a)
        if a != _coerce(vals[ws]).terms or _coerce(vals[sws]).terms != {
                e: c for e, c in rhs.items() if c}:
            witnesses.append(Element(system, w))
    return sorted(witnesses, key=Element.sort_key)


def double_coset_symbol_check(system: CoxeterSystem, pair: InfinitePair,
                              w: Element, xi: dict) -> list[Element]:
    """Check that a symbol is radial along one non-degenerate double coset.

    Every coset element dwd' in the domain of xi must carry the value
    xi(w0) u^{|dwd'| - |w0|}, where w0 is the shortest representative:
    each value's {exponent: coefficient} dict is compared with xi(w0)'s,
    shifted.  The coset is walked up to the longest key, found by a scan
    of xi that refuses a key of another system with ``InputError``.
    """
    info = shortest_rep(system, pair, w)
    if not info.nondegenerate:
        raise PreconditionError(
            "the double coset is degenerate: its shortest element commutes "
            "with both generators, so the radial constraint does not apply")
    w0 = info.w0
    if w0 not in xi:
        raise InputError("the coset's shortest element is outside the symbol")
    radius, base = _symbol_radius(system, xi), _coerce(xi[w0]).terms
    witnesses = [v for v in coset_elements(system, info, radius)
                 if v in xi and _coerce(xi[v]).terms != {
                     e + len(v.word) - len(w0.word): c for e, c in base.items()}]
    return sorted(witnesses, key=Element.sort_key)


# -- the distance recurrence along a coset --------------------------------------------


@dataclass(frozen=True)
class RecurrenceReport:
    """Mode decomposition of the distance recurrence f(n+2) = p f(n+1) + f(n).

    The general solution combines q^{n/2} and (-1)^n q^{-n/2}; along an
    infinite coset only the decaying mode is square-summable, so
    admissibility demands beta = 0 for q <= 1 and alpha = 0 for q >= 1
    (both at q = 1, where the two modes have constant magnitude).
    """
    q: float
    values: tuple[float, ...]
    alpha: float
    beta: float
    admissible: bool


def coset_recurrence(q, f0: float, f1: float, n: int) -> RecurrenceReport:
    """Iterate the recurrence and solve for the mode coefficients."""
    q, sq, p = float_q(q)
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
    bound = 1e-12 * max(abs(f0), abs(f1), 1.0)
    admissible = ((q > 1.0 or abs(beta) <= bound)
                  and (q < 1.0 or abs(alpha) <= bound))
    return RecurrenceReport(q=q, values=tuple(values[: n + 1]),
                            alpha=alpha, beta=beta, admissible=admissible)


# -- certification of the central projection -------------------------------------------


@dataclass(frozen=True)
class ProjectionReport:
    """Certificate for the rank-one central projection at q < rho.

    M_h is the truncated radial operator's action matrix on the half-radius
    ball, where its entries are exact (truncation effects cannot propagate
    that far inward), and P = M_h / W(q).  The residual, its bound and the
    Rayleigh quotient are those of M_h = zeta_h zeta_h^T, which the exact
    scaling identity implies (see :func:`verify_central_projection`);
    ``commutator_max`` is the one field read off the computed P.
    """
    q: Fraction
    radius: int
    certified_radius: int
    w_q: float                       # series value W(q)
    partial_norm_sq: float           # W_h, certified-ball sum of q^{|w|}
    scaling_identity_exact: bool     # generator action scales zeta by sqrt(q)
    scaling_checks: int
    projection_residual: float       # ||P^2 - P|| = x (1 - x), x = W_h / W(q)
    projection_bound: float          # analytic tail bound 1 - x = (W - W_h)/W
    commutator_max: float            # max_s ||[L_s, P]|| on the certified block
    rayleigh_estimate: float         # certified Rayleigh quotient W_h, -> W(q)
    rayleigh_gap: float              # W(q) - W_h

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


def _table_phases(system: CoxeterSystem, radius: int, sq: float, p: float,
                  max_elements: int) -> tuple:
    """Phases (a) and (b) of :func:`verify_central_projection`, and what
    (c) reads of the ball table.  The table dies after (a): (b) reads copies
    of its first rows only, and (c) its left table of ball(h - 1)."""
    table = system.ball_table(radius, max_elements)
    lengths, parent, last, idx, desc = table
    ends = _level_ends(lengths).tolist()

    # (a) formal scaling identity on interior vertices, a generator row at a
    # time: for xi = u^{|w|} and p = u - 1/u, xi(ws) + [s descent] p xi(w) =
    # u xi(w) iff ws is in the ball with |ws| = |w| - 1 on a descent, else + 1
    n_in = ends[radius - 1]
    exact_ok = all(np.all((idx[s, :n_in] >= 0) & (lengths[idx[s, :n_in]]
                   == lengths[:n_in] + np.where(desc[s, :n_in], -1, 1)))
                   for s in range(system.n))

    # (b) truncated action matrix of the radial operator, certified block.
    # The column of w = w't is its parent's column times t, needed up to
    # length 2h - |w|; M_h is filled from one level of columns at a time.
    h = radius // 2
    n_h, n_b = ends[h], ends[2 * h - 1]
    zeta = sq ** lengths[:ends[2 * h]].astype(float)
    left = table.left(ends[h - 1])
    idx, desc = idx[:, :n_b].copy(), desc[:, :n_b].copy()
    parent, last = parent[:n_h].copy(), last[:n_h].copy()
    del table, lengths
    m_h, above = np.empty((n_h, n_h)), zeta[None, :]
    m_h[:, 0] = zeta[:n_h]
    for k, (lo, hi) in enumerate(zip(ends[:h], ends[1:h + 1]), 1):
        end = ends[2 * h - k]
        level = np.empty((hi - lo, end))
        for j in range(lo, hi):     # the level above ends at row lo
            i, row = parent[j] - lo + len(above), idx[last[j], :end]
            level[j - lo] = (np.where(row >= 0, above[i, row], 0.0)
                             + p * above[i, :end] * desc[last[j], :end])
        m_h[:, lo:hi] = level[:, :n_h].T
        above = level
    spheres = np.diff(ends[:h + 1], prepend=0).tolist()
    return exact_ok, n_in, m_h, spheres, *left


def verify_central_projection(system: CoxeterSystem, q, radius: int,
                              max_elements: int = DEFAULT_MAX_BALL) -> ProjectionReport:
    """Certify that the normalized radial operator is close to a projection.

    Phases, on the ball and its certified block ball(h), h = radius // 2:
    (a) the exact generator scaling identity for the radial symbol u^{|w|}
    on interior vertices, decided by integer exponents on the ball's
    right-multiplication table; (b) the action matrix M_h, scaled in place
    into P = M_h / W(q); (c) commutation of P with each generator's left
    action on ball(h - 1), gathered by its left table.  The table dies
    after (a) and (b).

    Where (a) holds, M_h = zeta_h zeta_h^T, so for the exact
    x = W_h / W(q) the residual ||P^2 - P|| is x (1 - x), the tail bound
    1 - x and the Rayleigh quotient W_h, each rounded once.  As 0 < x < 1
    for an infinite series, the residual is below the bound by
    construction, and the certificate passes exactly when (a) holds.
    Where (a) fails, those fields describe the rank-one operator it would
    give, not the computed M_h.
    """
    q = positive_q(q)
    if not system.irreducible or system.is_finite() or system.n < 3:
        raise DomainError("projection certification needs an irreducible "
                          "infinite system with at least 3 generators")
    if radius < 2:
        raise InputError("radius must be at least 2")
    series = growth_series(system)
    info = rho_info(system)
    if not info.q_below_rho(q):
        raise PreconditionError(
            "no central projection exists for q >= rho: the radial vector "
            "is not square-summable")

    _, sq, p = float_q(q)
    w_exact = series.evaluate(q)
    exact_ok, n_in, m_h, spheres, left, ldesc = _table_phases(
        system, radius, sq, p, max_elements)
    partial = sum(Fraction(c) * q ** k for k, c in enumerate(spheres))
    x = partial / w_exact
    p_mat = np.divide(m_h, float(w_exact), out=m_h)

    # (c) commutators with generator left actions on the certified block
    # ball(h - 1), gathered from P since s z stays in ball(h):
    # (L_s P)[i, k] = P[s z_i, k] + p [s in D_L(z_i)] P[i, k], and
    # (P L_s)[i, k] = P[i, s z_k] + p [s in D_L(z_k)] P[i, k]
    n_c = left.shape[1]
    block = p_mat[:n_c, :n_c]
    commutator_max = max(float(np.linalg.norm(
        (p_mat[ls, :n_c] + p * d[:, None] * block)
        - (p_mat[:n_c, ls] + p * block * d), 2)) for ls, d in zip(left, ldesc))

    return ProjectionReport(
        q=q, radius=radius, certified_radius=radius // 2,
        w_q=float(w_exact), partial_norm_sq=float(partial),
        scaling_identity_exact=exact_ok, scaling_checks=system.n * n_in,
        projection_residual=float(x * (1 - x)), projection_bound=float(1 - x),
        commutator_max=commutator_max,
        rayleigh_estimate=float(partial), rayleigh_gap=float(w_exact - partial),
    )
