"""Free products of the finite abelian pieces: atomic measures, explicit
idempotents, the iterated two-factor decomposition, and the closed-form
factoriality condition with cross-validation against the growth radius.

The completed algebra of Z2^k is commutative of dimension 2^k, carrying
the measure mu_k(w) = q^{|w|} / (q+1)^k.  For a free product of such
pieces the atomic part of the completed algebra survives exactly on
tuples whose measure masses sum to more than n - 1, each atom keeping the
excess as its weight; everything else collapses into a single diffuse
summand (an interpolated free group factor, kept here as an opaque
presence flag).
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from .coxeter import DEFAULT_MAX_BALL, CoxeterSystem, Element
from .errors import CapacityError, InputError, PreconditionError
from .hecke import HeckeElement, mul, state_phi, t_basis, unit
from .growth import FACTOR, FACTOR_PLUS_C, CenterReport, classify
from .laurent import LaurentPoly, positive_q


@dataclass(frozen=True)
class FreeFactorSpec:
    """Ranks (k_1, ..., k_n) of the free factors Z2^{k_i}, n >= 2."""
    ranks: tuple[int, ...]

    def __post_init__(self):
        if len(self.ranks) < 2:
            raise InputError("a free product needs at least two factors")
        if any(k < 1 for k in self.ranks):
            raise InputError("every rank must be a positive integer")

    def system(self) -> CoxeterSystem:
        """The Coxeter system of disjoint commuting cliques."""
        names = []
        pairs = []
        for fi, k in enumerate(self.ranks):
            block = [f"g{fi + 1}_{j + 1}" for j in range(k)]
            for a, b in itertools.combinations(block, 2):
                pairs.append((a, b))
            names.extend(block)
        return CoxeterSystem(names, pairs)


@dataclass(frozen=True)
class AtomicMeasure:
    """A finitely supported measure with labeled atoms and total at most 1."""
    masses: dict

    def __post_init__(self):
        for x, m in self.masses.items():
            if m <= 0:
                raise InputError(f"atom {x} carries non-positive mass")
        if self.total() > 1:
            raise InputError("total mass exceeds one")

    def total(self) -> Fraction:
        # each distinct mass once, times the number of atoms carrying it
        return sum((m * c for m, c in Counter(self.masses.values()).items()),
                   Fraction(0))

    def points(self):
        return sorted(self.masses)

    def __len__(self):
        return len(self.masses)


def _check_atoms(count: int) -> None:
    if count > DEFAULT_MAX_BALL:
        raise CapacityError(f"the decomposition would need {count} atoms, more "
                            f"than the cap DEFAULT_MAX_BALL = {DEFAULT_MAX_BALL}")


def mu_k(k: int, q) -> AtomicMeasure:
    """The state measure of Z2^k: mass q^{|w|} / (q+1)^k on each subset word.

    Atoms are labeled by sorted tuples of coordinate indices (the subset of
    generators appearing in the element); total mass is exactly one.
    """
    if k < 1:
        raise InputError("k must be at least 1")
    q = positive_q(q)
    _check_atoms(2 ** k)
    denom = (q + 1) ** k
    masses = {}
    for r in range(k + 1):
        mass = q ** r / denom
        for subset in itertools.combinations(range(k), r):
            masses[subset] = mass
    measure = AtomicMeasure(masses)
    # the total per size class: sum_r C(k, r) q^r == (q + 1)^k
    assert sum(math.comb(k, r) * masses[tuple(range(r))]
               for r in range(k + 1)) == 1
    return measure


@dataclass(frozen=True)
class IdempotentPair:
    """The two spectral projections of a single generator's algebra.

    Over Z2 the unit splits as e+ + e- with

        e+ = (sqrt(q) T_s + 1) / (q + 1),   e- = 1 - e+.

    The factor 1/(q+1) is not a Laurent polynomial in u, so the exact
    identities are verified in cleared form: with E = sqrt(q) T_s + 1 and
    c = q + 1 (both in the ring), E^2 = c E encodes e+^2 = e+, and the
    states phi(e+) = 1/(q+1), phi(e-) = q/(q+1) are exact rationals.
    """
    system: CoxeterSystem
    scaled_plus: HeckeElement      # (q+1) e+
    scaled_minus: HeckeElement     # (q+1) e-
    scale: LaurentPoly             # q + 1 = u^2 + 1
    q: Fraction
    state_plus: Fraction
    state_minus: Fraction

    def numeric(self) -> tuple[HeckeElement, HeckeElement]:
        """The idempotents themselves, as numeric-mode elements."""
        inv = 1.0 / (float(self.q) + 1.0)
        return (self.scaled_plus.specialize(self.q).scale(inv),
                self.scaled_minus.specialize(self.q).scale(inv))


def hvn_z2_idempotents(q) -> IdempotentPair:
    """Construct and exactly verify the rank-one projections over Z2."""
    q = positive_q(q)
    system = CoxeterSystem(["s"])
    s = system.element("s")
    u = LaurentPoly.u_power(1)
    c = LaurentPoly({2: 1, 0: 1})                     # q + 1
    e_plus = t_basis(s).scale(u) + unit(system)       # cleared by (q+1)
    e_minus = unit(system).scale(c) - e_plus

    # exact identities in the ring, cleared of the 1/(q+1) normalization
    if mul(e_plus, e_plus) != e_plus.scale(c):
        raise PreconditionError("idempotent identity failed for e+")
    if mul(e_minus, e_minus) != e_minus.scale(c):
        raise PreconditionError("idempotent identity failed for e-")
    if mul(e_plus, e_minus) != HeckeElement(system):
        raise PreconditionError("the two projections are not orthogonal")
    if e_plus.star() != e_plus or e_minus.star() != e_minus:
        raise PreconditionError("projections are not self-adjoint")
    phi_plus = state_phi(e_plus)
    phi_minus = state_phi(e_minus)
    if phi_plus != LaurentPoly.one() or phi_minus != LaurentPoly({2: 1}):
        raise PreconditionError("states of the projections are off")

    return IdempotentPair(
        system=system, scaled_plus=e_plus, scaled_minus=e_minus, scale=c,
        q=q, state_plus=1 / (q + 1), state_minus=q / (q + 1))


@dataclass(frozen=True)
class DecompositionReport:
    """Atomic part of the free product, plus a diffuse-presence flag.

    Atoms are labeled by tuples (one subset label per factor); the diffuse
    summand is reported only as present or absent, its free-dimension
    parameter is not computed.
    """
    spec: FreeFactorSpec
    q: Fraction
    atoms: AtomicMeasure
    diffuse_present: bool

    def summary(self) -> str:
        lines = [f"ranks {self.spec.ranks} at q = {self.q}:",
                 f"  diffuse summand present: {self.diffuse_present}",
                 f"  atoms: {len(self.atoms)}"]
        for label in self.atoms.points():
            parts = []
            for fi, subset in enumerate(label):
                if subset:
                    parts.append(".".join(f"g{fi+1}_{j+1}" for j in subset))
                else:
                    parts.append("e")
            lines.append(f"    ({', '.join(parts)})  weight "
                         f"{self.atoms.masses[label]}")
        return "\n".join(lines)


def dykema_decompose(spec: FreeFactorSpec, q) -> DecompositionReport:
    """Left-fold of the two-factor free product rule over the ranks.

    Ranks are sorted descending so the first factor has at least four
    atoms, keeping every pairwise step inside the hypotheses of the
    two-factor theorem (the free product itself is order-independent).
    Each step keeps exactly the pairs whose masses sum to more than one,
    with the excess as the new mass; after all factors the surviving atoms
    are the tuples with sum of masses above n - 1.  Exact rationals
    throughout.
    """
    q = positive_q(q)
    if max(spec.ranks) < 2:
        raise PreconditionError(
            "the iterated two-factor rule needs some rank at least 2; with "
            "all ranks 1 its first step has too few atoms (the closed-form "
            "condition still evaluates)")
    order = sorted(range(len(spec.ranks)), key=lambda i: -spec.ranks[i])
    ks = [spec.ranks[i] for i in order]
    # the first step's pair count is known before any mass is computed
    _check_atoms(2 ** (ks[0] + ks[1]))

    # a mass of mu_k depends only on the subset size r, q^r / (q+1)^k, so
    # fold in descending-rank order on tuples of sizes, with no measure
    # built; a tuple stands for prod C(k_i, r_i) atoms
    acc = {(r,): q ** r / (q + 1) ** ks[0] for r in range(ks[0] + 1)}
    for k in ks[1:]:
        _check_atoms(2 ** k * sum(math.prod(map(math.comb, ks, sizes))
                                  for sizes in acc))
        denom = (q + 1) ** k
        acc = {sizes + (r,): excess for sizes, m1 in acc.items()
               for r in range(k + 1)
               if (excess := m1 + q ** r / denom - 1) > 0}
    # expand the survivors in the order of a fold over atoms (per factor by
    # size, then subset) and restore input factor order in the labels
    atoms = {label: m for sizes, m in acc.items()
             for label in itertools.product(*(itertools.combinations(range(k), r)
                                              for k, r in zip(ks, sizes)))}
    restore = sorted(range(len(order)), key=lambda pos: order[pos])
    atoms = {tuple(label[pos] for pos in restore): atoms[label]
             for label in sorted(atoms, key=lambda a: [(len(x), x) for x in a])}
    return DecompositionReport(spec=spec, q=q, atoms=AtomicMeasure(atoms),
                               diffuse_present=True)


def closed_form_condition(spec: FreeFactorSpec, q) -> bool:
    """Whether the free product has a one-dimensional summand.

    Evaluates sum_i (q/(q+1))^{k_i} > n - 1 in exact rationals.  The
    inequality chain behind it assumes q >= 1; smaller parameters are
    routed through the duality q -> 1/q, under which the left side is
    unchanged term by term.
    """
    q = positive_q(q)
    if q < 1:
        q = 1 / q
    lhs = sum((q / (q + 1)) ** k for k in spec.ranks)
    return lhs > len(spec.ranks) - 1


@dataclass(frozen=True)
class CrossValidation:
    """Agreement between the free-product route and the radius route."""
    spec: FreeFactorSpec
    q: Fraction
    condition: bool
    atom_count: int
    classification: CenterReport
    rho: float
    agrees: bool
    decomposition: DecompositionReport | None   # None when all ranks are 1

    def summary(self) -> str:
        return (f"ranks {self.spec.ranks}, q = {self.q}: closed-form "
                f"{self.condition}, atoms {self.atom_count}, classify "
                f"{self.classification.classification}, rho {self.rho:.9f} "
                f"-> {'agree' if self.agrees else 'DISAGREE'}")


def cross_validate_with_rho(spec: FreeFactorSpec, q) -> CrossValidation:
    """Run the decomposition and the interval criterion side by side.

    The three answers must line up: the closed-form condition holds iff
    the atomic part is a single point iff the classification reports a
    factor plus a one-dimensional summand.
    """
    q = positive_q(q)
    system = spec.system()
    condition = closed_form_condition(spec, q)
    report = classify(system, q)
    decomposition = None
    atom_count = -1
    if max(spec.ranks) >= 2:
        decomposition = dykema_decompose(spec, q)
        atom_count = len(decomposition.atoms)
    expected = FACTOR_PLUS_C if condition else FACTOR
    agrees = report.classification == expected
    if decomposition is not None:
        agrees = agrees and (atom_count == (1 if condition else 0))
    return CrossValidation(spec=spec, q=q, condition=condition,
                           atom_count=atom_count, classification=report,
                           rho=report.rho, agrees=agrees,
                           decomposition=decomposition)


def freeness_test(system: CoxeterSystem, partition, max_len: int) -> list[tuple]:
    """Vanishing of the state on alternating centered words.

    ``partition`` lists blocks of generator indices; every cross-block
    pair must be non-commuting, so the blocks generate free factors.  For
    every alternating sequence of nontrivial block elements with total
    length at most max_len, the product of centered terms
    (T_w - phi(T_w)) must have vanishing state, exactly.  Returns the
    violating sequences (empty = pass).
    """
    if max_len < 0:
        raise InputError("max_len must be nonnegative")
    blocks = [tuple(system.generator_index(g) for g in b) for b in partition]
    gens = [g for b in blocks for g in b]
    if len(set(gens)) < len(gens):
        raise InputError("partition blocks overlap")
    if set(gens) != set(range(system.n)):
        raise InputError("partition must cover every generator")
    for b1, b2 in itertools.combinations(blocks, 2):
        for g1, g2 in itertools.product(b1, b2):
            if system.commutes(g1, g2):
                raise InputError(
                    f"generators {system.names[g1]} and {system.names[g2]} "
                    "commute across blocks; the blocks are not free factors")

    # nontrivial elements of each block subgroup, by total length
    block_elements: list[list[Element]] = []
    for b in blocks:
        sub, emb = system.subsystem(sorted(b))
        elems = [system.embed_word(w.word, emb)
                 for w in sub.ball(max_len) if not w.is_identity]
        block_elements.append(elems)

    one = unit(system)
    witnesses = []

    def centered(w: Element) -> HeckeElement:
        term = t_basis(w)
        return term - one.scale(state_phi(term))

    def extend(seq: list, product: HeckeElement, used_len: int, last_block: int):
        if seq:
            if state_phi(product) != LaurentPoly.zero():
                witnesses.append(tuple(seq))
        for bi, elems in enumerate(block_elements):
            if bi == last_block:
                continue
            for w in elems:
                if used_len + len(w) > max_len:
                    continue
                extend(seq + [w], mul(product, centered(w)),
                       used_len + len(w), bi)

    extend([], one, 0, -1)
    return witnesses
