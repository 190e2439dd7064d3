"""Property suites runnable from the command line.

Each suite exercises one slice of the library on the built-in test
systems with a seeded generator and reports pass or fail with a short
detail line.  The suites are deterministic for a fixed seed.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction

from .coxeter import RIGHT, CoxeterSystem
from .cosets import InfinitePair, brute_force_min_rep, coset_nondegenerate, \
    shortest_rep, verify_component_structure
from .freeprod import (FreeFactorSpec, cross_validate_with_rho, freeness_test,
                       hvn_z2_idempotents, mu_k)
from .growth import (VALIDATION_DEPTH, check_symbol_commutation,
                     component_rhos, growth_series, rho_info,
                     verify_central_projection, zeta_symbol)
from .hecke import j_iso, mul, t_basis, unit
from .laurent import P_SYMBOL, _poly_eval


@dataclass(frozen=True)
class SuiteResult:
    name: str
    passed: bool
    detail: str


def named_systems() -> dict[str, CoxeterSystem]:
    """The paper's three named systems, built fresh on every call so that
    no cached series or table is shared between callers: the free product
    of three involutions, Z2^2 * Z2 (s is the free factor, t and u
    commute), and the five generators whose commutation graph is a
    5-cycle.  ``groups/*.json`` describe the same systems."""
    return {
        "free3": CoxeterSystem("stu"),
        "z2sq-z2": CoxeterSystem(["s", "t", "u"], [("t", "u")]),
        "pentagon": CoxeterSystem("pqrst", [("p", "q"), ("q", "r"),
                                            ("r", "s"), ("s", "t"),
                                            ("t", "p")]),
    }


def three_generator_patterns() -> list[CoxeterSystem]:
    """The four commutation graphs on three generators, up to relabelling:
    no edge, one edge, a path and a triangle (built fresh on every call)."""
    gens = "abc"
    patterns = [[], [("a", "b")], [("a", "b"), ("b", "c")],
                [("a", "b"), ("b", "c"), ("a", "c")]]
    return [CoxeterSystem(gens, p) for p in patterns]


def random_system(rng: random.Random, max_n: int = 8) -> CoxeterSystem:
    """A seeded random commutation graph on 1..max_n generators: one edge
    density is drawn, then each pair commutes with that probability."""
    n = rng.randint(1, max_n)
    density = rng.random()
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)
             if rng.random() < density]
    return CoxeterSystem([f"g{i}" for i in range(n)], pairs)


def _random_word(rng: random.Random, n_gens: int, length: int) -> list[int]:
    return [rng.randrange(n_gens) for _ in range(length)]


def suite_word_conditions(seed: int) -> SuiteResult:
    """Deletion, exchange and folding on exhaustive short words plus
    seeded random longer ones."""
    rng = random.Random(seed)
    checked = 0
    for sys in three_generator_patterns():
        for n in range(5):
            for word in itertools.product(range(3), repeat=n):
                for s in range(3):
                    for t in range(3):
                        rep = sys.check_conditions(word, s, t)
                        if not rep.all_hold:
                            return SuiteResult("word-conditions", False,
                                               f"failed on {word}")
                        checked += 1
        for _ in range(120):
            word = _random_word(rng, 3, rng.randint(6, 12))
            rep = sys.check_conditions(word, rng.randrange(3), rng.randrange(3))
            if not rep.all_hold:
                return SuiteResult("word-conditions", False, f"failed on {word}")
            checked += 1
    return SuiteResult("word-conditions", True, f"{checked} checks")


def _rewriting_classes(sys: CoxeterSystem, word: tuple[int, ...]) -> frozenset:
    """Closure of a word under commuting swaps and adjacent-equal deletion,
    keeping only minimal-length words (the commutation class)."""
    seen = {word}
    stack = [word]
    min_len = len(word)
    while stack:
        w = stack.pop()
        for i in range(len(w) - 1):
            if w[i] == w[i + 1]:
                nxt = w[:i] + w[i + 2:]
            elif sys.commutes(w[i], w[i + 1]):
                nxt = w[:i] + (w[i + 1], w[i]) + w[i + 2:]
            else:
                continue
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
                min_len = min(min_len, len(nxt))
    return frozenset(w for w in seen if len(w) == min_len)


def suite_normal_forms(seed: int) -> SuiteResult:
    """Canonical forms against the rewriting-closure oracle, plus parity."""
    checked = 0
    for sys in three_generator_patterns():
        for n in range(6):
            for word in itertools.product(range(3), repeat=n):
                cls = _rewriting_classes(sys, word)
                e = sys.normalize(word)
                if e.word not in cls or e.word != min(cls):
                    return SuiteResult("normal-forms", False,
                                       f"bad canonical form for {word}")
                if (len(e) - len(word)) % 2:
                    return SuiteResult("normal-forms", False,
                                       f"parity broken for {word}")
                checked += 1
    return SuiteResult("normal-forms", True, f"{checked} words")


def suite_length_additivity(seed: int) -> SuiteResult:
    """|vw| = |v| + |w| iff the right and left descent sets are disjoint,
    and the descent recursion for lengthening products."""
    checked = 0
    for name, sys in named_systems().items():
        ball = sys.ball(4)
        for v in ball:
            for w in ball:
                add = len(sys.multiply(v, w)) == len(v) + len(w)
                disjoint = not (sys.right_descents(v) & sys.left_descents(w))
                if add != disjoint:
                    return SuiteResult("length-additivity", False,
                                       f"{name}: {v}, {w}")
                checked += 1
        for w in sys.ball(5):
            for s in range(sys.n):
                ws, delta = sys.mult_gen(w, s, RIGHT)
                if delta > 0:
                    expect = (sys.right_descents(w)
                              & sys.commuting_set(s)) | {s}
                    if sys.right_descents(ws) != expect:
                        return SuiteResult("length-additivity", False,
                                           f"{name}: descent recursion at {w}")
                checked += 1
    return SuiteResult("length-additivity", True, f"{checked} checks")


def _hecke_failure(rng: random.Random, sys: CoxeterSystem,
                   triples: int) -> str | None:
    """The first failed Hecke identity on seeded random triples supported
    on ball(3), or None."""
    ball = sys.ball(3)

    def rand_elem():
        k = rng.randint(1, 3)
        acc = unit(sys).scale(0)
        for _ in range(k):
            acc = acc + t_basis(rng.choice(ball)).scale(
                Fraction(rng.randint(-3, 3), rng.randint(1, 3)))
        return acc

    for _ in range(triples):
        a, b, c = rand_elem(), rand_elem(), rand_elem()
        if mul(mul(a, b), c) != mul(a, mul(b, c)):
            return "associativity failed"
        if mul(a, b).star() != mul(b.star(), a.star()):
            return "involution failed"
        if j_iso(mul(a, b)) != mul(j_iso(a), j_iso(b), p_override=-P_SYMBOL):
            return "duality homomorphism failed"
        q = 0.25 + rng.random()
        lhs = mul(a, b).specialize(q)
        rhs = mul(a.specialize(q), b.specialize(q))
        support = set(lhs.terms) | set(rhs.terms)
        if any(abs(lhs.coefficient(w) - rhs.coefficient(w)) > 1e-10
               for w in support):
            return "specialization mismatch"
    return None


def suite_hecke(seed: int) -> SuiteResult:
    """Product associativity, the duality homomorphism, the involution,
    and exact-versus-numeric agreement on seeded random elements, over
    z2sq-z2 and seeded random graphs."""
    rng = random.Random(seed)
    cases = [(named_systems()["z2sq-z2"], 60)]
    cases += [(random_system(rng), 12) for _ in range(5)]
    for sys, triples in cases:
        failure = _hecke_failure(rng, sys, triples)
        if failure:
            return SuiteResult("hecke", False, f"{sys}: {failure}")
    return SuiteResult("hecke", True,
                       "60 random triples on z2sq-z2, 12 on each of 5 "
                       "random graphs")


def suite_growth(seed: int) -> SuiteResult:
    """Closed-form growth coefficients against the automaton's sphere
    counts on the named systems and seeded random graphs, and the
    convergence radius: its value on the named systems, and a sign change
    across its bracket on each infinite component of the random graphs."""
    expected_rho = {"free3": 0.5, "z2sq-z2": (5 ** 0.5 - 1) / 2,
                    "pentagon": (3 - 5 ** 0.5) / 2}
    for name, sys in named_systems().items():
        info = rho_info(sys)      # its series aborts on coefficient mismatch
        if abs(info.value - expected_rho[name]) > 1e-9:
            return SuiteResult("growth-rho", False, f"{name}: rho off")
    rng = random.Random(seed)
    brackets = 0
    for _ in range(20):
        sys = random_system(rng)
        growth_series(sys)
        # one bracket per component: repeated ones give a double root
        for info in component_rhos(sys).values():
            if info is None:
                continue
            den, brackets = info.denominator, brackets + 1
            if not (_poly_eval(den, info.bracket_low) > 0
                    >= _poly_eval(den, info.bracket_high)):
                return SuiteResult("growth-rho", False, f"{sys}: rho bracket")
    return SuiteResult("growth-rho", True, "3 systems and 20 random graphs, "
                       f"coefficients to {VALIDATION_DEPTH}, sign change "
                       f"across {brackets} rho brackets")


def suite_cosets(seed: int) -> SuiteResult:
    """Shortest double-coset representatives against brute force, the
    support rule for degeneracy against them on seeded random graphs, and
    the one-big-component structure of the interaction graph."""
    systems = named_systems()
    rng = random.Random(seed)
    for _ in range(20):
        sys = random_system(rng)
        pairs = [InfinitePair(sys, s, t) for s in range(sys.n)
                 for t in range(sys.n) if s != t and not sys.commutes(s, t)]
        for w in sys.ball(3):
            for pair in pairs:
                if coset_nondegenerate(pair, w) != \
                        shortest_rep(sys, pair, w).nondegenerate:
                    return SuiteResult("cosets-graph", False,
                                       f"{sys}: support rule at {w}")
    for name in ("free3", "z2sq-z2"):
        sys = systems[name]
        pair = InfinitePair.of(sys, 0, 1)
        for w in sys.ball(3):
            got = shortest_rep(sys, pair, w).w0
            want = brute_force_min_rep(sys, pair, w, bound=len(w) + 2)
            if got != want:
                return SuiteResult("cosets-graph", False,
                                   f"{name}: minimal rep of {w}")
    expected_exceptional = {"free3": 1, "z2sq-z2": 2, "pentagon": 1}
    for name, sys in systems.items():
        rep = verify_component_structure(sys, 5, 2)
        if not rep.passed or len(rep.exceptional) != expected_exceptional[name]:
            return SuiteResult("cosets-graph", False, f"{name}: {rep.summary()}")
    return SuiteResult("cosets-graph", True, "3 systems at radius 5, "
                       "support rule on 20 random graphs at radius 3")


def suite_radial_symbol(seed: int) -> SuiteResult:
    """Exact radial-symbol constraints and the projection residual bound."""
    for name, sys in named_systems().items():
        info = rho_info(sys)
        q = Fraction(info.value).limit_denominator(10**6) / 2
        zv = zeta_symbol(sys, q, 6)
        xi = zv.exact_symbol()
        for s in range(sys.n):
            if check_symbol_commutation(sys, s, xi, P_SYMBOL):
                return SuiteResult("radial-symbol", False,
                                   f"{name}: constraint violated")
        rep = verify_central_projection(sys, q, 6)
        if not rep.scaling_identity_exact:
            return SuiteResult("radial-symbol", False,
                               f"{name}: scaling identity broken")
        if rep.projection_residual >= rep.projection_bound:
            return SuiteResult("radial-symbol", False,
                               f"{name}: residual above bound")
        if rep.commutator_max > 1e-10:
            return SuiteResult("radial-symbol", False,
                               f"{name}: generator commutator too large")
    return SuiteResult("radial-symbol", True, "3 systems at radius 6")


def suite_free_products(seed: int) -> SuiteResult:
    """Measures, idempotents, the decomposition agreement triangle, and
    freeness of alternating centered words."""
    for k in range(1, 5):
        for q in (Fraction(1, 3), Fraction(1), Fraction(2)):
            if mu_k(k, q).total() != 1:
                return SuiteResult("free-products", False, "measure mass off")
    hvn_z2_idempotents(Fraction(2))          # raises on any failed identity
    qs = [Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(2), Fraction(3)]
    for ranks in ((2, 1), (2, 2), (3, 1)):
        spec = FreeFactorSpec(ranks)
        for q in qs:
            cv = cross_validate_with_rho(spec, q)
            if not cv.agrees:
                return SuiteResult("free-products", False, cv.summary())
            if cv.atom_count > 1:
                return SuiteResult("free-products", False,
                                   f"{ranks} at {q}: several atoms")
    sys = named_systems()["z2sq-z2"]
    if freeness_test(sys, [("s",), ("t", "u")], 5):
        return SuiteResult("free-products", False, "freeness witnesses found")
    return SuiteResult("free-products", True,
                       "3 specs x 5 parameters, freeness to length 5")


ALL_SUITES = (
    suite_word_conditions,
    suite_normal_forms,
    suite_length_additivity,
    suite_hecke,
    suite_growth,
    suite_cosets,
    suite_radial_symbol,
    suite_free_products,
)


def run_suites(seed: int = 0) -> list[SuiteResult]:
    return [suite(seed) for suite in ALL_SUITES]
