"""Answer checks that share no code with the package under test.

Everything here is rebuilt from the definitions, so a defect in
``coxhecke`` cannot hide by also being in the check:

* group elements are compared by their projections onto every pair of
  non-commuting generators (and onto each single generator).  Two words
  spell the same element of a right-angled Coxeter group iff their reduced
  traces agree, and traces agree iff all these projections agree;
* the Hecke oracle multiplies in the unnormalized basis, where the
  shortening rule is T~_s T~_x = q T~_sx + (q - 1) T~_x;
* counts and the convergence radius come from the automaton of canonical
  (ShortLex-least reduced) words, built here from its definition, and the
  spectral radius of its transfer matrix, computed with numpy.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

#: Convergence radii of the three named systems, in closed form.
CLOSED_FORM_RHO = {
    "free3": 0.5,
    "z2sq-z2": (math.sqrt(5) - 1) / 2,
    "pentagon": (3 - math.sqrt(5)) / 2,
}


class Graph:
    """A commutation graph: ``comm[i]`` is the bit mask of generators that
    commute with generator i (i itself excluded)."""

    def __init__(self, n: int, pairs):
        self.n = n
        comm = [0] * n
        for i, j in pairs:
            comm[i] |= 1 << j
            comm[j] |= 1 << i
        self.comm = comm
        self.dependent = [(i, j) for i in range(n) for j in range(i, n)
                          if i == j or not (comm[i] >> j) & 1]
        self.pairs_of = [[k for k, (a, b) in enumerate(self.dependent)
                          if s in (a, b)] for s in range(n)]

    # -- elements as projection vectors -------------------------------------

    def key(self, word) -> tuple:
        """Projections of a word onto each dependent pair of generators."""
        return tuple(tuple(x for x in word if x == a or x == b)
                     for a, b in self.dependent)

    def left_mul(self, key: tuple, s: int) -> tuple[tuple, bool]:
        """(key of s*w, whether s shortened w), for w reduced.

        s shortens w iff w has an occurrence of s that no generator failing
        to commute with s precedes, i.e. every projection through s starts
        with s."""
        parts = list(key)
        idx = self.pairs_of[s]
        shorter = all(parts[k] and parts[k][0] == s for k in idx)
        for k in idx:
            parts[k] = parts[k][1:] if shorter else (s,) + parts[k]
        return tuple(parts), shorter

    def right_mul(self, key: tuple, s: int) -> tuple[tuple, bool]:
        """(key of w*s, whether s shortened w): the mirror of left_mul."""
        parts = list(key)
        idx = self.pairs_of[s]
        shorter = all(parts[k] and parts[k][-1] == s for k in idx)
        for k in idx:
            parts[k] = parts[k][:-1] if shorter else parts[k] + (s,)
        return tuple(parts), shorter

    # -- components and the canonical-word automaton -------------------------

    def components(self) -> list[list[int]]:
        """Connected components of the non-commutation graph."""
        seen, out = set(), []
        for start in range(self.n):
            if start in seen:
                continue
            comp, stack = [], [start]
            seen.add(start)
            while stack:
                v = stack.pop()
                comp.append(v)
                for u in range(self.n):
                    if u != v and u not in seen and not (self.comm[v] >> u) & 1:
                        seen.add(u)
                        stack.append(u)
            out.append(sorted(comp))
        return out

    def automaton(self, gens: list[int]):
        """Canonical-word automaton of the subsystem on ``gens``.

        A state is the set of letters that may be appended.  Letter a may
        follow a word iff the longest suffix made of letters commuting with
        a (or equal to a) holds neither a itself (the word would not be
        reduced) nor a letter greater than a (it would not be ShortLex
        least).  Appending t therefore re-allows every a not commuting
        with t, and keeps a allowed only when t commutes with a and t < a.
        Returns (states, transitions) with transitions[i] a list of target
        state indices, one per allowed letter.
        """
        local = {g: k for k, g in enumerate(gens)}
        m = len(gens)
        noncomm, keep = [], []
        for t in gens:
            nc = ka = 0
            for a in gens:
                if a == t:
                    continue
                if (self.comm[t] >> a) & 1:
                    if t < a:
                        ka |= 1 << local[a]
                else:
                    nc |= 1 << local[a]
            noncomm.append(nc)
            keep.append(ka)
        start = (1 << m) - 1
        index = {start: 0}
        states, trans = [start], []
        i = 0
        while i < len(states):
            mask = states[i]
            row = []
            for k in range(m):
                if (mask >> k) & 1:
                    nxt = noncomm[k] | (keep[k] & mask)
                    if nxt not in index:
                        index[nxt] = len(states)
                        states.append(nxt)
                    row.append(index[nxt])
            trans.append(row)
            i += 1
        return states, trans

    def component_counts(self, gens: list[int], depth: int) -> list[int]:
        _, trans = self.automaton(gens)
        vec = [0] * len(trans)
        vec[0] = 1
        out = [1]
        for _ in range(depth):
            nxt = [0] * len(trans)
            for i, c in enumerate(vec):
                if c:
                    for j in trans[i]:
                        nxt[j] += c
            vec = nxt
            out.append(sum(vec))
        return out

    def sphere_counts(self, depth: int) -> list[int]:
        """Elements of each length 0..depth: a direct product over the
        components, so their counts convolve."""
        total = [1] + [0] * depth
        for comp in self.components():
            part = self.component_counts(comp, depth)
            total = [sum(total[i] * part[k - i] for i in range(k + 1))
                     for k in range(depth + 1)]
        return total

    def component_rho(self, gens: list[int]) -> float:
        """1 / spectral radius of the transfer matrix (inf if nilpotent)."""
        _, trans = self.automaton(gens)
        mat = np.zeros((len(trans), len(trans)))
        for i, row in enumerate(trans):
            for j in row:
                mat[i, j] += 1.0
        lam = float(np.max(np.abs(np.linalg.eigvals(mat))))
        return math.inf if lam < 1e-9 else 1.0 / lam


def taylor(numerator, denominator, depth: int) -> list[Fraction]:
    """Power series of numerator / denominator to the given depth."""
    out: list[Fraction] = []
    for k in range(depth + 1):
        acc = Fraction(numerator[k] if k < len(numerator) else 0)
        for j in range(1, min(k, len(denominator) - 1) + 1):
            acc -= denominator[j] * out[k - j]
        out.append(acc / denominator[0])
    return out


def expected_classification(graph: Graph, q: Fraction, rhos: dict):
    """(overall classification, center dimension, per-component
    classifications) from the interval criterion, or None when min(q, 1/q)
    lies within 1e-9 of some component radius (floats cannot decide it)."""
    r = float(min(q, 1 / q))
    comps, dim = [], 1
    for comp in graph.components():
        if len(comp) == 1:
            comps.append(("not_applicable", 2))
            dim = None if dim is None else dim * 2
        elif len(comp) == 2:
            comps.append(("not_applicable", None))
            dim = None
        else:
            rho = rhos[tuple(comp)]
            if abs(r - rho) <= 1e-9:
                return None
            cdim = 1 if r >= rho else 2
            comps.append(("factor" if cdim == 1 else "factor_plus_C", cdim))
            dim = None if dim is None else dim * cdim
    if len(comps) == 1:
        overall = comps[0][0]
    elif dim == 1:
        overall = "factor"
    else:
        overall = "not_applicable"
    return overall, dim, comps


# -- Hecke products in the unnormalized basis ----------------------------------


def _qpoly_add(acc: dict, poly: dict, shift: int = 0, scale: int = 1):
    for k, c in poly.items():
        v = acc.get(k + shift, 0) + scale * c
        if v:
            acc[k + shift] = v
        else:
            acc.pop(k + shift, None)


def _apply_gen(graph: Graph, s: int, terms: dict) -> dict:
    """T~_s times a combination of T~_x with coefficients polynomial in q."""
    out: dict = {}
    for x, poly in terms.items():
        sx, shorter = graph.left_mul(x, s)
        if shorter:
            _qpoly_add(out.setdefault(sx, {}), poly, shift=1)
            c = out.setdefault(x, {})
            _qpoly_add(c, poly, shift=1)
            _qpoly_add(c, poly, scale=-1)
        else:
            _qpoly_add(out.setdefault(sx, {}), poly)
    return {x: p for x, p in out.items() if p}


def unnormalized_product(graph: Graph, v_word, w_word) -> dict:
    """T~_v T~_w for reduced words v and w, as {key x: {power of q: int}}:
    the letters of v act on T~_w one at a time, last letter first."""
    terms = {graph.key(w_word): {0: 1}}
    for s in reversed(v_word):
        terms = _apply_gen(graph, s, terms)
    return terms


def normalized_matches(graph: Graph, v_word, w_word, got_terms: dict,
                       expected: dict) -> bool:
    """Whether a normalized product sum c_x(u) T_x equals the oracle's
    T~_v T~_w = sum e_x(q) T~_x, using T~_x = u^{|x|} T_x and q = u^2:
    c_x(u) u^{|v| + |w| - |x|} must equal e_x(u^2) for every x.

    ``got_terms`` maps canonical words to {exponent of u: rational}."""
    scale = len(v_word) + len(w_word)
    seen = set()
    for word, coeff in got_terms.items():
        x = graph.key(word)
        if x in seen:
            return False            # two words spell one element
        seen.add(x)
        want = {2 * k: Fraction(c) for k, c in expected.get(x, {}).items()}
        shift = scale - len(word)
        if {k + shift: Fraction(c) for k, c in coeff.items() if c} != want:
            return False
    return seen >= set(expected)
