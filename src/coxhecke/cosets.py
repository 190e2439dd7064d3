"""Double cosets for infinite dihedral special subgroups, and the
interaction graph whose connectivity pins down central symbols.

For a pair s, t with m(s,t) = infinity, D = <s, t> is infinite dihedral
and every double coset DwD has a unique shortest representative w0.  The
coset is non-degenerate when w0 fails to commute with s or with t.  The
graph on the group joins w to ws and sw whenever some t makes the coset
of w non-degenerate; restricted to a metric ball it decomposes into one
large component plus isolated vertices, which this module verifies
empirically.
"""

from __future__ import annotations

import bisect
import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from .coxeter import LEFT, RIGHT, CoxeterSystem, Element, DEFAULT_MAX_BALL
from .errors import CapacityError, DomainError, InputError


@dataclass(frozen=True)
class InfinitePair:
    """An ordered pair of generators with m(s,t) = infinity."""
    system: CoxeterSystem
    s: int
    t: int

    @staticmethod
    def of(system: CoxeterSystem, s, t) -> "InfinitePair":
        s = system.generator_index(s)
        t = system.generator_index(t)
        if s == t:
            raise InputError("the two generators must be distinct")
        if system.commutes(s, t):
            raise InputError(
                f"generators {system.names[s]}, {system.names[t]} commute; "
                "an infinite dihedral pair is required")
        return InfinitePair(system, s, t)


@dataclass(frozen=True)
class DoubleCosetInfo:
    """Shortest representative of DwD and its degeneracy data."""
    pair: InfinitePair
    w0: Element
    commutes_s: bool
    commutes_t: bool

    @property
    def nondegenerate(self) -> bool:
        return not (self.commutes_s and self.commutes_t)


def shortest_rep(system: CoxeterSystem, pair: InfinitePair, w: Element,
                 strip_order: str = "left-first") -> DoubleCosetInfo:
    """Greedy descent stripping to the minimal element of DwD.

    Left descents in {s, t} are removed before right ones, smaller index
    first; uniqueness of the minimal representative makes the outcome
    independent of this order (tested with the reversed order).
    """
    system._check_own(w)
    gens = sorted((pair.s, pair.t))
    sides = (LEFT, RIGHT) if strip_order == "left-first" else (RIGHT, LEFT)
    cur = w
    while True:
        for side in sides:
            descents = (system.left_descents(cur) if side == LEFT
                        else system.right_descents(cur))
            hit = next((g for g in gens if g in descents), None)
            if hit is not None:
                cur, _ = system.mult_gen(cur, hit, side)
                break
        else:
            break
    return DoubleCosetInfo(
        pair=pair, w0=cur,
        commutes_s=system.commutes_with_gen(cur, pair.s),
        commutes_t=system.commutes_with_gen(cur, pair.t),
    )


def dihedral_words(pair: InfinitePair, max_len: int) -> Iterator[tuple[int, ...]]:
    """All alternating words in {s, t} of length at most max_len.

    These are exactly the reduced words of the infinite dihedral subgroup,
    one per element.
    """
    yield ()
    for first in (pair.s, pair.t):
        second = pair.t if first == pair.s else pair.s
        word: tuple[int, ...] = ()
        for k in range(max_len):
            word = word + (first if k % 2 == 0 else second,)
            yield word


def brute_force_min_rep(system: CoxeterSystem, pair: InfinitePair, w: Element,
                        bound: int, max_products: int = 2 * 10**6) -> Element:
    """Oracle for shortest_rep: minimize |d w d'| over dihedral d, d'.

    Enumerates all products with |d|, |d'| <= bound; the bound must leave
    room to strip w from both sides.
    """
    system._check_own(w)
    if bound < len(w) + 2:
        raise InputError("bound must be at least |w| + 2")
    count = (2 * bound + 1) ** 2
    if count > max_products:
        raise CapacityError(f"would enumerate {count} products")
    best = w
    for d in dihedral_words(pair, bound):
        dw = system.multiply(system.normalize(d), w)
        for d2 in dihedral_words(pair, bound):
            cand = system.multiply(dw, system.normalize(d2))
            if cand.sort_key() < best.sort_key():
                best = cand
    return best


def coset_elements(system: CoxeterSystem, info: DoubleCosetInfo,
                   radius: int) -> set[Element]:
    """All elements of the double coset with length at most radius.

    Every element factors as d w0 d' with d, d' in D and the lengths
    adding (Bjorner-Brenti), so it is reached from w0 by lengthening steps
    with s or t on either side; the walk takes them one level at a time.
    """
    if radius < len(info.w0):
        return set()
    level = {info.w0}
    out = set(level)
    gens = (info.pair.s, info.pair.t)
    for _ in range(radius - len(info.w0)):
        steps = (system.mult_gen(v, g, side) for v in level for g in gens
                 for side in (LEFT, RIGHT))
        level = {x for x, delta in steps if delta > 0}
        out |= level
    return out


def _noncommuting_partners(system: CoxeterSystem, s: int) -> Iterable[int]:
    return (t for t in range(system.n) if t != s and not system.commutes(s, t))


def _degenerate_cover(system: CoxeterSystem, s: int, t: int) -> int:
    """{s, t} plus the generators commuting with both, as a bitmask: for
    m(s,t) = infinity, DwD is degenerate iff supp(w) lies inside it."""
    return (1 << s) | (1 << t) | (system._cmask[s] & system._cmask[t])


def _edge_flags(system: CoxeterSystem, supports: np.ndarray) -> np.ndarray:
    """``flags[s, i]``: s is an edge generator of the element whose support
    bitmask is ``supports[i]``."""
    flags = np.zeros((system.n, len(supports)), dtype=bool)
    for s in range(system.n):
        for t in _noncommuting_partners(system, s):
            flags[s] |= (supports & ~_degenerate_cover(system, s, t)) != 0
    return flags


def coset_nondegenerate(pair: InfinitePair, w: Element) -> bool:
    """Whether DwD is non-degenerate, decided by the support rule of the
    module docstring; :func:`shortest_rep` decides the same by stripping."""
    system = pair.system
    system._check_own(w)
    cover = _degenerate_cover(system, pair.s, pair.t)
    return any(not (cover >> x) & 1 for x in w.word)


def edge_generators(system: CoxeterSystem, w: Element) -> list[int]:
    """Generators s for which w gains edges to ws and sw: some t with
    m(s,t) = infinity makes the coset of w non-degenerate."""
    return [s for s in range(system.n)
            if any(coset_nondegenerate(InfinitePair(system, s, t), w)
                   for t in _noncommuting_partners(system, s))]


def gamma_neighbors(system: CoxeterSystem, w: Element) -> set[Element]:
    """Neighbors of w in the interaction graph: ws and sw over the edge
    generators of w."""
    out: set[Element] = set()
    for s in edge_generators(system, w):
        out.add(system.mult_gen(w, s, RIGHT)[0])
        out.add(system.mult_gen(w, s, LEFT)[0])
    return out


def _component_labels(n: int, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Connected components of the graph on range(n) with edges (lo, hi),
    labelled 0, 1, ... in order of first appearance.

    Each root is hooked onto the least root across an edge, then paths are
    compressed, until every edge joins one root; that root is the least
    vertex of its component, so ranking the roots gives first appearance.
    """
    root = np.arange(n)
    while True:
        a, b = root[lo], root[hi]
        if np.array_equal(a, b):
            break
        least = np.minimum(a, b)
        np.minimum.at(root, a, least)
        np.minimum.at(root, b, least)
        while True:
            up = root[root]
            if np.array_equal(up, root):
                break
            root = up
    return np.unique(root, return_inverse=True)[1]


@dataclass(frozen=True)
class GammaBallGraph:
    """The interaction graph restricted to a metric ball.

    Vertices are the ball elements in canonical order; edges are unordered
    index pairs, kept only when both endpoints lie in the ball.  Component
    labels are contiguous integers in order of first appearance.
    """
    system: CoxeterSystem
    radius: int
    vertices: tuple[Element, ...]
    edges: frozenset[tuple[int, int]]
    component_label: tuple[int, ...]

    @property
    def n_components(self) -> int:
        return max(self.component_label) + 1 if self.component_label else 0

    def index(self, w: Element) -> int:
        """Position of w among the vertices, by bisection on their
        (length, ShortLex) order; ValueError if w is not a vertex."""
        i = bisect.bisect_left(self.vertices, w.sort_key(),
                               key=Element.sort_key)
        if i == len(self.vertices) or self.vertices[i] != w:
            raise ValueError(f"{w} is not a vertex of the ball")
        return i

    def component_of(self, w: Element) -> int:
        return self.component_label[self.index(w)]

    def components(self) -> list[list[Element]]:
        out: list[list[Element]] = [[] for _ in range(self.n_components)]
        for v, lab in zip(self.vertices, self.component_label):
            out[lab].append(v)
        return out

    def isolated_vertices(self) -> list[Element]:
        touched = set()
        for i, j in self.edges:
            touched.add(i)
            touched.add(j)
        return [v for k, v in enumerate(self.vertices) if k not in touched]

    def write_edge_list(self, stream):
        """One 'u v' pair per line using canonical word strings."""
        for i, j in sorted(self.edges):
            stream.write(f"{self.vertices[i]} {self.vertices[j]}\n")


def build_gamma_ball(system: CoxeterSystem, radius: int,
                     max_elements: int = DEFAULT_MAX_BALL) -> GammaBallGraph:
    """Construct the ball-restricted interaction graph.

    Edge generators come from the support rule on the ball's support
    bitmasks, and the edges to ws and sw from its right and left
    multiplication tables; edges leaving the ball are dropped.  Edges are
    stored as sorted index pairs, so the set is symmetric by construction.
    """
    words, lengths, right, _ = system.ball_table(radius, max_elements)
    left, _ = system.ball_left_table(words, lengths, right)
    flags = _edge_flags(system, system.ball_supports(words, lengths, right))
    size = len(words)
    keys = []
    for s in range(system.n):
        i = np.flatnonzero(flags[s])
        for table in (left, right):
            j = table[s, i]
            inside = j >= 0
            keys.append(np.minimum(i, j)[inside] * size
                        + np.maximum(i, j)[inside])
    keys = np.unique(np.concatenate(keys))
    lo, hi = keys // size, keys % size
    labels = _component_labels(size, lo, hi)
    return GammaBallGraph(system, radius,
                          tuple(Element(system, w) for w in words),
                          frozenset(zip(lo.tolist(), hi.tolist())),
                          tuple(labels.tolist()))


@dataclass(frozen=True)
class ComponentReport:
    """Outcome of the ball-level connectivity verification."""
    radius: int
    slack: int
    passed: bool
    exceptional: tuple[Element, ...]
    n_components: int
    big_component_size: int
    core_size: int
    failures: tuple[Element, ...]

    def summary(self) -> str:
        exc = ", ".join(str(w) for w in self.exceptional) or "none"
        status = "pass" if self.passed else "FAIL"
        return (f"{status}: radius {self.radius} slack {self.slack}; "
                f"{self.n_components} components on the ball; expected "
                f"isolated vertices [{exc}]; core of {self.core_size} "
                f"vertices in one component of size {self.big_component_size}")


def _check_component_domain(system: CoxeterSystem):
    if not system.irreducible or system.is_finite():
        raise DomainError("component verification needs an irreducible "
                          "infinite system")
    if system.n < 3:
        raise DomainError("component verification needs at least 3 "
                          "generators; with 2 the graph has no edges")


def verify_component_structure(system: CoxeterSystem, radius: int,
                               slack: int = 2,
                               max_elements: int = DEFAULT_MAX_BALL) -> ComponentReport:
    """Check that all short-enough vertices share one component.

    Every vertex of length <= radius - slack must lie in a single
    component, except the identity and, when the group is Z2 * Z2^k, the
    generator of the Z2 free factor.  Connectivity paths may leave small
    balls, hence the slack.  This is an empirical check on a finite ball,
    not a proof.
    """
    _check_component_domain(system)
    return _component_report(build_gamma_ball(system, radius, max_elements),
                             slack)


def _component_report(graph: GammaBallGraph, slack: int) -> ComponentReport:
    """The checks of :func:`verify_component_structure` on a built graph."""
    system, radius = graph.system, graph.radius
    _check_component_domain(system)
    exceptional = [system.identity]
    z2gen = system.free_z2_factor_generator()
    if z2gen is not None:
        exceptional.append(system.element([z2gen]))

    # an exceptional element outside the ball has no edges inside it
    inside = [w for w in exceptional if len(w) <= radius]
    special = [graph.index(w) for w in inside]
    labels = graph.component_label
    core = [i for i, w in enumerate(graph.vertices)
            if len(w) <= radius - slack and i not in special]
    big_label = labels[core[0]] if core else None
    failures = [graph.vertices[i] for i in core if labels[i] != big_label]
    # expected isolated: no edges at all inside the ball
    ends = np.fromiter(itertools.chain.from_iterable(graph.edges),
                       dtype=np.int64, count=2 * len(graph.edges))
    degree = np.bincount(ends, minlength=len(graph.vertices))
    failures += [w for w, i in zip(inside, special) if degree[i]]
    return ComponentReport(
        radius=radius, slack=slack, passed=not failures,
        exceptional=tuple(exceptional), n_components=graph.n_components,
        big_component_size=labels.count(big_label) if core else 0,
        core_size=len(core), failures=tuple(failures),
    )
