"""Seeded workloads: the inputs, the operations and their answer checks.

Every builder draws its inputs from the seeded generator it is given,
writes the group files the program reads, and returns the operations of
one round as ``Op`` records.  An operation calls the package the way a
user would: the CLI entry point in-process with stdout captured, or a
public function.  Names are looked up on the package modules at call
time, so wrappers that the traced run installs there are seen.

Each check runs as soon as its operation returns, outside the timed
region, and uses only ``oracle`` (and the mathematics the paper proves,
such as the radial symbol satisfying every constraint), never the
package's own answers.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, partial
from pathlib import Path
from typing import Callable

import numpy as np

from coxhecke import cli, cosets, groupfile, growth, hecke
from coxhecke.hecke import HeckeElement
from coxhecke.laurent import P_SYMBOL, LaurentPoly

import oracle

#: The paper's three named systems: free product of three involutions,
#: a commuting pair free-producted with one involution, and the 5-cycle.
NAMED = {
    "free3": (["s", "t", "u"], []),
    "z2sq-z2": (["s", "t", "u"], [("t", "u")]),
    "pentagon": (["p", "q", "r", "s", "t"],
                 [("p", "q"), ("q", "r"), ("r", "s"), ("s", "t"), ("t", "p")]),
}

#: Vertices the interaction graph must leave isolated: the identity, and
#: for Z2^2 * Z2 the generator of the free Z2 factor.
EXCEPTIONAL = {"free3": ["e"], "z2sq-z2": ["e", "s"], "pentagon": ["e"]}


@dataclass(frozen=True)
class Op:
    """One operation of the closed loop.  ``check`` returns True or False
    for a right or wrong answer, or None when no independent check can
    decide it (it is then counted as skipped, not failed)."""
    kind: str
    run: Callable[[], object]
    check: Callable[[object], bool | None]


class GroupSpec:
    """A group file the benchmark writes: generator order and commuting
    pairs, by name."""

    def __init__(self, label: str, names: list[str], pairs: list[tuple]):
        self.label = label
        self.names = names
        self.pairs = pairs
        index = {n: i for i, n in enumerate(names)}
        self.graph = oracle.Graph(len(names),
                                  [(index[a], index[b]) for a, b in pairs])

    def write(self, workdir: Path) -> str:
        path = workdir / f"g{len(list(workdir.iterdir()))}-{self.label}.json"
        path.write_text(json.dumps({"generators": self.names,
                                    "commuting_pairs": self.pairs}))
        return str(path)


def named(label: str) -> GroupSpec:
    """A named system in its usual generator order.  The order is not drawn
    from the seed: it changes the cost of normal forms by up to a factor of
    two, which would make runs on different seeds incomparable."""
    names, pairs = NAMED[label]
    return GroupSpec(label, list(names), [list(p) for p in pairs])


def run_cli(argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    return rc, buf.getvalue()


def _payload(out) -> dict:
    rc, text = out
    if rc != 0:
        raise ValueError(f"exit code {rc}")
    return json.loads(text)


# -- certify: the central-projection certificate ------------------------------


def _check_certificate(graph: oracle.Graph, q: Fraction, radius: int,
                       out) -> bool:
    d = _payload(out)
    counts = graph.sphere_counts(120)
    qf = float(q)
    w_q = math.fsum(c * qf ** k for k, c in enumerate(counts))
    partial_sum = float(sum(Fraction(c) * q ** k
                            for k, c in enumerate(counts[:radius // 2 + 1])))
    return (d["passed"] and d["scaling_identity_exact"]
            and d["projection_residual"] < d["projection_bound"]
            and d["radius"] == radius
            and d["certified_radius"] == radius // 2
            and math.isclose(d["w_q"], w_q, rel_tol=1e-9)
            and math.isclose(d["partial_norm_sq"], partial_sum, rel_tol=1e-12))


def certify(rng: random.Random, workdir: Path) -> list[Op]:
    ops = []
    for label, radius in (("pentagon", 11), ("free3", 13), ("z2sq-z2", 13)):
        spec = named(label)
        rho = oracle.CLOSED_FORM_RHO[label]
        q = Fraction(rho * rng.uniform(0.45, 0.55)).limit_denominator(10**6)
        argv = ["zeta-check", "--group", spec.write(workdir), "--q", str(q),
                "--radius", str(radius), "--format", "json"]
        ops.append(Op("zeta-check", partial(run_cli, argv),
                      partial(_check_certificate, spec.graph, q, radius)))
    return ops


# -- hecke: exact products -------------------------------------------------------

TRIPLES = {"pentagon": 700, "z2sq-z2": 400}
DUALITY_PAIRS = {"pentagon": 500, "z2sq-z2": 300}


def _plain(elem: HeckeElement) -> dict:
    return {w.word: {k: Fraction(c) for k, c in coeff.terms.items()}
            for w, coeff in elem.terms.items()}


def _mul_basis(v, w):
    return hecke.mul(hecke.t_basis(v), hecke.t_basis(w))


def _check_basis(graph, v_word, w_word, out) -> bool:
    expected = oracle.unnormalized_product(graph, v_word, w_word)
    return oracle.normalized_matches(graph, v_word, w_word, _plain(out),
                                     expected)


def _assoc(a, b, c):
    return hecke.mul(hecke.mul(a, b), c), hecke.mul(a, hecke.mul(b, c))


def _duality(a, b):
    return (hecke.j_iso(hecke.mul(a, b)),
            hecke.mul(hecke.j_iso(a), hecke.j_iso(b), p_override=-P_SYMBOL))


def _same_pair(out) -> bool:
    lhs, rhs = out
    return _plain(lhs) == _plain(rhs)


def _random_element(system, support, rng: random.Random) -> HeckeElement:
    acc = HeckeElement(system)
    for _ in range(rng.randint(1, 3)):
        num = rng.choice((-3, -2, -1, 1, 2, 3))
        coeff = LaurentPoly({rng.randint(-1, 1): Fraction(num, rng.randint(1, 3))})
        acc = acc + hecke.t_basis(rng.choice(support)).scale(coeff)
    return acc


def hecke_products(rng: random.Random, workdir: Path) -> list[Op]:
    ops = []
    for label in ("pentagon", "z2sq-z2"):
        spec = named(label)
        system = groupfile.load_system(spec.write(workdir))
        ball4 = system.ball(4)
        for v in ball4:
            for w in ball4:
                ops.append(Op("mul", partial(_mul_basis, v, w),
                              partial(_check_basis, spec.graph,
                                      v.word, w.word)))
        ball6 = system.ball(6)
        for _ in range(TRIPLES[label]):
            a, b, c = (_random_element(system, ball6, rng) for _ in range(3))
            ops.append(Op("assoc", partial(_assoc, a, b, c), _same_pair))
        for _ in range(DUALITY_PAIRS[label]):
            a, b = (_random_element(system, ball6, rng) for _ in range(2))
            ops.append(Op("duality", partial(_duality, a, b), _same_pair))
    return ops


# -- spectrum: growth, rho and classification on random graphs --------------------

#: Commuting-pair fractions of the irreducible maximum, per generator count.
#: A fixed grid of shapes, with the pairs themselves drawn from the seed,
#: keeps the mix of radii (and so the cost of the root search, which grows
#: with rho) nearly the same for every seed.
SMALL_SIZES = range(3, 10)
SMALL_FRACTIONS = tuple(k / 6 for k in range(7))
#: Dense systems: all pairs commute except along a random tree on a few
#: generators, so the clique count is about 2^(n - tree size) times the
#: tree part's, and one irreducible component of the tree's size remains.
DENSE_SIZES = (18, 20)
DENSE_TREE = 6


def _spec(label: str, n: int, noncommuting: set) -> GroupSpec:
    names = [f"g{i}" for i in range(n)]
    pairs = [[names[i], names[j]] for i in range(n) for j in range(i + 1, n)
             if (i, j) not in noncommuting]
    return GroupSpec(label, names, pairs)


def small_graph(rng: random.Random, n: int, fraction: float) -> GroupSpec:
    """An irreducible system on n generators with round(fraction * max)
    commuting pairs; max = C(n, 2) - (n - 1) leaves the non-commuting
    pairs a spanning tree, the sparsest connected case."""
    everything = [(i, j) for i in range(n) for j in range(i + 1, n)]
    commuting = round(fraction * (len(everything) - (n - 1)))
    while True:
        spec = _spec("small", n, set(rng.sample(everything,
                                                len(everything) - commuting)))
        if len(spec.graph.components()) == 1:
            return spec


def dense_graph(rng: random.Random, n: int) -> GroupSpec:
    tree = rng.sample(range(n), DENSE_TREE)
    noncommuting = set()
    for k in range(1, len(tree)):
        a, b = tree[k], tree[rng.randrange(k)]
        noncommuting.add((min(a, b), max(a, b)))
    return _spec("dense", n, noncommuting)


@cache
def _component_rhos(graph: oracle.Graph) -> dict:
    """Oracle radius per component, computed once per graph."""
    return {tuple(c): graph.component_rho(c) for c in graph.components()}


def _check_growth(graph: oracle.Graph, out) -> bool:
    d = _payload(out)
    counts = graph.sphere_counts(30)
    return (d["coefficients"] == counts[:13]
            and oracle.taylor(d["numerator"], d["denominator"], 30) == counts)


def _check_rho(spec: GroupSpec, out) -> bool:
    d = _payload(out)
    expected = {}
    for comp, value in _component_rhos(spec.graph).items():
        key = ",".join(spec.names[i] for i in comp)
        expected[key] = None if math.isinf(value) else value
    if set(d["components"]) != set(expected):
        return False
    for key, value in expected.items():
        got = d["components"][key]
        if (got is None) != (value is None):
            return False
        if value is not None and abs(got - value) > 1e-9:
            return False
    finite = [v for v in expected.values() if v is not None]
    if not finite:
        return d["rho"] is None
    return d["rho"] is not None and abs(d["rho"] - min(finite)) <= 1e-9


def _check_classify(spec: GroupSpec, q: Fraction, out) -> bool | None:
    d = _payload(out)
    expected = oracle.expected_classification(spec.graph, q,
                                              _component_rhos(spec.graph))
    if expected is None:
        return None
    overall, dim, comps = expected
    got = [(c["classification"], c["center_dimension"]) for c in d["components"]]
    names = [[spec.names[i] for i in comp] for comp in spec.graph.components()]
    return (d["classification"] == overall and d["center_dimension"] == dim
            and got == comps
            and [c["generators"] for c in d["components"]] == names)


def spectrum(rng: random.Random, workdir: Path) -> list[Op]:
    specs = [small_graph(rng, n, f)
             for n in SMALL_SIZES for f in SMALL_FRACTIONS]
    specs += [dense_graph(rng, n) for n in DENSE_SIZES]
    ops = []
    for spec in specs:
        path = spec.write(workdir)
        ops.append(Op("growth", partial(run_cli, ["growth", "--group", path,
                                                  "--radius", "12",
                                                  "--format", "json"]),
                      partial(_check_growth, spec.graph)))
        ops.append(Op("rho", partial(run_cli, ["rho", "--group", path,
                                               "--format", "json"]),
                      partial(_check_rho, spec)))
        # One q anywhere, and one within 2% of a radius (from the oracle),
        # where the exact decision is hardest.
        rhos = [r for c, r in _component_rhos(spec.graph).items()
                if len(c) >= 3]
        qs = [Fraction(rng.randint(1, 300), rng.randint(1, 300))]
        if rhos:
            near = min(rhos) * (1 + rng.choice((-1, 1)) * rng.uniform(1e-4, 0.02))
            qs.append(Fraction(near).limit_denominator(10**6))
        for q in qs:
            ops.append(Op("classify",
                          partial(run_cli, ["classify", "--group", path,
                                            "--q", str(q), "--format", "json"]),
                          partial(_check_classify, spec, q)))
    return ops


# -- ball-scan: the interaction graph and other consumers of a ball ---------------

GAMMA_RADII = (("pentagon", 8), ("free3", 11), ("z2sq-z2", 13))
SYMBOL_RADIUS = 8
COSET_SAMPLES = 60
ACTION_MATRICES = 150


def _check_gamma(graph: oracle.Graph, label: str, radius: int, out) -> bool:
    d = _payload(out)
    return (d["passed"] and d["exceptional"] == EXCEPTIONAL[label]
            and d["vertices"] == sum(graph.sphere_counts(radius)))


def _action(a, ball, side):
    return hecke.action_matrix(a, ball, side)


def _symbol_check(system, s, xi):
    return growth.check_symbol_commutation(system, s, xi, P_SYMBOL)


def _coset_check(system, pair, v, xi):
    info = cosets.shortest_rep(system, pair, v)
    if not info.nondegenerate:
        return info, None
    return info, growth.double_coset_symbol_check(system, pair, v, xi)


def _check_coset(graph: oracle.Graph, v_word, s: int, t: int, out) -> bool:
    info, witnesses = out
    w0 = info.w0.word
    key = graph.key(w0)
    for g in (s, t):
        if graph.left_mul(key, g)[1] or graph.right_mul(key, g)[1]:
            return False            # w0 is not the shortest in its coset
    if len(w0) > len(v_word):
        return False
    commutes = [all(x == g or (graph.comm[g] >> x) & 1 for x in w0)
                for g in (s, t)]
    if [info.commutes_s, info.commutes_t] != commutes:
        return False
    if all(commutes):
        return witnesses is None
    return witnesses == []


def _check_action(graph: oracle.Graph, a_terms, words, side: str, q: float,
                  out) -> bool:
    p = (q - 1.0) / math.sqrt(q)
    step = graph.left_mul if side == "left" else graph.right_mul
    index = {graph.key(w): i for i, w in enumerate(words)}
    if len(index) != len(words):
        return False
    expected = np.zeros((len(words), len(words)))
    exact = np.ones(len(words), dtype=bool)
    for j, w in enumerate(words):
        for word, c in a_terms:
            cur = {graph.key(w): c}
            for s in (reversed(word) if side == "left" else word):
                nxt: dict = {}
                for x, val in cur.items():
                    y, shorter = step(x, s)
                    nxt[y] = nxt.get(y, 0.0) + val
                    if shorter:
                        nxt[x] = nxt.get(x, 0.0) + p * val
                cur = nxt
            for x, val in cur.items():
                i = index.get(x)
                if i is not None:
                    expected[i, j] += val
                elif abs(val) > 1e-12:
                    exact[j] = False
    return (np.array_equal(np.asarray(out.exact_columns, dtype=bool), exact)
            and bool(np.all(np.abs(out.matrix - expected)
                            <= 1e-9 * (1.0 + np.abs(expected)))))


def ball_scan(rng: random.Random, workdir: Path) -> list[Op]:
    ops = []
    systems = {}
    for label, radius in GAMMA_RADII:
        spec = named(label)
        path = spec.write(workdir)
        systems[label] = (spec, groupfile.load_system(path))
        ops.append(Op("gamma", partial(run_cli, ["gamma", "--group", path,
                                                 "--radius", str(radius),
                                                 "--format", "json"]),
                      partial(_check_gamma, spec.graph, label, radius)))

    for label, (spec, system) in systems.items():
        ball = system.ball(SYMBOL_RADIUS)
        xi = {w: LaurentPoly.u_power(len(w)) for w in ball}
        for s in range(system.n):
            ops.append(Op("symbol", partial(_symbol_check, system, s, xi),
                          lambda out: out == []))
        pairs = [(i, j) for i in range(system.n) for j in range(system.n)
                 if i != j and not system.commutes(i, j)]
        short = [w for w in ball if len(w) <= 6]
        for _ in range(COSET_SAMPLES // len(systems)):
            s, t = rng.choice(pairs)
            v = rng.choice(short)
            pair = cosets.InfinitePair.of(system, s, t)
            ops.append(Op("coset", partial(_coset_check, system, pair, v, xi),
                          partial(_check_coset, spec.graph, v.word, s, t)))

    spec, system = systems["pentagon"]
    ball5 = system.ball(5)
    words = [w.word for w in ball5]
    length2 = [w for w in ball5 if len(w) == 2]
    q = rng.uniform(0.1, 3.0)
    for k in range(ACTION_MATRICES):
        # A fixed shape (two terms of length 2) gives every matrix the same
        # cost, so op_p50_ms does not depend on the draw.
        a = HeckeElement(system, {w: rng.uniform(0.5, 2.0) * rng.choice((-1, 1))
                                  for w in rng.sample(length2, 2)}, q=q)
        a_terms = [(w.word, c) for w, c in a.terms.items()]
        side = "left" if k % 2 == 0 else "right"
        ops.append(Op("action", partial(_action, a, ball5, side),
                      partial(_check_action, spec.graph, a_terms, words,
                              side, q)))
    return ops


BUILDERS = {"certify": certify, "hecke": hecke_products,
            "spectrum": spectrum, "ball-scan": ball_scan}


def build(workload: str, seed: int, workdir: Path, rounds: int) -> list[Op]:
    """The operations of ``rounds`` rounds, each drawn from its own seeded
    generator so that the inputs depend only on (workload, seed).

    The operations are run in a seeded random order: the host's speed
    drifts over seconds, and spreading every kind of operation over the
    whole run keeps a slow stretch from landing on one kind alone."""
    ops = []
    for r in range(rounds):
        rng = random.Random(f"{workload}/{seed}/{r}")
        ops.extend(BUILDERS[workload](rng, workdir))
    random.Random(f"{workload}/{seed}/order").shuffle(ops)
    return ops
