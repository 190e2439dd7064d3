"""Command-line front end.

Subcommands: info, ball, growth, rho, classify, gamma, zeta-check,
dykema, hecke, verify.  Output is plain text or JSON (``--format json``,
schema version 1); identical inputs including the seed produce
byte-identical reports.  Exit codes: 0 success, 1 computational failure,
2 input error.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from fractions import Fraction

from .coxeter import DEFAULT_MAX_BALL, CoxeterSystem, _tree_words
from .errors import (CapacityError, ConsistencyError, CoxheckeError,
                     DomainError, InputError, ParseError, PreconditionError)
from .groupfile import load_system
from .laurent import positive_q

SCHEMA = 1


def parse_q(text: str) -> Fraction:
    """Exact rational parameter: 'a/b' or a decimal literal."""
    try:
        q = Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise InputError(f"cannot parse q value {text!r}") from None
    return positive_q(q)


def _emit(args, payload: dict, text: str) -> None:
    if args.format == "json":
        print(json.dumps({"schema": SCHEMA, **payload}, sort_keys=True))
    else:
        print(text)


def _load(args) -> CoxeterSystem:
    if not args.group:
        raise InputError("this command needs --group <file>")
    return load_system(args.group)


def cmd_info(args) -> int:
    sys_ = _load(args)
    comps = []
    for comp in sys_.components:
        names = [sys_.names[i] for i in comp]
        comps.append({
            "generators": names,
            "finite": sys_.component_is_finite(comp),
        })
    z2gen = sys_.free_z2_factor_generator()
    edges = [[sys_.names[i], sys_.names[j]]
             for i in range(sys_.n) for j in range(i + 1, sys_.n)
             if sys_.commutes(i, j)]
    payload = {
        "command": "info",
        "generators": list(sys_.names),
        "commuting_pairs": edges,
        "irreducible": sys_.irreducible,
        "finite": sys_.is_finite(),
        "components": comps,
        "z2_free_factor_generator":
            None if z2gen is None else sys_.names[z2gen],
    }
    lines = [
        f"generators: {' '.join(sys_.names)}",
        f"commuting pairs: "
        f"{', '.join('-'.join(e) for e in edges) if edges else 'none'}",
        f"irreducible: {sys_.irreducible}",
        f"finite: {sys_.is_finite()}",
        f"components: {len(comps)}",
    ]
    for c in comps:
        lines.append(f"  {{{', '.join(c['generators'])}}}"
                     f" ({'finite' if c['finite'] else 'infinite'})")
    if z2gen is not None:
        lines.append(f"shape: Z2 * Z2^k with free factor generator "
                     f"{sys_.names[z2gen]}")
    _emit(args, payload, "\n".join(lines))
    return 0


def cmd_ball(args) -> int:
    sys_ = _load(args)
    lengths, parent, last = sys_._ball_levels(args.radius, args.max_ball)
    ends = lengths.searchsorted(range(-1, args.radius + 1), "right")
    counts = (ends[1:] - ends[:-1]).tolist()
    names = [sys_.word_str(w) for w in _tree_words(parent, last)]
    payload = {"command": "ball", "radius": args.radius, "size": len(names),
               "sphere_counts": counts, "elements": names}
    text = "\n".join([f"ball of radius {args.radius}: {len(names)} elements",
                      f"sphere counts: {counts}"] + names)
    _emit(args, payload, text)
    return 0


def cmd_growth(args) -> int:
    from .growth import growth_series
    sys_ = _load(args)
    if args.radius < 0:
        raise InputError("radius must be nonnegative")
    series = growth_series(sys_)
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    cap = 10 ** limit if limit else math.inf
    coefficients = []
    for _, c in zip(range(args.radius + 1), series.coefficients()):
        if c >= cap:        # stop here: the rest would cost quadratic time
            raise CapacityError(f"growth coefficients to degree {args.radius} "
                                f"pass Python's int-to-str limit of {limit} digits")
        coefficients.append(c)
    payload = {
        "command": "growth",
        "numerator": list(series.numerator),
        "denominator": list(series.denominator),
        "coefficients": coefficients,
    }
    text = "\n".join([
        f"growth series: {series}",
        f"coefficients to degree {args.radius}: {coefficients}",
    ])
    _emit(args, payload, text)
    return 0


def cmd_rho(args) -> int:
    from .growth import component_rhos
    sys_ = _load(args)
    values = {",".join(sys_.names[i] for i in comp):
              math.inf if info is None else info.value
              for comp, info in component_rhos(sys_).items()}
    overall = min(values.values())
    payload = {
        "command": "rho",
        "rho": None if math.isinf(overall) else overall,
        "components": {key: None if math.isinf(v) else v
                       for key, v in values.items()},
    }
    lines = ["rho = " + ("inf (finite group)" if math.isinf(overall)
                         else f"{overall:.12f}")]
    if len(values) > 1:
        for key, v in values.items():
            lines.append(f"  component {{{key}}}: "
                         + ("inf" if math.isinf(v) else f"{v:.12f}"))
    _emit(args, payload, "\n".join(lines))
    return 0


def cmd_classify(args) -> int:
    from .growth import classify
    sys_ = _load(args)
    report = classify(sys_, parse_q(args.q))
    payload = {
        "command": "classify",
        "q": str(report.q),
        "rho": None if math.isinf(report.rho) else report.rho,
        "classification": report.classification,
        "reason": report.reason,
        "center_dimension": report.center_dimension,
        "components": [
            {"generators": list(c.generators), "kind": c.kind,
             "classification": c.classification,
             "center_dimension": c.center_dimension,
             "rho": None if math.isinf(c.rho) else c.rho}
            for c in report.components],
    }
    _emit(args, payload, report.summary())
    return 0


def cmd_gamma(args) -> int:
    from .cosets import _check_component_domain, _component_report, build_gamma_ball
    sys_ = _load(args)
    _check_component_domain(sys_, args.slack)
    graph = build_gamma_ball(sys_, args.radius, args.max_ball)
    report = _component_report(graph, args.slack)
    if args.edges_out:
        try:
            with open(args.edges_out, "w") as fh:
                graph.write_edge_list(fh)
        except OSError as exc:
            raise InputError(f"cannot write edge list: {exc}") from None
    payload = {
        "command": "gamma", "radius": args.radius, "slack": args.slack,
        "vertices": len(graph.component_label), "edges": len(graph.edges),
        "components": graph.n_components,
        "passed": report.passed,
        "exceptional": [str(w) for w in report.exceptional],
        "big_component_size": report.big_component_size,
    }
    text = "\n".join([
        f"graph on ball of radius {args.radius}: {len(graph.component_label)} "
        f"vertices, {len(graph.edges)} edges, {graph.n_components} components",
        report.summary(),
    ])
    _emit(args, payload, text)
    return 0 if report.passed else 1


def cmd_zeta_check(args) -> int:
    from .growth import verify_central_projection
    sys_ = _load(args)
    report = verify_central_projection(sys_, parse_q(args.q), args.radius,
                                       args.max_ball)
    payload = {
        "command": "zeta-check", "q": str(report.q),
        "radius": report.radius, "certified_radius": report.certified_radius,
        "w_q": report.w_q, "partial_norm_sq": report.partial_norm_sq,
        "scaling_identity_exact": report.scaling_identity_exact,
        "projection_residual": report.projection_residual,
        "projection_bound": report.projection_bound,
        "commutator_max": report.commutator_max,
        "rayleigh_estimate": report.rayleigh_estimate,
        "passed": report.scaling_identity_exact,
    }
    _emit(args, payload, report.summary())
    return 0 if payload["passed"] else 1


def cmd_dykema(args) -> int:
    from .freeprod import FreeFactorSpec, cross_validate_with_rho
    try:
        ranks = tuple(int(x) for x in args.ranks.split(","))
    except ValueError:
        raise InputError(f"cannot parse ranks {args.ranks!r}; "
                         "expected e.g. 2,1") from None
    spec = FreeFactorSpec(ranks)
    q = parse_q(args.q)
    cv = cross_validate_with_rho(spec, q)
    payload = {
        "command": "dykema", "ranks": list(ranks), "q": str(q),
        "closed_form_condition": cv.condition,
        "classification": cv.classification.classification,
        "rho": cv.rho,
        "agrees": cv.agrees,
    }
    lines = [cv.summary()]
    dec = cv.decomposition
    if dec is not None:
        payload["atoms"] = [
            {"label": [list(x) for x in label],
             "weight": str(dec.atoms.masses[label])}
            for label in dec.atoms.points()]
        payload["diffuse_present"] = dec.diffuse_present
        lines.append(dec.summary())
    else:
        lines.append("all ranks are 1: the iterated two-factor rule does "
                     "not start; closed form and radius criterion reported")
    _emit(args, payload, "\n".join(lines))
    return 0 if cv.agrees else 1


def cmd_hecke(args) -> int:
    from .hecke import parse_expression
    sys_ = _load(args)
    elem = parse_expression(sys_, args.expr)
    payload = {
        "command": "hecke", "expr": args.expr,
        "terms": [{"word": str(w), "coefficient": str(elem.terms[w])}
                  for w in elem.support()],
    }
    _emit(args, payload, str(elem))
    return 0


def cmd_verify(args) -> int:
    from .verify import run_suites
    results = run_suites(args.seed)
    payload = {
        "command": "verify", "seed": args.seed,
        "results": [{"suite": r.name, "passed": r.passed, "detail": r.detail}
                    for r in results],
        "passed": all(r.passed for r in results),
    }
    lines = [f"{'PASS' if r.passed else 'FAIL'}  {r.name:20s} {r.detail}"
             for r in results]
    lines.append("all suites passed" if payload["passed"]
                 else "SOME SUITES FAILED")
    _emit(args, payload, "\n".join(lines))
    return 0 if payload["passed"] else 1


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coxhecke",
        description="Right-angled Coxeter groups, their Hecke algebras, and "
                    "the center structure of the completed algebras.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, group=True, radius=None, q=False, max_ball=False):
        if group:
            p.add_argument("--group", help="path to a JSON group file")
        if radius is not None:
            p.add_argument("--radius", type=int, default=radius,
                           help=f"ball radius (default {radius})")
        if q:
            p.add_argument("--q", required=True,
                           help="parameter, a rational like 1/4 or a decimal")
        p.add_argument("--format", choices=("text", "json"), default="text")
        if max_ball:
            p.add_argument("--max-ball", type=int, default=DEFAULT_MAX_BALL,
                           help="cap on enumerated elements")

    p = sub.add_parser("info", help="summarize a group file")
    common(p)
    p.set_defaults(func=cmd_info)

    p = sub.add_parser("ball", help="enumerate a metric ball")
    common(p, radius=3, max_ball=True)
    p.set_defaults(func=cmd_ball)

    p = sub.add_parser("growth", help="rational growth series")
    common(p, radius=12)
    p.set_defaults(func=cmd_growth)

    p = sub.add_parser("rho", help="convergence radius of the growth series")
    common(p)
    p.set_defaults(func=cmd_rho)

    p = sub.add_parser("classify", help="center structure at parameter q")
    common(p, q=True)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("gamma", help="interaction graph on a ball")
    common(p, radius=5, max_ball=True)
    p.add_argument("--slack", type=int, default=2)
    p.add_argument("--edges-out", help="write the edge list to a file")
    p.set_defaults(func=cmd_gamma)

    p = sub.add_parser("zeta-check",
                       help="certify the radial central projection at q < rho")
    common(p, radius=8, q=True, max_ball=True)
    p.set_defaults(func=cmd_zeta_check)

    p = sub.add_parser("dykema",
                       help="free-product decomposition for Z2^k1 * ... * Z2^kn")
    common(p, group=False, q=True)
    p.add_argument("--ranks", required=True, help="comma-separated ranks, e.g. 2,1")
    p.set_defaults(func=cmd_dykema)

    p = sub.add_parser("hecke", help="evaluate a Hecke expression")
    common(p)
    p.add_argument("--expr", required=True,
                   help="e.g. 'T(s t)*T(s) + 2/3*star(T(t s))'")
    p.set_defaults(func=cmd_hecke)

    p = sub.add_parser("verify", help="run the property suites")
    common(p, group=False)
    p.add_argument("--seed", type=int, default=0,
                   help="seed for randomized suites")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, InputError, PreconditionError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (CapacityError, ConsistencyError, CoxheckeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:   # digit limit; inputs are checked when parsed
        if "integer string conversion" not in str(exc):
            raise
        print("error: an output number passes Python's int-to-str digit limit "
              f"of {sys.get_int_max_str_digits()} digits", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
