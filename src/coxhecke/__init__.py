"""Computing with right-angled Coxeter groups and their Hecke algebras.

The package covers exact word combinatorics (canonical reduced words,
balls, descent sets), double cosets and the interaction graph whose
connectivity constrains central symbols, exact and numeric Hecke algebra
arithmetic, rational growth series with their convergence radius, the
factoriality classification of the completed algebras at parameter q,
and the free-product decomposition of products of finite abelian pieces.
"""

import importlib

__version__ = "0.1.0"

_PUBLIC = {     # home module: its public names
    "coxeter": "CoxeterSystem Element Word ConditionReport LEFT RIGHT DEFAULT_MAX_BALL",
    "errors": "CoxheckeError InputError ParseError DomainError PreconditionError "
              "CapacityError ConsistencyError",
    "laurent": "LaurentPoly P_SYMBOL",
    "hecke": "HeckeElement ActionMatrix action_matrix inner j_iso l2_norm mul "
             "parse_expression state_phi t_basis t_tilde unit",
    "cosets": "InfinitePair DoubleCosetInfo GammaBallGraph ComponentReport "
              "brute_force_min_rep build_gamma_ball gamma_neighbors shortest_rep "
              "verify_component_structure",
    "growth": "RationalSeries RhoInfo CenterReport ZetaVector ProjectionReport "
              "RecurrenceReport growth_series rho rho_info classify zeta_symbol "
              "check_symbol_commutation double_coset_symbol_check coset_recurrence "
              "verify_central_projection",
    "freeprod": "FreeFactorSpec AtomicMeasure DecompositionReport IdempotentPair "
                "CrossValidation mu_k hvn_z2_idempotents dykema_decompose "
                "closed_form_condition cross_validate_with_rho freeness_test",
    "groupfile": "load_system parse_system",
}
_HOME = {name: home for home, names in _PUBLIC.items() for name in names.split()}
__all__ = list(_HOME)


def __getattr__(name: str):
    """A home module, or a public name read from its home module."""
    home = _HOME.get(name, name)
    if home not in _PUBLIC:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f"{__name__}.{home}")
    return module if home == name else getattr(module, name)


def __dir__() -> list[str]:
    return sorted({*globals(), *_PUBLIC, *__all__})
