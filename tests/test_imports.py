"""What a fresh interpreter imports: the package surface, read on demand,
and the modules each subcommand loads."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parent.parent / "src")
PENTAGON = str(Path(__file__).resolve().parent.parent / "groups" / "pentagon.json")

#: The public names by home module, as the package's eager import block
#: bound them: 65 names over the eight modules a bare import exposed.
PUBLIC = {
    "coxeter": "CoxeterSystem Element Word ConditionReport LEFT RIGHT "
               "DEFAULT_MAX_BALL",
    "errors": "CoxheckeError InputError ParseError DomainError "
              "PreconditionError CapacityError ConsistencyError",
    "laurent": "LaurentPoly P_SYMBOL",
    "hecke": "HeckeElement ActionMatrix action_matrix inner j_iso l2_norm mul "
             "parse_expression state_phi t_basis t_tilde unit",
    "cosets": "InfinitePair DoubleCosetInfo GammaBallGraph ComponentReport "
              "brute_force_min_rep build_gamma_ball gamma_neighbors "
              "shortest_rep verify_component_structure",
    "growth": "RationalSeries RhoInfo CenterReport ZetaVector ProjectionReport "
              "RecurrenceReport growth_series rho rho_info classify "
              "zeta_symbol check_symbol_commutation double_coset_symbol_check "
              "coset_recurrence verify_central_projection",
    "freeprod": "FreeFactorSpec AtomicMeasure DecompositionReport "
                "IdempotentPair CrossValidation mu_k hvn_z2_idempotents "
                "dykema_decompose closed_form_condition "
                "cross_validate_with_rho freeness_test",
    "groupfile": "load_system parse_system",
}


def run_fresh(code: str, *argv: str) -> dict:
    """Run ``code`` in a fresh interpreter with ``src`` on the path; it
    prints one JSON object last, which is returned."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code, *argv], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


SURFACE = """
import importlib, json, sys, types
import coxhecke
public = json.loads(sys.argv[1])
out = {"bare": sorted(m for m in public
                      if isinstance(getattr(coxhecke, m), types.ModuleType))}
out["same"] = sorted(name for home, names in public.items() for name in names.split()
                     if getattr(coxhecke, name)
                     is getattr(importlib.import_module("coxhecke." + home), name))
star = {}
exec("from coxhecke import *", star)
out["star"] = sorted(set(star) - {"__builtins__"})
out["all"] = sorted(coxhecke.__all__)
out["dir"] = sorted(set(dir(coxhecke)))
try:
    coxhecke.no_such_name
except AttributeError as exc:
    out["unknown"] = str(exc)
print(json.dumps(out))
"""


def test_package_surface_in_a_fresh_interpreter():
    """Each of the 65 public names is its home module's object, ``import *``
    binds all of them, the eight home modules are attributes after a bare
    import, ``dir`` lists ``__all__``, and an unknown name is an
    AttributeError."""
    names = sorted(n for names in PUBLIC.values() for n in names.split())
    assert len(names) == len(set(names)) == 65
    got = run_fresh(SURFACE, json.dumps(PUBLIC))
    assert got["bare"] == sorted(PUBLIC)
    assert got["same"] == got["star"] == got["all"] == names
    assert set(got["all"]) <= set(got["dir"])
    assert got["unknown"] == "module 'coxhecke' has no attribute 'no_such_name'"


LOADED = """
import contextlib, io, json, sys
from coxhecke.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[1:])
print(json.dumps({"code": code, "modules": sorted(sys.modules)}))
"""


@pytest.mark.parametrize("argv, integer_only", [
    (["info", "--group", PENTAGON], True),
    (["growth", "--group", PENTAGON], True),
    (["rho", "--group", PENTAGON], True),
    (["classify", "--group", PENTAGON, "--q", "1/2"], True),
    (["hecke", "--group", PENTAGON, "--expr", "2/3*T(p q)*T(q r)"], False),
    (["dykema", "--ranks", "2,1", "--q", "1/2"], False),
], ids=["info", "growth", "rho", "classify", "hecke", "dykema"])
def test_subcommand_loads_only_what_it_runs(argv, integer_only):
    """Subcommands that build no array run without numpy; the series, rho
    and classification load none of the Hecke, free-product and
    verification modules either."""
    got = run_fresh(LOADED, *argv)
    assert got["code"] == 0
    assert "numpy" not in got["modules"]
    if integer_only:
        assert not {"coxhecke.hecke", "coxhecke.freeprod",
                    "coxhecke.verify"} & set(got["modules"])
