"""Command-line interface: dispatch, formats, exit codes, determinism."""

import hashlib
import json
import math
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from coxhecke import coxeter
from coxhecke.cli import main, parse_q
from coxhecke.coxeter import CoxeterSystem, Element
from coxhecke.groupfile import load_system
from coxhecke.growth import RationalSeries, rho_info
from coxhecke.verify import named_systems
from fractions import Fraction


GROUPS = Path(__file__).resolve().parent.parent / "groups"
FREE3 = str(GROUPS / "free3.json")
Z2SQ_Z2 = str(GROUPS / "z2sq-z2.json")
PENTAGON = str(GROUPS / "pentagon.json")


@pytest.fixture
def group_file(tmp_path):
    def write(text, name="group.json"):
        path = tmp_path / name
        path.write_text(text)
        return str(path)
    return write


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_q():
    assert parse_q("1/4") == Fraction(1, 4)
    assert parse_q("0.25") == Fraction(1, 4)
    assert parse_q("2") == Fraction(2)
    from coxhecke import InputError
    with pytest.raises(InputError):
        parse_q("zebra")
    with pytest.raises(InputError):
        parse_q("-1/4")


def test_info_text(capsys):
    code, out, _ = run(capsys, ["info", "--group", PENTAGON])
    assert code == 0
    assert "irreducible: True" in out
    assert "p q r s t" in out


def test_info_detects_free_factor_shape(capsys):
    code, out, _ = run(capsys, ["info", "--group", Z2SQ_Z2])
    assert code == 0
    assert "free factor generator s" in out


def test_info_direct_product(capsys, group_file):
    # dihedral x dihedral: cross pairs commute, two irreducible components
    doc = ('{"generators": ["a", "b", "c", "d"], "commuting_pairs": '
           '[["a","c"],["a","d"],["b","c"],["b","d"]]}')
    code, out, _ = run(capsys, ["info", "--group", group_file(doc)])
    assert code == 0 and "components: 2" in out


def test_info_free_product_of_cliques(capsys, group_file):
    # two disjoint commutation cliques form a free product: irreducible
    doc = ('{"generators": ["a", "b", "c", "d"], "commuting_pairs": '
           '[["a","b"],["c","d"]]}')
    code, out, _ = run(capsys, ["info", "--group", group_file(doc)])
    assert code == 0 and "components: 1" in out and "irreducible: True" in out


def test_parse_error_exit_code(capsys, group_file):
    code, _, err = run(capsys, ["info", "--group",
                                group_file('{"generators": ["s",')])
    assert code == 2
    assert "line" in err
    code, _, err = run(capsys, ["info", "--group",
                                group_file('{"generators": ["s", "s"]}')])
    assert code == 2 and "distinct" in err
    code, _, err = run(capsys, ["info", "--group", group_file(
        '{"generators": ["s", "t"], "commuting_pairs": [["s", "s"]]}')])
    assert code == 2 and "self pair" in err
    if DIGIT_LIMIT:     # a number JSON reads but Python will not convert
        code, out, err = run(capsys, ["info", "--group", group_file(
            '{"generators": ["s"], "x": 1' + "0" * DIGIT_LIMIT + '}')])
        assert (code, out) == (2, "")
        assert err == ("error: number exceeds Python's int-to-str digit "
                       "limit\n")


def test_undecodable_group_file_is_parse_error(capsys, tmp_path):
    """Bytes that are not UTF-8 are a parse error, whatever the locale."""
    path = tmp_path / "latin1.json"
    path.write_bytes('{"generators": ["\u00e9"]}'.encode("latin-1"))
    code, out, err = run(capsys, ["info", "--group", str(path)])
    assert (code, out) == (2, "")
    assert err.startswith("error: group file is not valid UTF-8")


def test_deeply_nested_group_file_is_parse_error(capsys, group_file):
    """JSON nested past the recursion limit is a parse error, not a crash."""
    code, out, err = run(capsys, ["info", "--group",
                                  group_file("[" * 100000 + "]" * 100000)])
    assert (code, out) == (2, "")
    assert err == "error: JSON nested too deeply\n"


def test_missing_group_file(capsys):
    code, _, err = run(capsys, ["info", "--group", "/nonexistent/g.json"])
    assert code == 2


def test_ball(capsys):
    code, out, _ = run(capsys, ["ball", "--group", FREE3,
                                "--radius", "2"])
    assert code == 0
    assert "10 elements" in out
    assert "s.t" in out


def test_ball_spells_each_element_once(capsys, monkeypatch):
    """The payload and the text share one list of names, so each format
    formats every element once; the words are spelled from the ball's
    tree, with no ``Element`` built but the loaded system's identity."""
    size = len(load_system(PENTAGON).ball(4))
    calls, built = [], []
    word_str = CoxeterSystem.word_str
    monkeypatch.setattr(CoxeterSystem, "word_str",
                        lambda self, word: calls.append(word)
                        or word_str(self, word))

    class Counted(Element):
        def __init__(self, system, word):
            built.append(word)
            super().__init__(system, word)

    monkeypatch.setattr(coxeter, "Element", Counted)
    for fmt in ("text", "json"):
        calls.clear()
        built.clear()
        code, out, _ = run(capsys, ["ball", "--group", PENTAGON, "--radius",
                                    "4", "--format", fmt])
        assert code == 0 and f"{size}" in out
        assert len(calls) == size
        assert built == [()]


# Recorded before the sphere counts were read off the ball: a finite
# group's counts end in zeros up to the radius.
BALL_Z2XZ2_PIN = (
    '{"command": "ball", "elements": ["e", "s", "t", "s.t"], "radius": 4, '
    '"schema": 1, "size": 4, "sphere_counts": [1, 2, 1, 0, 0]}\n')


def test_options_only_where_read(capsys):
    """--max-ball is read by ball, gamma and zeta-check only, and --seed by
    verify only; elsewhere argparse rejects them."""
    for argv in (["growth", "--group", FREE3, "--max-ball", "5"],
                 ["classify", "--group", FREE3, "--q", "1/4", "--seed", "3"]):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2
    capsys.readouterr()
    code, out, err = run(capsys, ["ball", "--group", FREE3, "--radius", "6",
                                  "--max-ball", "100"])
    assert code == 1 and out == ""
    assert "exceed 100 elements" in err


@pytest.mark.parametrize("argv", [
    ["zeta-check", "--q", "19/100", "--radius", "6", "--max-ball", "-5"],
    ["ball", "--radius", "3", "--max-ball", "0"],
    ["gamma", "--radius", "3", "--max-ball", "-1"]])
def test_max_ball_below_one_exits_2(capsys, argv):
    """No ball is empty: a cap below 1 is a bad argument (exit 2), not a
    capacity failure (exit 1)."""
    code, out, err = run(capsys, argv + ["--group", PENTAGON])
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "at least 1" in err


def test_ball_pinned_finite_group(capsys, group_file):
    doc = '{"generators": ["s", "t"], "commuting_pairs": [["s", "t"]]}'
    code, out, _ = run(capsys, ["ball", "--group", group_file(doc),
                                "--radius", "4", "--format", "json"])
    assert code == 0 and out == BALL_Z2XZ2_PIN


def test_ball_counts_match_automaton(capsys):
    for name, sys in named_systems().items():
        code, out, _ = run(capsys, ["ball", "--group",
                                    str(GROUPS / f"{name}.json"),
                                    "--radius", "5", "--format", "json"])
        assert code == 0
        assert json.loads(out)["sphere_counts"] == sys.sphere_counts(5), name


def test_main_repeatable_in_process(capsys):
    """The parser is built once per process: a repeated call, a call with
    other option values and one that argparse ends with SystemExit leave
    the next call's output unchanged."""
    argv = ["growth", "--group", Z2SQ_Z2, "--format", "json"]
    first = run(capsys, argv)
    assert first[0] == 0
    assert run(capsys, argv) == first
    run(capsys, argv + ["--radius", "3"])
    with pytest.raises(SystemExit):
        main(argv + ["--no-such-flag"])
    capsys.readouterr()
    assert run(capsys, argv) == first


def test_group_files_match_named_systems():
    """groups/*.json describe the named systems of coxhecke.verify: the same
    generators in the same order and the same commuting pairs."""
    table = named_systems()
    assert sorted(p.stem for p in GROUPS.glob("*.json")) == sorted(table)
    for name, want in table.items():
        got = load_system(GROUPS / f"{name}.json")
        assert got.names == want.names, name
        for i in range(want.n):
            for j in range(want.n):
                assert got.commutes(i, j) == want.commutes(i, j), name
    assert named_systems()["free3"] is not table["free3"]


def test_growth_json(capsys):
    code, out, _ = run(capsys, ["growth", "--group", Z2SQ_Z2,
                                "--format", "json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == 1
    assert doc["numerator"] == [1, 2, 1]
    assert doc["denominator"] == [1, -1, -1]
    assert doc["coefficients"][:5] == [1, 3, 5, 8, 13]


def test_growth_rho_classify_on_62_commuting_generators(capsys, group_file):
    """Z2^62, the largest group the constructor accepts, has 2^62 cliques:
    the series is counted without visiting them."""
    names = [f"g{i}" for i in range(62)]
    pairs = [[a, b] for i, a in enumerate(names) for b in names[i + 1:]]
    path = group_file(json.dumps({"generators": names,
                                  "commuting_pairs": pairs}))
    code, out, _ = run(capsys, ["growth", "--group", path, "--format", "json"])
    assert code == 0
    assert json.loads(out)["numerator"] == [math.comb(62, k)
                                            for k in range(63)]
    for argv in (["rho"], ["classify", "--q", "1/2"]):
        code, _, _ = run(capsys, argv + ["--group", path])
        assert code == 0


def test_rho(capsys):
    code, out, _ = run(capsys, ["rho", "--group", PENTAGON])
    assert code == 0
    assert out.startswith("rho = 0.381966011250")


def test_rho_reducible_pinned(capsys, group_file):
    """Overall and per-component radii of a reducible system: free3, a
    Z2^2 * Z2 and two central Z2 factors.  Stdout recorded before the
    overall rho and the CLI report shared one per-component helper."""
    path = group_file(json.dumps({
        "generators": ["a", "b", "c", "d", "e1", "f", "g", "h"],
        "commuting_pairs": [[x, y] for x in "abc" for y in ("d", "e1", "f",
                                                            "g", "h")]
        + [["d", y] for y in ("e1", "f", "g", "h")]
        + [["e1", "h"], ["f", "h"], ["g", "h"], ["f", "g"]]}))
    code, out, _ = run(capsys, ["rho", "--group", path])
    assert code == 0 and out == (
        "rho = 0.500000000000\n"
        "  component {a,b,c}: 0.500000000000\n"
        "  component {d}: inf\n"
        "  component {e1,f,g}: 0.618033988750\n"
        "  component {h}: inf\n")
    code, out, _ = run(capsys, ["rho", "--group", path, "--format", "json"])
    assert code == 0 and out == (
        '{"command": "rho", "components": {"a,b,c": 0.49999999999962746, '
        '"d": null, "e1,f,g": 0.6180339887496084, "h": null}, '
        '"rho": 0.49999999999962746, "schema": 1}\n')


def test_classify_text_and_json(capsys):
    path = FREE3
    code, out, _ = run(capsys, ["classify", "--group", path, "--q", "1/4"])
    assert code == 0
    assert "factor_plus_C" in out and "center_dimension = 2" in out
    code, out, _ = run(capsys, ["classify", "--group", path, "--q", "1/4",
                                "--format", "json"])
    doc = json.loads(out)
    assert doc["classification"] == "factor_plus_C"
    assert doc["center_dimension"] == 2


def test_classify_bad_q(capsys):
    code, _, err = run(capsys, ["classify", "--group", FREE3,
                                "--q", "-1"])
    assert code == 2 and "positive" in err


def test_gamma(capsys, tmp_path):
    edges = tmp_path / "edges.txt"
    code, out, _ = run(capsys, ["gamma", "--group", Z2SQ_Z2,
                                "--radius", "5", "--edges-out", str(edges)])
    assert code == 0
    assert "pass" in out
    lines = edges.read_text().strip().splitlines()
    assert lines and all(len(line.split(" ")) == 2 for line in lines)


def test_gamma_rejects_dihedral(capsys, group_file):
    code, _, err = run(capsys, ["gamma", "--group",
                                group_file('{"generators": ["s", "t"]}'),
                                "--radius", "4"])
    assert code == 2 and "3 generators" in err
    # the domain is checked before the ball is built, whatever its size
    code, _, err = run(capsys, ["gamma", "--group",
                                group_file('{"generators": ["s", "t"]}'),
                                "--radius", "50", "--max-ball", "20"])
    assert code == 2 and "3 generators" in err
    code, _, err = run(capsys, ["gamma", "--group", group_file(
        '{"generators": ["a", "b", "c", "d"], "commuting_pairs": '
        '[["a", "c"], ["a", "d"], ["b", "c"], ["b", "d"]]}'),
        "--radius", "5", "--max-ball", "10"])
    assert code == 2 and "irreducible" in err


def test_zeta_check(capsys):
    code, out, _ = run(capsys, ["zeta-check", "--group", FREE3,
                                "--q", "1/4", "--radius", "8"])
    assert code == 0
    assert "projection residual" in out
    code, _, err = run(capsys, ["zeta-check", "--group", FREE3,
                                "--q", "3/4", "--radius", "6"])
    assert code == 2 and "rho" in err


def test_dykema(capsys):
    code, out, _ = run(capsys, ["dykema", "--ranks", "2,1", "--q", "3"])
    assert code == 0
    assert "weight 5/16" in out and "agree" in out
    code, out, _ = run(capsys, ["dykema", "--ranks", "1,1,1", "--q", "3",
                                "--format", "json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["closed_form_condition"] is True
    assert "atoms" not in doc
    code, _, err = run(capsys, ["dykema", "--ranks", "2,x", "--q", "1"])
    assert code == 2


def test_dykema_decomposes_once_without_measures(capsys, monkeypatch):
    """The atoms printed are those of the cross-validation's decomposition,
    made once, and it builds no factor measure: it reads the masses
    q^r / (q+1)^k directly."""
    from coxhecke import freeprod
    calls = []
    decompose = freeprod.dykema_decompose

    def counted(spec, q):
        calls.append(spec.ranks)
        return decompose(spec, q)

    def no_measure(k, q):
        raise AssertionError("mu_k called")

    monkeypatch.setattr(freeprod, "dykema_decompose", counted)
    monkeypatch.setattr(freeprod, "mu_k", no_measure)
    code, out, _ = run(capsys, ["dykema", "--ranks", "2,1", "--q", "3"])
    assert code == 0 and "weight 5/16" in out
    assert calls == [(2, 1)]


@pytest.mark.parametrize("ranks", ["40,1", "19,1"])
def test_dykema_rank_cap(capsys, ranks):
    """Ranks whose atoms or atom pairs exceed the cap fail fast with exit 1."""
    start = time.perf_counter()
    code, _, err = run(capsys, ["dykema", "--ranks", ranks, "--q", "3"])
    assert time.perf_counter() - start < 1.0
    assert code == 1
    assert "DEFAULT_MAX_BALL = 1000000" in err


def test_hecke_expression(capsys):
    code, out, _ = run(capsys, ["hecke", "--group", FREE3,
                                "--expr", "T(s)*T(s)"])
    assert code == 0
    assert out.strip() == "(1)*T(e) + (-u^-1 + u)*T(s)"
    code, _, err = run(capsys, ["hecke", "--group", FREE3,
                                "--expr", "T(s) +"])
    assert code == 2


@pytest.mark.parametrize("expr", ["1/0", "3/0*T(s)"])
def test_hecke_zero_denominator(capsys, expr):
    code, out, err = run(capsys, ["hecke", "--group", FREE3, "--expr", expr])
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "column 1" in err


def test_reports_byte_identical(capsys):
    path = PENTAGON
    argv = ["classify", "--group", path, "--q", "385/1000",
            "--format", "json"]
    _, out1, _ = run(capsys, argv)
    _, out2, _ = run(capsys, argv)
    assert out1 == out2
    argv = ["zeta-check", "--group", path, "--q", "1/5", "--radius", "6",
            "--format", "json"]
    _, out1, _ = run(capsys, argv)
    _, out2, _ = run(capsys, argv)
    assert out1 == out2


# zeta-check stdout, byte for byte (floats included)
ZETA_CHECK_PINS = {
    ("free3", "1/5"): (
        '{"certified_radius": 4, "command": "zeta-check", "commutator_max": '
        '2.7350958732519452e-17, "partial_norm_sq": 1.9744, "passed": true, '
        '"projection_bound": 0.0128, "projection_residual": '
        '0.01263616, "q": "1/5", "radius": 8, "rayleigh_estimate": '
        '1.9744, "scaling_identity_exact": true, "schema": 1, '
        '"w_q": 2.0}\n'),
    ("z2sq-z2", "1/5"): (
        '{"certified_radius": 4, "command": "zeta-check", "commutator_max": '
        '3.801891686515046e-17, "partial_norm_sq": 1.8848, "passed": true, '
        '"projection_bound": 0.005244444444444445, "projection_residual": '
        '0.0052169402469135805, "q": "1/5", "radius": 8, "rayleigh_estimate": '
        '1.8848, "scaling_identity_exact": true, "schema": 1, '
        '"w_q": 1.894736842105263}\n'),
    ("pentagon", "1/8"): (
        '{"certified_radius": 4, "command": "zeta-check", "commutator_max": '
        '1.2097585258443477e-16, "partial_norm_sq": 1.963134765625, '
        '"passed": true, "projection_bound": 0.006314501350308642, '
        '"projection_residual": 0.006274628423005592, "q": "1/8", '
        '"radius": 8, "rayleigh_estimate": 1.963134765625, '
        '"scaling_identity_exact": true, "schema": 1, '
        '"w_q": 1.975609756097561}\n'),
}


@pytest.mark.parametrize("name,q", sorted(ZETA_CHECK_PINS))
def test_zeta_check_pinned(capsys, name, q):
    code, out, _ = run(capsys, ["zeta-check", "--group",
                                str(GROUPS / f"{name}.json"), "--q", q,
                                "--radius", "8", "--format", "json"])
    assert code == 0
    assert out == ZETA_CHECK_PINS[name, q]


# SHA-256 of zeta-check stdout at the radii the certificate is used at
ZETA_CHECK_DEEP_PINS = {
    ("pentagon", "19/100", 12):
        "711e0a46ec886b9f9ee0e0e392e98336a268716ea6c964a90f8e495e47c6b9ef",
    ("free3", "1/5", 13):
        "c8fdec16af3392e4fca7cc80b1f6bebc66c8131e8ec5a70355a6bd77c7dda053",
}


@pytest.mark.parametrize("name,q,radius", sorted(ZETA_CHECK_DEEP_PINS))
def test_zeta_check_pinned_deep(capsys, name, q, radius):
    code, out, _ = run(capsys, ["zeta-check", "--group",
                                str(GROUPS / f"{name}.json"), "--q", q,
                                "--radius", str(radius), "--format", "json"])
    assert code == 0
    assert (hashlib.sha256(out.encode()).hexdigest()
            == ZETA_CHECK_DEEP_PINS[name, q, radius])


# SHA-256 of zeta-check stdout at the shapes of the certify benchmark
ZETA_CHECK_CERTIFY_PINS = {
    ("pentagon", "19/100", 11):
        "9ee9514696b0082e1e84bbb7781c3f2a2f3a968472076c169575dce3e4ca219a",
    ("pentagon", "19/100", 13):
        "0d0a069acb0cd04da8d4031154385b7f975f181a5c01beaf9a38342eb1cf70cb",
    ("z2sq-z2", "1/5", 13):
        "0c2680dfa5e5bf81a58bb3b23e9db99b45eb6e12463137b52db037d91c123e05",
}


@pytest.mark.parametrize("name,q,radius", sorted(ZETA_CHECK_CERTIFY_PINS))
def test_zeta_check_pinned_certify_shapes(capsys, name, q, radius):
    code, out, _ = run(capsys, ["zeta-check", "--group",
                                str(GROUPS / f"{name}.json"), "--q", q,
                                "--radius", str(radius), "--format", "json"])
    assert code == 0
    assert (hashlib.sha256(out.encode()).hexdigest()
            == ZETA_CHECK_CERTIFY_PINS[name, q, radius])


# gamma stdout byte for byte, and the SHA-256 and line count of --edges-out
GAMMA_PINS = {
    ("free3", 5, 2): (
        '{"big_component_size": 93, "command": "gamma", "components": 2, '
        '"edges": 180, "exceptional": ["e"], "passed": true, "radius": 5, '
        '"schema": 1, "slack": 2, "vertices": 94}\n',
        "b9e2ad6a9e59706ecd2c9290802472ecb54a70c415388c974cf8b48c24f8d89a",
        180),
    ("z2sq-z2", 7, 2): (
        '{"big_component_size": 136, "command": "gamma", "components": 5, '
        '"edges": 286, "exceptional": ["e", "s"], "passed": true, '
        '"radius": 7, "schema": 1, "slack": 2, "vertices": 140}\n',
        "9898ba1493d71f92940be99cf7b854a75b30ecff83b69c951266a24240170461",
        286),
    ("pentagon", 5, 2): (
        '{"big_component_size": 440, "command": "gamma", "components": 2, '
        '"edges": 1160, "exceptional": ["e"], "passed": true, "radius": 5, '
        '"schema": 1, "slack": 2, "vertices": 441}\n',
        "f7b864719f4c608490a64e27a146b0daca8227157d8cbe7d4b74971e8518db34",
        1160),
    ("pentagon", 4, 0): (
        '{"big_component_size": 165, "command": "gamma", "components": 2, '
        '"edges": 410, "exceptional": ["e"], "passed": true, "radius": 4, '
        '"schema": 1, "slack": 0, "vertices": 166}\n',
        "a868de216787334b585ecd9d3c253f65746d5a5b6dfe28207850bf775fe587db",
        410),
}


@pytest.mark.parametrize("name,radius,slack", sorted(GAMMA_PINS))
def test_gamma_pinned(capsys, tmp_path, name, radius, slack):
    edges = tmp_path / "edges.txt"
    code, out, _ = run(capsys, ["gamma", "--group",
                                str(GROUPS / f"{name}.json"),
                                "--radius", str(radius), "--slack", str(slack),
                                "--format", "json", "--edges-out", str(edges)])
    assert code == 0
    stdout, digest, lines = GAMMA_PINS[name, radius, slack]
    assert out == stdout
    data = edges.read_bytes()
    assert data.count(b"\n") == lines
    assert hashlib.sha256(data).hexdigest() == digest


def test_gamma_pinned_past_int32_keys(capsys, tmp_path):
    """Pentagon ball(10) has 54,726 vertices, so its flat edge keys
    (smaller row * size + larger row) pass 2^31 while the ball table is
    int32."""
    edges = tmp_path / "edges.txt"
    code, out, _ = run(capsys, ["gamma", "--group", PENTAGON,
                                "--radius", "10", "--format", "json",
                                "--edges-out", str(edges)])
    assert code == 0
    assert json.loads(out)["vertices"] == 54726
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "b08cc38a21734cd29d6eba127fd293ef29da1695007b86a1090c4a82d6ba0d23")
    assert hashlib.sha256(edges.read_bytes()).hexdigest() == (
        "fdb7805249eb12b7122a064493b7ae7f572091296c2caf6e828715d1009cd4f9")


def test_gamma_radius_zero(capsys):
    """ball(0) holds only e: the free-factor generator s of z2sq-z2 lies
    outside it, stays listed as exceptional and is not looked up."""
    code, out, err = run(capsys, ["gamma", "--group",
                                  str(GROUPS / "z2sq-z2.json"),
                                  "--radius", "0", "--format", "json"])
    assert code == 0 and err == ""
    doc = json.loads(out)
    assert doc["passed"] is True
    assert doc["exceptional"] == ["e", "s"]
    assert (doc["vertices"], doc["edges"], doc["components"]) == (1, 0, 1)
    code, out, _ = run(capsys, ["gamma", "--group",
                                str(GROUPS / "z2sq-z2.json"), "--radius", "0"])
    assert code == 0 and "pass: radius 0" in out


def test_gamma_rejects_negative_slack(capsys):
    code, out, err = run(capsys, ["gamma", "--group", FREE3, "--radius", "4",
                                  "--slack", "-1"])
    assert code == 2 and out == ""
    assert "slack must be nonnegative" in err


def test_gamma_builds_no_element_per_vertex(capsys, monkeypatch, tmp_path):
    """gamma counts its vertices by their labels and writes the edge list
    from the table's words: the only elements it builds are the expected
    isolated ones."""
    built = []
    init = Element.__init__
    monkeypatch.setattr(Element, "__init__", lambda self, *args:
                        built.append(args) or init(self, *args))
    edges = tmp_path / "edges.txt"
    for path in (PENTAGON, Z2SQ_Z2, FREE3):
        built.clear()
        code, out, _ = run(capsys, ["gamma", "--group", path, "--radius", "6",
                                    "--format", "json",
                                    "--edges-out", str(edges)])
        doc = json.loads(out)
        assert code == 0 and doc["vertices"] > 50
        assert len(built) <= len(doc["exceptional"])


# hecke stdout byte for byte, text and JSON: a rational multi-term product,
# star and j, and a sum that cancels to zero
HECKE_EXPRS = {
    "rational": ("pentagon",
        "(2/3*T(p r) - 1/2*T(q s t) + T(e))*(3/4*T(r s) + 5/7*T(t p q) - "
        "T(q))"),
    "star-j": ("z2sq-z2",
        "star(T(s t u) + 2*T(u s))*j(1/3*T(t s) - T(s u s))*T(s u t s)"),
    "cancel": ("pentagon",
        "(T(p q) - 2*T(r))*(T(q p) + T(r)) - T(p q)*T(q p) - T(p q)*T(r) "
        "+ 2*T(r)*T(q p) + 2*T(r)*T(r)"),
}

HECKE_PINS = {
    ("rational", "text"): (
        "(-1)*T(q) + (1/2)*T(p.s) + (3/4)*T(r.s) + (-2/3)*T(p.q.r) + "
        "(-1/2*u^-1 + 1/2*u)*T(p.r.s) + (5/7)*T(p.t.q) + (-3/8)*T(q.t.r) "
        "+ (-5/14)*T(q.s.p.q) + (1/2)*T(q.s.t.q) + (3/8*u^-1 - "
        "3/8*u)*T(q.s.t.r) + (10/21)*T(p.r.p.t.q) + (5/14*u^-1 - "
        "5/14*u)*T(q.s.p.t.q)\n"),
    ("rational", "json"): (
        '{"command": "hecke", "expr": "(2/3*T(p r) - 1/2*T(q s t) + '
        'T(e))*(3/4*T(r s) + 5/7*T(t p q) - T(q))", "schema": 1, '
        '"terms": [{"coefficient": "-1", "word": "q"}, {"coefficient": '
        '"1/2", "word": "p.s"}, {"coefficient": "3/4", "word": "r.s"}, '
        '{"coefficient": "-2/3", "word": "p.q.r"}, {"coefficient": '
        '"-1/2*u^-1 + 1/2*u", "word": "p.r.s"}, {"coefficient": "5/7", '
        '"word": "p.t.q"}, {"coefficient": "-3/8", "word": "q.t.r"}, '
        '{"coefficient": "-5/14", "word": "q.s.p.q"}, {"coefficient": '
        '"1/2", "word": "q.s.t.q"}, {"coefficient": "3/8*u^-1 - 3/8*u", '
        '"word": "q.s.t.r"}, {"coefficient": "10/21", "word": '
        '"p.r.p.t.q"}, {"coefficient": "5/14*u^-1 - 5/14*u", "word": '
        '"q.s.p.t.q"}]}\n'),
    ("star-j", "text"): (
        "(2/3)*T(e) + (-5/3*u^-1 + 5/3*u)*T(s) + (u^-2 - 2 + u^2)*T(t.s) "
        "+ (u^-2 - 1 + u^2)*T(u.s) + (-2/3*u^-1 + 2/3*u)*T(s.t.s) + "
        "(-2/3*u^-1 + 2/3*u)*T(s.u.s) + (-u^-3 + 2*u^-1 - 2*u + "
        "u^3)*T(t.u.s) + (2/3*u^-2 - 4/3 + 2/3*u^2)*T(s.t.u.s) + "
        "(2)*T(s.u.s.t.s) + (-u^-1 + u)*T(t.s.t.u.s) + (-u^-1 + "
        "u)*T(t.u.s.t.s) + (1/3)*T(t.u.s.u.s) + (-2*u^-1 + "
        "2*u)*T(s.u.s.t.u.s) + (2*u^-2 - 1/3*u^-1 - 4 + 1/3*u + "
        "2*u^2)*T(t.u.s.t.u.s) + (-2/3*u^-1 + 2/3*u)*T(s.t.u.s.t.u.s) + "
        "(-2*u^-1 + 2*u)*T(s.u.s.u.s.t.u.s) + (-1/3*u^-1 + "
        "1/3*u)*T(t.u.s.t.s.t.u.s) + (u^-2 - 2 + u^2)*T(t.u.s.u.s.t.u.s)\n"),
    ("star-j", "json"): (
        '{"command": "hecke", "expr": "star(T(s t u) + 2*T(u '
        's))*j(1/3*T(t s) - T(s u s))*T(s u t s)", "schema": 1, "terms": '
        '[{"coefficient": "2/3", "word": "e"}, {"coefficient": '
        '"-5/3*u^-1 + 5/3*u", "word": "s"}, {"coefficient": "u^-2 - 2 + '
        'u^2", "word": "t.s"}, {"coefficient": "u^-2 - 1 + u^2", "word": '
        '"u.s"}, {"coefficient": "-2/3*u^-1 + 2/3*u", "word": "s.t.s"}, '
        '{"coefficient": "-2/3*u^-1 + 2/3*u", "word": "s.u.s"}, '
        '{"coefficient": "-u^-3 + 2*u^-1 - 2*u + u^3", "word": "t.u.s"}, '
        '{"coefficient": "2/3*u^-2 - 4/3 + 2/3*u^2", "word": "s.t.u.s"}, '
        '{"coefficient": "2", "word": "s.u.s.t.s"}, {"coefficient": '
        '"-u^-1 + u", "word": "t.s.t.u.s"}, {"coefficient": "-u^-1 + u", '
        '"word": "t.u.s.t.s"}, {"coefficient": "1/3", "word": '
        '"t.u.s.u.s"}, {"coefficient": "-2*u^-1 + 2*u", "word": '
        '"s.u.s.t.u.s"}, {"coefficient": "2*u^-2 - 1/3*u^-1 - 4 + 1/3*u '
        '+ 2*u^2", "word": "t.u.s.t.u.s"}, {"coefficient": "-2/3*u^-1 + '
        '2/3*u", "word": "s.t.u.s.t.u.s"}, {"coefficient": "-2*u^-1 + '
        '2*u", "word": "s.u.s.u.s.t.u.s"}, {"coefficient": "-1/3*u^-1 + '
        '1/3*u", "word": "t.u.s.t.s.t.u.s"}, {"coefficient": "u^-2 - 2 + '
        'u^2", "word": "t.u.s.u.s.t.u.s"}]}\n'),
    ("cancel", "text"): (
        "0\n"),
    ("cancel", "json"): (
        '{"command": "hecke", "expr": "(T(p q) - 2*T(r))*(T(q p) + T(r)) '
        '- T(p q)*T(q p) - T(p q)*T(r) + 2*T(r)*T(q p) + 2*T(r)*T(r)", '
        '"schema": 1, "terms": []}\n'),
}


@pytest.mark.parametrize("name,fmt", sorted(HECKE_PINS))
def test_hecke_pinned(capsys, name, fmt):
    group, expr = HECKE_EXPRS[name]
    code, out, _ = run(capsys, ["hecke", "--group",
                                str(GROUPS / f"{group}.json"),
                                "--expr", expr, "--format", fmt])
    assert code == 0
    assert out == HECKE_PINS[name, fmt]


VERIFY_SEED_0_PIN = (
    "PASS  word-conditions      4836 checks\n"
    "PASS  normal-forms         1456 words\n"
    "PASS  length-additivity    33212 checks\n"
    "PASS  hecke                60 random triples on z2sq-z2, 12 on each "
    "of 5 random graphs\n"
    "PASS  growth-rho           3 systems and 20 random graphs, coefficients "
    "to 12, sign change across 19 rho brackets\n"
    "PASS  cosets-graph         3 systems at radius 5, support rule on 20 "
    "random graphs at radius 3\n"
    "PASS  radial-symbol        3 systems at radius 6\n"
    "PASS  free-products        3 specs x 5 parameters, freeness to length 5\n"
    "all suites passed\n"
)


def test_verify_pinned(capsys):
    """All eight suites at seed 0, byte for byte."""
    code, out, _ = run(capsys, ["verify", "--seed", "0"])
    assert code == 0
    assert out == VERIFY_SEED_0_PIN


#: SHA-256 of ``verify`` stdout at seeds 1 and 2, recorded on the parent of
#: the change that holds exact Hecke elements as integer numerators.
VERIFY_SEED_SHA256 = {
    1: "4a817b4df576068845800122329e2affa1eb6528bb34286167c5e6251385ef91",
    2: "dd9141bacbb9d89b1bf836ab629707ad7697183964fdaa619633848ac3d0230f",
}


@pytest.mark.parametrize("seed", sorted(VERIFY_SEED_SHA256))
def test_verify_pinned_other_seeds(capsys, seed):
    code, out, _ = run(capsys, ["verify", "--seed", str(seed)])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_SEED_SHA256[seed]


def test_growth_rejects_negative_radius(capsys):
    path = FREE3
    for command in ("growth", "ball"):
        code, out, err = run(capsys, [command, "--group", path,
                                      "--radius", "-5"])
        assert code == 2 and out == ""
        assert "radius must be nonnegative" in err


# -- inputs that once ended in a traceback or unbounded memory ----------------------

SRC = str(Path(__file__).resolve().parent.parent / "src")


def run_subprocess(argv, tmp_path, **env_vars):
    """One ``python -m coxhecke.cli`` process, with ``env_vars`` added to
    its environment: exit code, stdout, stderr, wall seconds and peak
    resident memory in MB (Linux reports KB)."""
    env = dict(os.environ, **env_vars)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    out_path, err_path = tmp_path / "stdout", tmp_path / "stderr"
    with open(out_path, "w") as out, open(err_path, "w") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "coxhecke.cli", *argv],
                                stdout=out, stderr=err, env=env)
        killer = threading.Timer(60, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        elapsed = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return (proc.returncode, out_path.read_text(), err_path.read_text(),
            elapsed, usage.ru_maxrss / 1024)


def _z2_power(tmp_path, n):
    gens = [f"g{i}" for i in range(n)]
    path = tmp_path / f"z2_{n}.json"
    path.write_text(json.dumps({"generators": gens, "commuting_pairs": [
        [a, b] for i, a in enumerate(gens) for b in gens[i + 1:]]}))
    return str(path)


LONGEST_Z2_18 = " ".join(f"g{i}" for i in range(18))
DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()


@pytest.mark.parametrize("argv, code, message", [
    (["hecke", "--group", "Z2^18",
      "--expr", f"T({LONGEST_Z2_18})*T({LONGEST_Z2_18})"], 1,
     "more than the cap of 100000"),
    (["growth", "--group", PENTAGON, "--radius", "10500"], 1,
     "degree 10500 pass Python's int-to-str limit"),
    (["hecke", "--group", PENTAGON, "--expr", "1" + "0" * 5000 + "*T(p)"], 2,
     "digit limit (line 1, column 1)"),
    (["hecke", "--group", PENTAGON, "--expr", "(" * 340 + "T(p)" + ")" * 340],
     2, "nest deeper than 200 levels (line 1, column 201)"),
    (["zeta-check", "--group", PENTAGON, "--q", "1e-400"], 2,
     "q is 0.0 as a float"),
    (["gamma", "--group", PENTAGON, "--radius", "3",
      "--edges-out", "/nonexistent/dir/x"], 2, "cannot write edge list"),
], ids=["hecke-cap", "growth-digits", "hecke-literal", "hecke-depth",
        "zeta-tiny-q", "gamma-edges-out"])
def test_input_ends_in_named_error(tmp_path, argv, code, message):
    if "limit" in message and not DIGIT_LIMIT:
        pytest.skip("this interpreter converts ints of any length")
    argv = [_z2_power(tmp_path, 18) if a == "Z2^18" else a for a in argv]
    got, out, err, elapsed, peak_mb = run_subprocess(argv, tmp_path)
    assert (got, out) == (code, "")
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert "Traceback" not in err and message in err
    assert elapsed < 5 and peak_mb < 500


def test_growth_stops_at_the_first_coefficient_past_the_digit_limit(
        capsys, monkeypatch):
    """``growth --radius 1000000`` reads the pentagon's coefficients only up
    to the first one past the limit, not to the requested degree."""
    if not DIGIT_LIMIT:
        pytest.skip("this interpreter converts ints of any length")
    read = []
    coefficients = RationalSeries.coefficients

    def counted(self):
        for c in coefficients(self):
            read.append(c)
            yield c

    monkeypatch.setattr(RationalSeries, "coefficients", counted)
    code, out, err = run(capsys, ["growth", "--group", PENTAGON,
                                  "--radius", "1000000"])
    assert (code, out) == (1, "")
    assert "degree 1000000 pass Python's int-to-str limit" in err
    assert read[-1] >= 10 ** DIGIT_LIMIT > max(read[:-1])  # 10,288 at 4,300


ZEROS_4000 = "1" + "0" * 4000


@pytest.mark.parametrize("argv", [
    ["hecke", "--group", PENTAGON, "--expr", f"{ZEROS_4000}*{ZEROS_4000}*T(p)"],
    ["classify", "--group", PENTAGON, "--q", "1e-5000"],
    ["dykema", "--ranks", "2,1", "--q", "1e-5000"],
    ["dykema", "--ranks", "18,1", "--q", "1e-300"],
], ids=["hecke-product", "classify-q", "dykema-q", "dykema-masses"])
def test_output_past_digit_limit_is_named(tmp_path, argv):
    """Each input is accepted, but a number of its report has more digits
    than Python converts to a string (the masses, for ranks 18,1)."""
    if not DIGIT_LIMIT:
        pytest.skip("this interpreter converts ints of any length")
    for fmt in ("text", "json"):
        got, out, err, _, _ = run_subprocess([*argv, "--format", fmt],
                                             tmp_path)
        assert (got, out) == (1, "")
        assert err == ("error: an output number passes Python's int-to-str "
                       f"digit limit of {DIGIT_LIMIT} digits\n")


def _zeta_check_pin(name, q, radius):
    """The pinned stdout of a zeta-check shape, or its SHA-256."""
    if radius == 8:
        return ZETA_CHECK_PINS[name, q]
    return {**ZETA_CHECK_DEEP_PINS, **ZETA_CHECK_CERTIFY_PINS}[name, q, radius]


@pytest.mark.parametrize("name,q,radius", sorted(
    [(name, q, 8) for name, q in ZETA_CHECK_PINS]
    + list(ZETA_CHECK_DEEP_PINS) + list(ZETA_CHECK_CERTIFY_PINS)))
def test_zeta_check_fields_do_not_depend_on_blas_threads(tmp_path, name, q,
                                                         radius):
    """The whole report, residual included, reads the same bytes with one,
    two and four OpenBLAS threads, and those are the pinned bytes."""
    argv = ["zeta-check", "--group", str(GROUPS / f"{name}.json"), "--q", q,
            "--radius", str(radius), "--format", "json"]
    pin = _zeta_check_pin(name, q, radius)
    for threads in ("1", "2", "4"):
        got, out, err, _, _ = run_subprocess(argv, tmp_path,
                                             OPENBLAS_NUM_THREADS=threads)
        assert (got, err) == (0, "")
        assert pin in (out, hashlib.sha256(out.encode()).hexdigest())


@pytest.mark.parametrize("name,q,radius", [
    ("pentagon", "1/100", 8), ("free3", "1/35", 10),
    ("pentagon", "1/1000000", 4)])
def test_zeta_check_passes_where_float_residual_topped_bound(tmp_path, name,
                                                             q, radius):
    """Valid certificates that a float test of the residual against the
    bound once failed: residual and bound agreed to 6-8 digits (at q = 1e-6
    the float bound read 0.0)."""
    got, out, err, _, _ = run_subprocess(
        ["zeta-check", "--group", str(GROUPS / f"{name}.json"), "--q", q,
         "--radius", str(radius), "--format", "json"], tmp_path)
    report = json.loads(out)
    assert (got, err, report["passed"]) == (0, "", True)
    assert 0 < report["projection_residual"] < report["projection_bound"]


def test_zeta_check_passes_on_q_sweep(capsys):
    """Every q = 1/k below rho, k = 3..59 and six larger k, on the three
    named systems at radius 4 to 10: passed, and the printed residual is
    no greater than the printed bound."""
    runs = 0
    for name, system in named_systems().items():
        info = rho_info(system)
        for k in [*range(3, 60), 100, 200, 500, 1000, 10**4, 10**6]:
            if not info.q_below_rho(Fraction(1, k)):
                continue
            for radius in (4, 6, 8, 10):
                code, out, _ = run(capsys, [
                    "zeta-check", "--group", str(GROUPS / f"{name}.json"),
                    "--q", f"1/{k}", "--radius", str(radius),
                    "--format", "json"])
                report = json.loads(out)
                assert (code, report["passed"]) == (0, True), (name, k, radius)
                assert (report["projection_residual"]
                        <= report["projection_bound"])
                runs += 1
    assert runs == 756
