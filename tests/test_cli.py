"""Command-line interface: dispatch, formats, exit codes, determinism."""

import json
from pathlib import Path

import pytest

from coxhecke.cli import main, parse_q
from fractions import Fraction


FREE3 = '{"generators": ["s", "t", "u"]}'
Z2SQ_Z2 = '{"generators": ["s", "t", "u"], "commuting_pairs": [["t", "u"]]}'
PENTAGON = ('{"generators": ["p", "q", "r", "s", "t"], "commuting_pairs": '
            '[["p","q"],["q","r"],["r","s"],["s","t"],["t","p"]]}')


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


def test_info_text(capsys, group_file):
    code, out, _ = run(capsys, ["info", "--group", group_file(PENTAGON)])
    assert code == 0
    assert "irreducible: True" in out
    assert "p q r s t" in out


def test_info_detects_free_factor_shape(capsys, group_file):
    code, out, _ = run(capsys, ["info", "--group", group_file(Z2SQ_Z2)])
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


def test_missing_group_file(capsys):
    code, _, err = run(capsys, ["info", "--group", "/nonexistent/g.json"])
    assert code == 2


def test_ball(capsys, group_file):
    code, out, _ = run(capsys, ["ball", "--group", group_file(FREE3),
                                "--radius", "2"])
    assert code == 0
    assert "10 elements" in out
    assert "s.t" in out


def test_growth_json(capsys, group_file):
    code, out, _ = run(capsys, ["growth", "--group", group_file(Z2SQ_Z2),
                                "--format", "json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == 1
    assert doc["numerator"] == [1, 2, 1]
    assert doc["denominator"] == [1, -1, -1]
    assert doc["coefficients"][:5] == [1, 3, 5, 8, 13]


def test_rho(capsys, group_file):
    code, out, _ = run(capsys, ["rho", "--group", group_file(PENTAGON)])
    assert code == 0
    assert out.startswith("rho = 0.381966011250")


def test_classify_text_and_json(capsys, group_file):
    path = group_file(FREE3)
    code, out, _ = run(capsys, ["classify", "--group", path, "--q", "1/4"])
    assert code == 0
    assert "factor_plus_C" in out and "center_dimension = 2" in out
    code, out, _ = run(capsys, ["classify", "--group", path, "--q", "1/4",
                                "--format", "json"])
    doc = json.loads(out)
    assert doc["classification"] == "factor_plus_C"
    assert doc["center_dimension"] == 2


def test_classify_bad_q(capsys, group_file):
    code, _, err = run(capsys, ["classify", "--group", group_file(FREE3),
                                "--q", "-1"])
    assert code == 2 and "positive" in err


def test_gamma(capsys, group_file, tmp_path):
    edges = tmp_path / "edges.txt"
    code, out, _ = run(capsys, ["gamma", "--group", group_file(Z2SQ_Z2),
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


def test_zeta_check(capsys, group_file):
    code, out, _ = run(capsys, ["zeta-check", "--group", group_file(FREE3),
                                "--q", "1/4", "--radius", "8"])
    assert code == 0
    assert "projection residual" in out
    code, _, err = run(capsys, ["zeta-check", "--group", group_file(FREE3),
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


def test_hecke_expression(capsys, group_file):
    code, out, _ = run(capsys, ["hecke", "--group", group_file(FREE3),
                                "--expr", "T(s)*T(s)"])
    assert code == 0
    assert out.strip() == "(1)*T(e) + (-u^-1 + u)*T(s)"
    code, _, err = run(capsys, ["hecke", "--group", group_file(FREE3),
                                "--expr", "T(s) +"])
    assert code == 2


def test_reports_byte_identical(capsys, group_file):
    path = group_file(PENTAGON)
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


GROUPS = Path(__file__).resolve().parent.parent / "groups"

# zeta-check stdout, byte for byte (floats included)
ZETA_CHECK_PINS = {
    ("free3", "1/5"): (
        '{"certified_radius": 4, "command": "zeta-check", "commutator_max": '
        '3.0739759555446695e-17, "partial_norm_sq": 1.9744, "passed": true, '
        '"projection_bound": 0.012800000000000034, "projection_residual": '
        '0.012636160000000233, "q": "1/5", "radius": 8, "rayleigh_estimate": '
        '1.9743999999999982, "scaling_identity_exact": true, "schema": 1, '
        '"w_q": 2.0}\n'),
    ("z2sq-z2", "1/5"): (
        '{"certified_radius": 4, "command": "zeta-check", "commutator_max": '
        '6.559606617459334e-17, "partial_norm_sq": 1.8848, "passed": true, '
        '"projection_bound": 0.005244444444444373, "projection_residual": '
        '0.0052169402469129855, "q": "1/5", "radius": 8, "rayleigh_estimate": '
        '1.8847999999999983, "scaling_identity_exact": true, "schema": 1, '
        '"w_q": 1.894736842105263}\n'),
    ("pentagon", "1/8"): (
        '{"certified_radius": 4, "command": "zeta-check", "commutator_max": '
        '1.2312597404858716e-16, "partial_norm_sq": 1.963134765625, '
        '"passed": true, "projection_bound": 0.006314501350308631, '
        '"projection_residual": 0.0062746284230057615, "q": "1/8", '
        '"radius": 8, "rayleigh_estimate": 1.9631347656250009, '
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


def test_growth_rejects_negative_radius(capsys, group_file):
    path = group_file(FREE3)
    for command in ("growth", "ball"):
        code, out, err = run(capsys, [command, "--group", path,
                                      "--radius", "-5"])
        assert code == 2 and out == ""
        assert "radius must be nonnegative" in err
