"""End-to-end tests of the command-line interface, run in-process."""

import dataclasses
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from hyperclass import cli, quadring, specialize
from hyperclass.cli import build_parser, main
from hyperclass.config import parse_config_text
from hyperclass.curve import new_curve
from hyperclass.errors import (ConfigError, InternalInconsistencyError,
                               OrderBoundError)
from hyperclass.jacobian import from_point, jac_smul
from hyperclass.polyarith import IntPoly
from hyperclass.quadring import IdealClass

CURVE = new_curve(IntPoly([-4, 0, 0, 1]))

BASE = """\
# elliptic test curve
f = [-4, 0, 0, 1]
point = (2, 2)
"""


def write_config(tmp_path, text, name="exp.cfg"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def run(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_validate_output(tmp_path, capsys):
    cfg = write_config(tmp_path, BASE)
    code, out, err = run(["validate", "--config", cfg], capsys)
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("curve: ")
    assert "genus: 1" in lines
    assert "negativity_bound: 1" in lines
    assert "discriminant: -432" in lines
    assert "fixed_divisor: 1" in lines
    assert "divisor: [-2,1];[2] valid" in lines


def test_validate_without_divisor(tmp_path, capsys):
    cfg = write_config(tmp_path, "f = [-4, 0, 0, 1]\n")
    code, out, err = run(["validate", "--config", cfg], capsys)
    assert code == 0
    assert "divisor: none" in out.splitlines()


def test_scan_csv_shape(tmp_path, capsys):
    cfg = write_config(tmp_path, BASE)
    code, out, err = run(
        ["scan", "--config", cfg, "--from", "-5", "--to", "-1"], capsys)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == ("n,f_n,S_n,primitive,form_a,form_b2,form_c,"
                        "order_order,order_maximal,h_order,h_maximal,"
                        "error,pairing_status")
    body = [l for l in lines[1:] if not l.startswith("#")]
    footer = [l for l in lines[1:] if l.startswith("#")]
    assert len(body) == 5
    assert body[0] == "-1,-5,1,true,2,2,3,2,2,,,,pairing"
    assert body[1] == "-2,-12,2,false,,,,,,,,,"
    assert body[2].startswith("-3,-31,1,true,5,4,7,3,3")
    assert "# rows = 5" in footer
    assert "# errors = 0" in footer
    assert "# nontrivial = 3" in footer
    assert "# max_order_order = 6" in footer
    assert "# max_order_maximal = 6" in footer
    assert "# max_order_at_n = -5" in footer


def test_scan_is_deterministic(tmp_path, capsys):
    cfg = write_config(tmp_path, BASE + "class_numbers = true\n")
    args = ["scan", "--config", cfg, "--from", "-20"]
    code1, out1, err1 = run(args, capsys)
    code2, out2, err2 = run(args, capsys)
    assert code1 == code2 == 0
    assert out1 == out2
    assert err1 == err2 == ""


def test_scan_json_schema(tmp_path, capsys):
    cfg = write_config(tmp_path, BASE)
    code, out, err = run(
        ["scan", "--config", cfg, "--from", "-1", "--to", "-1",
         "--format", "json"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert set(doc) == {"rows", "summary"}
    assert len(doc["rows"]) == 1
    row = doc["rows"][0]
    # integers are serialised as strings so no consumer rounds them
    assert row["n"] == "-1"
    assert row["f_n"] == "-5"
    assert row["primitive"] is True
    assert row["form_a"] == "2" and row["form_b2"] == "2"
    assert row["order_order"] == "2"
    assert row["error"] is None
    assert row["h_order"] is None
    assert doc["summary"]["rows"] == "1"
    assert doc["summary"]["nontrivial"] == "1"
    assert doc["summary"]["max_order_at_n"] == "-1"


def test_scan_format_from_config_and_flag_override(tmp_path, capsys):
    cfg = write_config(tmp_path, BASE + "format = json\nfrom = -1\nto = -1\n")
    code, out, err = run(["scan", "--config", cfg], capsys)
    assert code == 0
    json.loads(out)  # config default applied
    code, out, err = run(["scan", "--config", cfg, "--format", "csv"], capsys)
    assert code == 0
    assert out.splitlines()[0].startswith("n,f_n,")  # flag wins


def test_scan_range_flag_overrides_config(tmp_path, capsys):
    cfg = write_config(tmp_path, BASE + "from = -1\nto = -1\n")
    code, out, err = run(["scan", "--config", cfg, "--from", "-3"], capsys)
    assert code == 0
    body = [l for l in out.splitlines()[1:] if not l.startswith("#")]
    assert [l.split(",")[0] for l in body] == ["-1", "-2", "-3"]


def test_scan_squarefree_only_flag(tmp_path, capsys):
    cfg = write_config(tmp_path, BASE)
    code, out, err = run(
        ["scan", "--config", cfg, "--from", "-10", "--squarefree-only"],
        capsys)
    assert code == 0
    body = [l for l in out.splitlines()[1:] if not l.startswith("#")]
    assert [l.split(",")[0] for l in body] == ["1", "-1", "-3", "-5",
                                               "-7", "-9"]


GEN2_CONFIG = """\
# genus-2 test curve
f = [-1, 1, 0, 0, 0, 1]
point = (1, 1)
"""


def test_scan_squarefree_only_keeps_unfactored_value(tmp_path, capsys):
    # f(-4103) cannot be factored within a rho budget of 1: a row error,
    # not an abort
    cfg = write_config(tmp_path, GEN2_CONFIG)
    code, out, err = run(
        ["scan", "--config", cfg, "--squarefree-only", "--factor-bound", "1",
         "--from", "-4103", "--to", "-4103"], capsys)
    assert code == 0, err
    body = [l for l in out.splitlines()[1:] if not l.startswith("#")]
    assert len(body) == 1 and body[0].startswith("-4103,")
    assert "FactorizationBoundError" in body[0]


def test_scan_square_part_below_1e18_needs_no_rho(tmp_path, capsys):
    # |f(-3011)| is about 2.5e17: after trial division to its cube root
    # the cofactor's square part is read off by isqrt, so a rho budget of
    # 1 still gives the row, with S = 1
    cfg = write_config(tmp_path, GEN2_CONFIG)
    code, out, err = run(
        ["scan", "--config", cfg, "--factor-bound", "1",
         "--from", "-3011", "--to", "-3011"], capsys)
    assert code == 0, err
    body = [l for l in out.splitlines()[1:] if not l.startswith("#")]
    assert body == ["-3011,-247487790009779063,1,false,,,,,,,,,"]


def test_search_squarefree_only_skips_unfactored_value(tmp_path, capsys,
                                                       monkeypatch):
    # the walk starts at -4100 instead of the negativity bound 0, so that
    # it examines five values instead of 4100; the target is past
    # ORDER_CAP, so the capped n = -4100 is not a hit
    def near_curve(f):
        return dataclasses.replace(new_curve(f), negativity_bound=-4100)
    monkeypatch.setattr(cli, "new_curve", near_curve)
    cfg = write_config(tmp_path, GEN2_CONFIG)
    code, out, err = run(
        ["search", "--config", cfg, "--squarefree-only", "--factor-bound",
         "1", "--min-order", "10000001", "--floor", "-4104"], capsys)
    assert code == 1, err
    assert out == ""


def test_scan_rejects_range_above_bound(tmp_path, capsys):
    cfg = write_config(tmp_path, BASE)
    code, out, err = run(
        ["scan", "--config", cfg, "--from", "-5", "--to", "2"], capsys)
    assert code == 2
    assert "PositiveValueError" in err


def test_scan_needs_lower_bound(tmp_path, capsys):
    cfg = write_config(tmp_path, BASE)
    code, out, err = run(["scan", "--config", cfg], capsys)
    assert code == 2
    assert "config error" in err and "--from" in err


def test_search_hit(tmp_path, capsys):
    cfg = write_config(tmp_path, BASE)
    code, out, err = run(
        ["search", "--config", cfg, "--min-order", "2", "--floor", "-10"],
        capsys)
    assert code == 0
    lines = out.splitlines()
    assert "n = -1" in lines
    assert "f(n) = -5" in lines
    assert "form = [2,2,3]" in lines
    assert "disc = -20" in lines
    assert "order = 2" in lines
    assert "class_number = 2" in lines


def test_search_parameters_from_config(tmp_path, capsys):
    cfg = write_config(tmp_path, BASE + "min_order = 5\nfloor = -500\n")
    code, out, err = run(["search", "--config", cfg], capsys)
    assert code == 0
    assert "n = -5" in out.splitlines()
    assert "order = 6" in out.splitlines()


def test_search_exhausted(tmp_path, capsys):
    cfg = write_config(tmp_path, BASE)
    code, out, err = run(
        ["search", "--config", cfg, "--min-order", "100", "--floor", "-5"],
        capsys)
    assert code == 1
    assert out == ""
    assert "no n >= -5 with pairing order >= 100" in err
    assert "examined = 7" in err
    assert "defined = 4" in err
    assert "max_order_seen = 6" in err


def test_search_computes_no_order_after_the_hit(tmp_path, capsys,
                                              monkeypatch):
    # the hit's order comes from the search itself, and the report reads
    # the search's record of it: no class-order loop and no second
    # specialisation after the search, and one class number
    found, examined, specialised, counted = [], [], [], []
    search = cli.find_order_at_least
    order = IdealClass.order
    specialise = specialize.specialize_form
    count = specialize.class_number_disc

    def find(*args, progress, **kwargs):
        def note(n, o):
            examined.append(n)
            progress(n, o)
        found.append(search(*args, progress=note, **kwargs))
        return found[-1]

    def guarded_order(self, *args):
        assert not found, "class order computed after the search"
        return order(self, *args)

    def counted_specialise(form, curve, n, *args):
        specialised.append(n)
        return specialise(form, curve, n, *args)

    def counted_count(disc):
        counted.append(disc)
        return count(disc)

    monkeypatch.setattr(cli, "find_order_at_least", find)
    monkeypatch.setattr(IdealClass, "order", guarded_order)
    for module in (specialize, cli):    # cli, should it import it again
        monkeypatch.setattr(module, "specialize_form", counted_specialise,
                            raising=False)
    monkeypatch.setattr(specialize, "class_number_disc", counted_count)
    # the serial walk, whose record of the hit the report reads
    monkeypatch.setattr(specialize, "_usable_cpus", lambda: 1)
    cfg = write_config(tmp_path, BASE)
    code, out, err = run(
        ["search", "--config", cfg, "--min-order", "5", "--floor", "-50"],
        capsys)
    assert code == 0, err
    assert [s.n for s in found] == [-5]
    assert "order = 6" in out.splitlines()
    assert specialised == examined == [1, 0, -1, -2, -3, -4, -5]
    assert len(counted) == 1


def test_forked_search_computes_no_order_after_a_workers_hit(
        tmp_path, capsys, monkeypatch):
    # as above, on two CPUs with the hit n = -403 in the worker's block:
    # this process specialises its own n and the worker's hit again, and
    # reads that hit's order before the search returns
    found, examined, specialised, forks = [], [], [], []
    search = cli.find_order_at_least
    order = IdealClass.order
    specialise = specialize.specialize_form
    fork = os.fork

    def find(*args, progress, **kwargs):
        def note(n, o):
            examined.append(n)
            progress(n, o)
        found.append(search(*args, progress=note, **kwargs))
        return found[-1]

    def guarded_order(self, *args):
        assert not found, "class order computed after the search"
        return order(self, *args)

    def counted_specialise(form, curve, n, *args):
        specialised.append(n)
        return specialise(form, curve, n, *args)

    def counted_fork():
        forks.append(1)
        return fork()

    monkeypatch.setattr(cli, "find_order_at_least", find)
    monkeypatch.setattr(IdealClass, "order", guarded_order)
    monkeypatch.setattr(specialize, "specialize_form", counted_specialise)
    monkeypatch.setattr(specialize, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(os, "fork", counted_fork)
    cfg = write_config(tmp_path, BASE)
    code, out, err = run(
        ["search", "--config", cfg, "--min-order", "12000", "--floor",
         "-3000"], capsys)
    assert code == 0, err
    assert len(forks) == 1
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert [s.n for s in found] == [-403]
    assert "order = 13406" in out.splitlines()
    assert examined == list(range(1, -404, -1))
    # this process specialised the n of its own blocks, from n = 1 on,
    # perhaps own n past the hit while the worker's block was on its way,
    # and the worker's hit
    hi = CURVE.negativity_bound
    own = [n for n in examined if specialize._owner((hi - n) // 2, 2) == 0]
    assert specialised[:len(own)] == own and own[0] == 1
    assert all(n < -403 and specialize._owner((hi - n) // 2, 2) == 0
               for n in specialised[len(own):-1])
    assert specialised[-1] == -403


def test_import_loads_no_fork_module():
    # select, pickle and signal serve only a forked walk, and load there
    import hyperclass
    env = dict(os.environ,
               PYTHONPATH=str(Path(hyperclass.__file__).parents[1]))
    loaded = subprocess.run(
        [sys.executable, "-c", "import sys, hyperclass.cli; print(sorted("
         "{'select', 'pickle', 'signal'} & set(sys.modules)))"],
        env=env, capture_output=True, text=True, check=True).stdout
    assert loaded == "[]\n"


def test_search_keeps_its_hit_when_h_is_refused(tmp_path, capsys,
                                               monkeypatch):
    # the golden search's hit, with its disc -62516 past a cap of 1000:
    # the lines that need no class number are printed before h is read
    monkeypatch.setattr(quadring, "DISC_CAP", 1000)
    cfg = write_config(tmp_path, BASE)
    code, out, err = run(
        ["search", "--config", cfg, "--min-order", "50", "--floor", "-100"],
        capsys)
    assert code == 2
    assert out == ("n = -25\n"
                   "f(n) = -15629\n"
                   "form = [27,4,579]\n"
                   "disc = -62516\n"
                   "order = 142\n")
    assert err == ("error: ClassNumberBoundError: a discriminant of 16 bits "
                   "is past the class-number cap |disc| <= 1000\n")


def test_search_reports_a_capped_hit(tmp_path, capsys, monkeypatch):
    # the class at n = -1 (disc -20) is planted past the order cap: its
    # order meets any target up to the cap, and the report stops at it
    order = IdealClass.order

    def capped(self, cap=quadring.ORDER_CAP):
        if self.disc == -20:
            raise OrderBoundError("planted")
        return order(self, cap)
    monkeypatch.setattr(IdealClass, "order", capped)
    cfg = write_config(tmp_path, BASE)
    code, out, err = run(
        ["search", "--config", cfg, "--min-order", "2", "--floor", "-10"],
        capsys)
    assert code == 2
    assert out == "n = -1\nf(n) = -5\nform = [2,2,3]\ndisc = -20\n"
    assert err == "error: OrderBoundError: planted\n"


def test_search_internal_inconsistency_exits_2(tmp_path, capsys,
                                               monkeypatch):
    def broken(I, cd):
        raise InternalInconsistencyError("planted")
    monkeypatch.setattr(specialize, "push_to_maximal", broken)
    cfg = write_config(tmp_path, BASE)
    code, out, err = run(
        ["search", "--config", cfg, "--min-order", "2", "--floor", "-10"],
        capsys)
    assert code == 2
    assert out == ""
    assert "InternalInconsistencyError: planted" in err


def test_threshold_report(tmp_path, capsys):
    cfg = write_config(tmp_path, BASE)
    code, out, err = run(["threshold", "--config", cfg], capsys)
    assert code == 0
    assert out.splitlines() == [
        "integral form: A = x - 2, B = 2, e = 1",
        "congruence class: n = 0 (mod 1)",
        "fixed divisor: 1",
        "threshold: 0",
        "guarantee: every n <= 0 with n = 0 (mod 1) gives a non-principal "
        "class",
    ]


def test_threshold_without_guarantee(tmp_path, capsys):
    # the identity divisor has constant A = 1: no norm gap to argue from
    cfg = write_config(tmp_path, "f = [-4, 0, 0, 1]\n"
                                 "divisor_a = [1]\ndivisor_b = [0]\n")
    code, out, err = run(["threshold", "--config", cfg], capsys)
    assert code == 0
    assert out.splitlines()[-1].startswith(
        "threshold: none, no norm-gap guarantee")
    assert "guarantee: every" not in out


def test_search_needs_target_and_floor(tmp_path, capsys):
    cfg = write_config(tmp_path, BASE)
    code, out, err = run(
        ["search", "--config", cfg, "--floor", "-5"], capsys)
    assert code == 2 and "min_order" in err
    code, out, err = run(
        ["search", "--config", cfg, "--min-order", "2"], capsys)
    assert code == 2 and "floor" in err


def test_class_number_command(capsys):
    # D is the ring parameter: the answer is h of Z[sqrt(D)], disc 4D
    code, out, err = run(["class-number", "--D", "-5"], capsys)
    assert code == 0 and out.strip() == "2"
    code, out, err = run(["class-number", "--D", "-1"], capsys)
    assert code == 0 and out.strip() == "1"
    code, out, err = run(["class-number", "--D", "-14"], capsys)
    assert code == 0 and out.strip() == "4"
    code, out, err = run(["class-number", "--D", "-20"], capsys)
    assert code == 0 and out.strip() == "4"


def test_class_number_past_its_reach_exits_2(capsys):
    code, out, err = run(
        ["class-number", "--D", "-1000000000000000000000000000000"], capsys)
    assert code == 2 and out == ""
    assert "ClassNumberBoundError" in err and "102 bits" in err


def test_class_number_rejects_nonnegative(capsys):
    for D in ("0", "5"):
        code, out, err = run(["class-number", "--D", D], capsys)
        assert code == 2
        assert "must be negative" in err


def test_jac_add_points(tmp_path, capsys):
    cfg = write_config(tmp_path, BASE)
    code, out, err = run(
        ["jac", "--config", cfg, "add", "2,2", "2,2"], capsys)
    assert code == 0
    assert out.strip() == "[-5,1];[-11]"


def test_jac_add_mixed_operands(tmp_path, capsys):
    cfg = write_config(tmp_path, BASE)
    code, out, err = run(
        ["jac", "--config", cfg, "add", "[-5,1];[-11]", "2,2"], capsys)
    assert code == 0
    assert out.strip() == "[-106/9,1];[1090/27]"


def test_jac_neg(tmp_path, capsys):
    cfg = write_config(tmp_path, BASE)
    code, out, err = run(["jac", "--config", cfg, "neg", "2,2"], capsys)
    assert code == 0
    assert out.strip() == "[-2,1];[-2]"


def test_jac_smul(tmp_path, capsys):
    cfg = write_config(tmp_path, BASE)
    code, out, err = run(["jac", "--config", cfg, "smul", "3", "2,2"], capsys)
    assert code == 0
    assert out.strip() == "[-106/9,1];[1090/27]"
    code, out, err = run(["jac", "--config", cfg, "smul", "0", "2,2"], capsys)
    assert code == 0
    assert out.strip() == "[1];[0]"


def test_jac_prints_coefficients_past_the_digit_limit(tmp_path, capsys):
    # 160P has coefficients of over 4300 digits; the limit is lifted for
    # the output alone and is back in force afterwards
    cfg = write_config(tmp_path, BASE)
    limit = sys.get_int_max_str_digits()
    code, out, err = run(
        ["jac", "--config", cfg, "smul", "160", "2,2"], capsys)
    assert code == 0, err
    assert sys.get_int_max_str_digits() == limit
    a_text, b_text = out.strip().split(";")
    assert len(a_text) > 8600
    D = jac_smul(CURVE, 160, from_point(CURVE, 2, 2))
    sys.set_int_max_str_digits(0)
    try:
        got = ([Fraction(c) for c in a_text[1:-1].split(",")],
               [Fraction(c) for c in b_text[1:-1].split(",")])
    finally:
        sys.set_int_max_str_digits(limit)
    assert got == (list(D.a.coeffs), list(D.b.coeffs))


def test_jac_roundtrips_own_output(tmp_path, capsys):
    cfg = write_config(tmp_path, BASE)
    code, out, err = run(["jac", "--config", cfg, "smul", "0", "2,2"], capsys)
    code, out, err = run(
        ["jac", "--config", cfg, "add", out.strip(), "2,2"], capsys)
    assert code == 0
    assert out.strip() == "[-2,1];[2]"


def test_jac_bad_usage(tmp_path, capsys):
    cfg = write_config(tmp_path, BASE)
    code, out, err = run(["jac", "--config", cfg, "add", "2,2"], capsys)
    assert code == 2 and "two divisor operands" in err
    code, out, err = run(
        ["jac", "--config", cfg, "smul", "x", "2,2"], capsys)
    assert code == 2 and "k must be an integer" in err
    code, out, err = run(["jac", "--config", cfg, "neg", "3,3"], capsys)
    assert code == 2  # (3, 3) is not on the curve
    code, out, err = run(["jac", "--config", cfg, "neg", "nonsense"], capsys)
    assert code == 2 and "cannot parse divisor operand" in err


def test_altmumford_json(tmp_path, capsys):
    cfg = write_config(tmp_path, BASE)
    code, out, err = run(["altmumford", "--config", cfg], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc == {"A": ["-2", "1"], "B": ["2"],
                   "C": ["-4", "-2", "-1"], "e": 1}


def test_altmumford_from_mumford_config(tmp_path, capsys):
    text = ("f = [-4, 0, 0, 1]\n"
            "divisor_a = [-106/9, 1]\n"
            "divisor_b = [1090/27]\n")
    cfg = write_config(tmp_path, text)
    code, out, err = run(["altmumford", "--config", cfg], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["A"] == ["-106", "9"]
    assert doc["B"] == ["1090"]
    assert doc["e"] == 27


def test_config_diagnostics_carry_file_and_line(tmp_path, capsys):
    cfg = write_config(tmp_path, "f = [-4, 0, 0, 1]\nbogus = 1\n")
    code, out, err = run(["validate", "--config", cfg], capsys)
    assert code == 2
    assert f"{cfg}:2: unknown key 'bogus'" in err


def test_config_parse_errors():
    with pytest.raises(ConfigError, match="c.cfg:2: duplicate key 'f'"):
        parse_config_text("f = [1]\nf = [2]\n", "c.cfg")
    with pytest.raises(ConfigError, match="format must be csv or json"):
        parse_config_text("f = [1]\nformat = xml\n", "c.cfg")
    with pytest.raises(ConfigError, match="missing required key 'f'"):
        parse_config_text("from = -5\n", "c.cfg")
    with pytest.raises(ConfigError, match="not both"):
        parse_config_text(
            "f = [1]\npoint = (2, 2)\ndivisor_a = [1]\ndivisor_b = []\n",
            "c.cfg")
    with pytest.raises(ConfigError, match="must appear together"):
        parse_config_text("f = [1]\ndivisor_a = [1]\n", "c.cfg")
    with pytest.raises(ConfigError, match="factor_bound must be positive"):
        parse_config_text("f = [1]\nfactor_bound = 0\n", "c.cfg")
    with pytest.raises(ConfigError, match="expected 'key = value'"):
        parse_config_text("f = [1]\nwhat even is this\n", "c.cfg")
    with pytest.raises(ConfigError, match="expected an integer"):
        parse_config_text("f = [1]\nfrom = 1/2\n", "c.cfg")


def test_nonpositive_counts_are_refused(tmp_path, capsys):
    # flags are refused by argparse, config keys with file and line;
    # exit 2 either way, never 1 (search exhausted) or a traceback
    cfg = write_config(tmp_path, BASE)
    for args in (["search", "--config", cfg, "--min-order", "0",
                  "--floor", "-5"],
                 ["search", "--config", cfg, "--min-order", "5",
                  "--floor", "-5", "--factor-bound", "0"],
                 ["scan", "--config", cfg, "--from", "-5",
                  "--factor-bound", "-3"]):
        with pytest.raises(SystemExit) as exc:
            main(args)
        assert exc.value.code == 2
        assert "must be positive" in capsys.readouterr().err
    for key in ("min_order", "factor_bound"):
        cfg = write_config(tmp_path, BASE + f"floor = -5\n{key} = 0\n")
        code, out, err = run(["search", "--config", cfg, "--min-order", "5"],
                             capsys)
        assert code == 2 and out == ""
        assert f"{cfg}:5: {key} must be positive" in err


def test_flags_overlay_the_config(tmp_path):
    cfg = write_config(tmp_path, BASE + "min_order = 3\nfloor = -5\n"
                       "factor_bound = 10\n")
    args = build_parser().parse_args(
        ["search", "--config", cfg, "--min-order", "7"])
    got = cli._config_with_flags(args)
    assert (got.min_order, got.floor, got.factor_bound) == (7, -5, 10)
    assert got.squarefree_only is False
    args = build_parser().parse_args(
        ["scan", "--config", cfg, "--to", "-2", "--format", "json",
         "--squarefree-only", "--factor-bound", "99"])
    got = cli._config_with_flags(args)
    assert (got.n_from, got.n_to, got.format, got.squarefree_only,
            got.factor_bound, got.min_order) == (None, -2, "json", True,
                                                 99, 3)


def test_config_comments_and_rationals():
    cfg = parse_config_text(
        "f = [-4, 0, 0, 1]  # trailing comment\n"
        "\n"
        "point = (106/9, 1090/27)\n", "c.cfg")
    assert cfg.point[0].denominator == 9
    assert cfg.format == "csv"  # default


def test_noninteger_curve_coefficient(tmp_path, capsys):
    cfg = write_config(tmp_path, "f = [1/2, 0, 0, 1]\n")
    code, out, err = run(["validate", "--config", cfg], capsys)
    assert code == 2
    assert "not an integer" in err


def test_missing_config_file(tmp_path, capsys):
    code, out, err = run(
        ["validate", "--config", str(tmp_path / "absent.cfg")], capsys)
    assert code == 2
    assert "cannot read config" in err


def test_curve_must_be_valid(tmp_path, capsys):
    cfg = write_config(tmp_path, "f = [0, 0, 0, 1]\n")  # x^3 not square-free
    code, out, err = run(["validate", "--config", cfg], capsys)
    assert code == 2
    assert "NotSquarefree" in err


def test_unknown_subcommand_exits_via_argparse(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_jac_reads_its_own_output_past_the_digit_limit(tmp_path, capsys):
    # 160P has coefficients of over 4300 digits; fed back as an operand
    # it must read exactly, so 160P + P is 161P
    cfg = write_config(tmp_path, BASE)
    limit = sys.get_int_max_str_digits()
    code, big, err = run(["jac", "--config", cfg, "smul", "160", "2,2"],
                         capsys)
    assert code == 0, err
    code, out, err = run(["jac", "--config", cfg, "add", big.strip(), "2,2"],
                         capsys)
    assert code == 0, err
    assert sys.get_int_max_str_digits() == limit
    code, expected, err = run(
        ["jac", "--config", cfg, "smul", "161", "2,2"], capsys)
    assert code == 0 and out == expected


def test_flags_read_numbers_past_the_digit_limit(tmp_path, capsys):
    cfg = write_config(tmp_path, BASE)
    floor = "-1" + "0" * 5000
    code, out, err = run(["search", "--config", cfg, "--min-order", "2",
                          f"--floor={floor}"], capsys)
    assert code == 0, err
    assert "n = -1" in out.splitlines()


# (subcommand, flag, config key, ExperimentConfig field)
NUMERIC_FLAGS = [
    ("search", "--min-order", "min_order", "min_order"),
    ("search", "--factor-bound", "factor_bound", "factor_bound"),
    ("search", "--floor", "floor", "floor"),
    ("scan", "--from", "from", "n_from"),
    ("scan", "--to", "to", "n_to"),
]


@pytest.mark.parametrize("value", ["4/2", "0", "-3", "1e3", "2.0", "1_000"])
@pytest.mark.parametrize("command, flag, key, name", NUMERIC_FLAGS)
def test_flag_and_config_key_read_alike(tmp_path, capsys, command, flag,
                                        key, name, value):
    # a flag and its config key accept the same values, and refuse the
    # rest with the same text
    cfg = write_config(tmp_path, BASE)
    flag_value = key_value = flag_error = key_error = None
    try:
        args = build_parser().parse_args(
            [command, "--config", cfg, f"{flag}={value}"])
        flag_value = getattr(args, name)
    except SystemExit as exc:
        assert exc.code == 2
        flag_error = capsys.readouterr().err.split(f"argument {flag}: ")[1]
    try:
        parsed = parse_config_text(BASE + f"{key} = {value}\n", "c.cfg")
        key_value = getattr(parsed, name)
    except ConfigError as exc:
        key_error = str(exc).split("c.cfg:4: ")[1]
    positive = key in ("min_order", "factor_bound")
    accepted = value == "4/2" or (value in ("0", "-3") and not positive)
    assert (flag_error is None) == (key_error is None) == accepted
    assert flag_value == key_value
    if not accepted:
        assert flag_error.strip() == key_error


def test_latin1_config_is_refused_with_its_file(tmp_path, capsys):
    p = tmp_path / "latin.cfg"
    p.write_bytes(b"f = [-4, 0, 0, 1]  # caf\xe9\npoint = (2, 2)\n")
    code, out, err = run(["validate", "--config", str(p)], capsys)
    assert code == 2 and out == ""
    assert f"cannot read config {p}" in err


def test_messages_quote_a_bounded_head(tmp_path, capsys):
    cfg = write_config(tmp_path, BASE)
    operand = "[" + "7" * 25000 + "x];[1]"
    code, out, err = run(["jac", "--config", cfg, "neg", operand], capsys)
    assert code == 2
    assert "cannot parse divisor operand" in err
    assert "(25001 characters)" in err and len(err) < 300


NUMBER = st.one_of(
    st.integers(-60, 60).map(str),
    st.builds("{}/{}".format, st.integers(-60, 60), st.integers(-2, 9)),
    st.sampled_from(["1e3", "2.0", "1_000", "", "-", "1/", "/2", "x",
                     "٣", " 5 "]),
)
LIST = st.lists(NUMBER, max_size=6).map(lambda xs: f"[{', '.join(xs)}]")
PAIR = st.tuples(NUMBER, NUMBER).map(lambda p: f"({p[0]}, {p[1]})")
CONFIG_LINE = st.one_of(
    st.tuples(st.sampled_from(["from", "to", "min_order", "floor",
                               "factor_bound"]), NUMBER),
    st.tuples(st.sampled_from(["f", "divisor_a", "divisor_b"]), LIST),
    st.tuples(st.just("point"), PAIR),
    st.tuples(st.sampled_from(["format", "squarefree_only",
                               "class_numbers"]),
              st.sampled_from(["true", "no", "csv", "json", "maybe"])),
    st.tuples(st.sampled_from(["f", "point", "from", "bogus"]),
              st.text(max_size=12)),
).map(" = ".join) | st.text(max_size=20)
# a valid start, mostly, so that the lines after it reach the curve and
# divisor checks; or raw bytes
CONFIG_BYTES = st.one_of(
    st.tuples(st.sampled_from(["", "f = [-4, 0, 0, 1]",
                               "f = [-4, 0, 0, 1]\npoint = (2, 2)",
                               "f = [-1, 1, 0, 0, 0, 1]\npoint = (1, 1)"]),
              st.lists(CONFIG_LINE, max_size=3))
    .map(lambda t: "\n".join([t[0], *t[1]]).encode("utf-8", "surrogatepass")),
    st.binary(max_size=120),
)
OPERAND = st.one_of(
    st.sampled_from(["2,2", "2,-2", "[1];[0]", "[-5,1];[-11]",
                     "[-106/9,1];[1090/27]"]),
    st.tuples(NUMBER, NUMBER).map(",".join),
    st.tuples(LIST, LIST).map(";".join),
    st.text(max_size=20),
)


def exit_code(argv) -> int:
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=CONFIG_BYTES,
       command=st.sampled_from(["validate", "threshold", "altmumford"]))
def test_any_config_exits_0_or_2(tmp_path, capsys, text, command):
    p = tmp_path / "fuzz.cfg"
    p.write_bytes(text)
    assert exit_code([command, "--config", str(p)]) in (0, 2)
    capsys.readouterr()


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(first=OPERAND, second=OPERAND)
def test_any_jac_operand_exits_0_or_2(tmp_path, capsys, first, second):
    cfg = write_config(tmp_path, BASE)
    assert exit_code(["jac", "--config", cfg, "neg", first]) in (0, 2)
    assert exit_code(["jac", "--config", cfg, "add", first, second]) in (0, 2)
    capsys.readouterr()


def test_long_operands_get_short_messages(tmp_path, capsys):
    # a point off the curve and a non-monic a, each with a 5000-digit
    # entry: the message gives sizes, not the values
    cfg = write_config(tmp_path, BASE)
    big = "9" * 5000
    for operand, kind in ((f"{big},1", "PointNotOnCurveError"),
                          (f"1,1/{big}", "PointNotOnCurveError"),
                          (f"[1,{big}];[0]", "InvalidDivisorError")):
        code, out, err = run(["jac", "--config", cfg, "neg", operand], capsys)
        assert code == 2 and out == ""
        assert kind in err and len(err.encode()) < 300, err[:300]


def test_negative_x_operand_needs_no_separator(tmp_path, capsys):
    # y^2 = x^3 + 8 through (-2, 0) and (1, 3): an operand that starts
    # with '-' reads as an operand, as it does after '--'
    cfg = write_config(tmp_path, "f = [8, 0, 0, 1]\npoint = (1, 3)\n")
    for args in (["neg", "-2,0"], ["add", "-2,0", "1,3"],
                 ["add", "1,3", "-2,0"], ["smul", "3", "-2,0"],
                 ["smul", "-3", "1,3"]):
        code, out, err = run(["jac", "--config", cfg, *args], capsys)
        assert code == 0, err
        code2, out2, err2 = run(["jac", "--config", cfg, args[0], "--",
                                 *args[1:]], capsys)
        assert (code2, out2) == (0, out), err2
    code, out, err = run(["jac", "--config", cfg, "add", "-2,0", "1,3"],
                         capsys)
    assert out.strip() == "[-2,1];[-4]"
