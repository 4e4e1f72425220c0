import argparse
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import kronhf
from kronhf import cli
from kronhf.cli import _sweep_module, build_parser, main, sub_seed
from kronhf.fields import field_from_label
from kronhf.modules import module_from_text
from kronhf.sl2p import adjoint_generators, kazhdan_lower_bound


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_build_p3(capsys, tmp_path):
    path = tmp_path / "P3.mod"
    code, out, _ = run(capsys, "build", "P", "--n", "3", "--out", str(path))
    assert code == 0
    assert "dims 3x4 defect -1" in out
    assert path.read_text().startswith("kronecker d=2 field=rational dims=3x4")


def test_build_theta_post(capsys, tmp_path):
    path = tmp_path / "t.mod"
    code, out, _ = run(capsys, "build", "theta-post", "--d", "3", "--t", "3",
                       "--out", str(path))
    assert code == 0
    assert "dims 21x8" in out


def test_build_r_poly(capsys, tmp_path):
    path = tmp_path / "r.mod"
    code, out, _ = run(capsys, "build", "R", "--poly", "(x-1)^2", "--out", str(path))
    assert code == 0
    assert "dims 2x2 defect 0" in out


def test_build_usage_error(capsys):
    code, _, _ = run(capsys, "build", "X", "--n", "3")
    assert code == 2
    # a symbolic coefficient is not in Q
    code, _, err = run(capsys, "build", "R", "--poly", "x^2+y")
    assert code == 2 and err.startswith("error: ")
    code, out, err = run(capsys, "build", "R")
    assert (code, out, err) == (2, "", "error: build R needs --poly or --monomial\n")
    # a coefficient list or a list of expressions is no polynomial
    for poly in ("1,0,1", "[x]"):
        code, out, err = run(capsys, "build", "R", "--poly", poly, "--field", "5")
        assert (code, out, err) == (2, "", f"error: cannot parse polynomial {poly!r}\n")


def test_witness_p7(capsys, tmp_path):
    mod = tmp_path / "P7.mod"
    run(capsys, "build", "P", "--n", "7", "--out", str(mod))
    code, out, _ = run(capsys, "witness", "--module", str(mod), "--eps", "1/4")
    assert code == 0
    assert "verdict pass" in out
    assert "dim N = 13 / 15" in out


def test_witness_rejects_float_eps(capsys, tmp_path):
    mod = tmp_path / "P7.mod"
    run(capsys, "build", "P", "--n", "7", "--out", str(mod))
    code, _, err = run(capsys, "witness", "--module", str(mod), "--eps", "0.25")
    assert code == 2


def test_witness_json_replay_deterministic(capsys, tmp_path):
    mod = tmp_path / "Q12.mod"
    run(capsys, "build", "Q", "--n", "12", "--out", str(mod))
    code1, out1, _ = run(capsys, "witness", "--module", str(mod), "--eps", "1/4", "--json")
    code2, out2, _ = run(capsys, "witness", "--module", str(mod), "--eps", "1/4", "--json")
    assert code1 == code2 == 0
    r1, r2 = json.loads(out1), json.loads(out2)
    assert r1["results"] == r2["results"]  # payload identical; wall_ms may differ


def test_expander_json_replay_deterministic(capsys):
    argv = ("expander", "--from-sl2p", "5", "--mode", "sample", "--json")
    code1, out1, _ = run(capsys, *argv)
    code2, out2, _ = run(capsys, *argv)
    assert code1 == code2 == 0
    assert json.loads(out1)["results"] == json.loads(out2)["results"]


def test_sweep_r_module_is_built_r_poly(capsys, tmp_path):
    path = tmp_path / "r.mod"
    for label in ("rational", "5"):
        for n in range(1, 7):
            code, _, _ = run(capsys, "build", "R", "--poly", f"(x-1)^{n}",
                             "--field", label, "--out", str(path))
            assert code == 0
            M, mid = _sweep_module("R", n, 3, field_from_label(label))
            assert M == module_from_text(path.read_text())
            assert mid == f"R_(x-1)^{n}"


def test_sweep_r_csv(capsys, tmp_path):
    out_path = tmp_path / "r.csv"
    code, _, _ = run(capsys, "sweep", "--family", "R", "--range", "1:6:1",
                     "--eps-list", "1/2", "--field", "5", "--out", str(out_path))
    assert code == 0
    lines = out_path.read_text().strip().splitlines()
    assert len(lines) == 1 + 6
    assert [ln.split(",")[:2] for ln in lines[1:]] == [[f"R_(x-1)^{n}", str(2 * n)]
                                                        for n in range(1, 7)]
    assert all(",pass" in ln for ln in lines[1:])


def test_sweep_csv(capsys, tmp_path):
    out_path = tmp_path / "sweep.csv"
    code, out, _ = run(capsys, "sweep", "--family", "P", "--range", "2:10:4",
                       "--eps-list", "1/2,1/4", "--out", str(out_path))
    assert code == 0
    lines = out_path.read_text().strip().splitlines()
    assert lines[0] == "id,dim,eps,l_eps,parts,removed_fraction,verdict,ms"
    assert len(lines) == 1 + 3 * 2
    assert all(",pass," in ln for ln in lines[1:])


def test_sweep_theta_post_flags_below_threshold(capsys, tmp_path):
    out_path = tmp_path / "post.csv"
    code, _, _ = run(capsys, "sweep", "--family", "theta-post", "--d", "3",
                     "--range", "1:4:1", "--eps-list", "1/4", "--out", str(out_path))
    assert code == 0
    lines = out_path.read_text().strip().splitlines()[1:]
    assert all("pass" in ln for ln in lines)
    assert all("below-threshold" in ln for ln in lines)  # proof bound >> desk dims


def test_witness_theta_modules_via_cli(capsys, tmp_path):
    pre = tmp_path / "pre.mod"
    run(capsys, "build", "theta-pre", "--d", "3", "--t", "4", "--out", str(pre))
    code, out, _ = run(capsys, "witness", "--module", str(pre), "--eps", "1/4")
    assert code == 0 and "verdict pass" in out
    post = tmp_path / "post.mod"
    run(capsys, "build", "theta-post", "--d", "3", "--t", "4", "--out", str(post))
    code, out, _ = run(capsys, "witness", "--module", str(post), "--eps", "1/4",
                       "--l-override", "30")
    assert code == 0 and "verdict pass" in out


def test_witness_theta_post_at_size_target_one_fails_verification(capsys, tmp_path):
    """Split down to size target 1, theta_post(3, 3) keeps too little of itself."""
    post = tmp_path / "post.mod"
    run(capsys, "build", "theta-post", "--d", "3", "--t", "3", "--out", str(post))
    code, out, _ = run(capsys, "witness", "--module", str(post), "--eps", "1/4",
                       "--l-override", "1")
    assert code == 1 and "verdict FAIL dimension" in out


def test_flags_a_command_does_not_read_are_usage_errors(capsys, tmp_path):
    """--seed is taken only by sl2p and expander, --json only by the
    commands that write a JSON report."""
    mod = tmp_path / "F.mod"
    run(capsys, "build", "P", "--n", "1", "--out", str(mod))
    assert run(capsys, "build", "P", "--n", "3", "--seed", "1")[0] == 2
    assert run(capsys, "gamma", "--module", str(mod), "--json")[0] == 2
    assert run(capsys, "sweep", "--family", "P", "--range", "3", "--eps-list", "1/2",
               "--json")[0] == 2


def test_witness_refuses_l_override_off_theta_post(capsys):
    """--l-override is the size target of theta_post modules; on any other
    shape it is refused, not silently ignored."""
    mod = Path(__file__).parent / "golden" / "r40.mod"
    code, out, err = run(capsys, "witness", "--module", str(mod), "--eps", "1/4",
                         "--l-override", "0")
    assert (code, out) == (2, "")
    assert err == ("error: l_override sets the size target of theta_post modules only, "
                   "not of R_poly\n")
    code, out, _ = run(capsys, "witness", "--module", str(mod), "--eps", "1/4")
    assert code == 0 and "verdict pass" in out


def test_sweep_empty_range(capsys, tmp_path):
    out_path = tmp_path / "sweep.csv"
    code, _, _ = run(capsys, "sweep", "--family", "P", "--range", "",
                     "--eps-list", "1/2", "--out", str(out_path))
    assert code == 0
    assert out_path.read_text().strip() == "id,dim,eps,l_eps,parts,removed_fraction,verdict,ms"


def test_sweep_without_eps_list_is_usage_error(capsys):
    code, out, err = run(capsys, "sweep", "--family", "P", "--range", "1:3:1")
    assert (code, out) == (2, "")
    assert err == "error: sweep needs --eps-list\n"


def test_sweep_two_part_range_is_usage_error(capsys):
    code, out, err = run(capsys, "sweep", "--family", "P", "--range", "1:5", "--eps-list", "1/2")
    assert (code, out) == (2, "")
    assert err == "error: --range must be n or lo:hi:step, got '1:5'\n"


@pytest.mark.parametrize("spec,step", [("1:10:0", 0), ("10:1:-1", -1)])
def test_sweep_range_step_below_one_is_usage_error(capsys, spec, step):
    code, out, err = run(capsys, "sweep", "--family", "P", "--range", spec, "--eps-list", "1/2")
    assert (code, out) == (2, "")
    assert err == f"error: --range step must be at least 1, got {step}\n"


@pytest.mark.parametrize("command,flag", [
    ("witness", "--module"), ("decompose", "--module"), ("gamma", "--module"),
    ("expander", "--maps or --from-sl2p"),
])
def test_missing_module_file_is_usage_error(capsys, command, flag):
    code, out, err = run(capsys, command)
    assert (code, out, err) == (2, "", f"error: missing {flag}\n")


GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize("argv,message", [
    (["sl2p"], "missing --p"),
    (["build", "P"], "missing --n"),
    (["witness", "--module", str(GOLDEN / "r40.mod")], "missing --eps"),
    (["sweep", "--range", "1", "--eps-list", "1/2"], "sweep needs --family"),
    (["expander", "--maps", str(GOLDEN / "expander_gf2_n10.mod"), "--field", "3"],
     "--field 3 does not match the maps file field 2"),
], ids=["sl2p-p", "build-n", "witness-eps", "sweep-family", "expander-field"])
def test_missing_or_contradicted_option_is_usage_error(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_sweep_without_range_is_usage_error(capsys):
    code, out, err = run(capsys, "sweep", "--family", "P", "--eps-list", "1/2")
    assert (code, out) == (2, "")
    assert err == "error: sweep needs --range (n or lo:hi:step)\n"


def test_sl2p_dump_and_fixture(capsys):
    code, out, _ = run(capsys, "sl2p", "--p", "3")
    assert code == 0
    assert "irreducible True" in out
    assert "field rational" in out
    for p in ("3", "5", "7", "11"):
        code, out, _ = run(capsys, "sl2p", "--p", p, "--fixture", "check")
        assert code == 0, p
        assert "fixture match: True" in out


def test_sl2p_dump_to_out_opens_the_file_once(capsys, tmp_path, monkeypatch):
    """--fixture dump --out F writes the dump to F, with one open for
    writing, and prints the text report on stdout."""
    path = tmp_path / "rho3.txt"
    opened = []
    real_open = open

    def counting(file, mode="r", *args, **kwargs):
        if str(file) == str(path) and "w" in mode:
            opened.append(mode)
        return real_open(file, mode, *args, **kwargs)

    monkeypatch.setattr("builtins.open", counting)
    code, out, _ = run(capsys, "sl2p", "--p", "3", "--fixture", "dump", "--out", str(path))
    monkeypatch.undo()
    assert (code, out) == (0, "rho_3: dim 3, irreducible True, symmetry True\n")
    assert opened == ["w"]
    fixture = Path(kronhf.__file__).parent / "fixtures" / "rho_3.txt"
    assert path.read_bytes() == fixture.read_bytes()


def test_sl2p_kazhdan_report(capsys):
    """--kazhdan adds the bracket on the adjoint representation (dim
    p^2 - 1), its alpha = lower^2 / 12 and both eps bounds to the report."""
    code, out, err = run(capsys, "sl2p", "--p", "5", "--kazhdan", "--trials", "3", "--json")
    assert (code, err) == (0, "")
    kz = json.loads(out)["results"]["kazhdan"]
    assert set(kz) == {"lower", "upper", "alpha", "dim", "eps_bound", "weak_eps_bound",
                       "seed", "trials"}
    assert (kz["dim"], kz["seed"], kz["trials"]) == (24, 0, 3)
    assert kz["lower"] == kazhdan_lower_bound(adjoint_generators(5)) <= kz["upper"]
    assert kz["alpha"] == kz["lower"] ** 2 / 12
    assert 0 < Fraction(kz["weak_eps_bound"]) < Fraction(kz["eps_bound"]) < Fraction(1, 2)
    code, out, _ = run(capsys, "sl2p", "--p", "5", "--kazhdan", "--trials", "3")
    assert code == 0
    assert out.splitlines()[1] == (f"kazhdan bracket [{kz['lower']:.6f}, {kz['upper']:.6f}] "
                                   f"alpha {kz['alpha']:.6g}")


def test_sl2p_composite_p(capsys):
    code, _, err = run(capsys, "sl2p", "--p", "4")
    assert code == 2
    assert "not prime" in err


def test_expander_bounds_only(capsys):
    code, out, _ = run(capsys, "expander", "--alpha", "1", "--bounds-only")
    assert code == 0
    assert "strong 1/4 weak 1/10" in out


def test_expander_exhaustive_refuted(capsys, tmp_path):
    mod = tmp_path / "swap2.mod"
    text = "\n".join([
        "kronecker d=2 field=2 dims=2x2",
        "field 2", "2 2", "1 0", "0 1",
        "field 2", "2 2", "0 1", "1 0",
    ]) + "\n"
    mod.write_text(text)
    code, out, _ = run(capsys, "expander", "--field", "2", "--maps", str(mod),
                       "--eta", "1/2", "--alpha", "1", "--mode", "exhaustive", "--json")
    assert code == 0
    rep = json.loads(out)
    assert rep["results"]["verdict"] == "refuted"
    assert "1 1" in rep["results"]["witness"]


def test_expander_sampled_from_sl2p(capsys):
    code, out, _ = run(capsys, "expander", "--from-sl2p", "5", "--mode", "sample",
                       "--trials", "60", "--alpha", "1/100", "--seed", "7", "--json")
    assert code == 0
    rep = json.loads(out)
    assert rep["results"]["verdict"] == "sampled-pass"
    assert rep["results"]["seed"] == 7


def test_expander_from_sl2p_reads_field(capsys):
    """--field picks the reduction of theta(3) that the exhaustive walk checks."""
    code, out, _ = run(capsys, "expander", "--from-sl2p", "5", "--field", "7",
                       "--alpha", "1/2", "--json")
    assert code == 0
    rep = json.loads(out)
    assert rep["config"]["from_sl2p"] == 5 and rep["config"]["field"] == "7"
    res = rep["results"]
    assert (res["verdict"], res["worst_ratio"], res["subspaces_checked"]) == (
        "proved", "3/2", 142851)


def test_expander_from_sl2p_bad_field_label_is_usage_error(capsys):
    for label, message in (("GF(7)", "unknown field label 'GF(7)'"), ("4", "4 is not prime")):
        code, out, err = run(capsys, "expander", "--from-sl2p", "5", "--field", label,
                             "--alpha", "1/2", "--json")
        assert code == 2 and out == ""
        assert err == f"error: {message}\n"


def test_expander_guard_exit_code(capsys, tmp_path):
    mod = tmp_path / "big.mod"
    from kronhf.fields import PrimeField
    from kronhf.matrices import Matrix
    from kronhf.modules import KroneckerModule

    F5 = PrimeField(5)
    M = KroneckerModule(2, F5, 8, 8, [Matrix.identity(F5, 8)] * 2)
    mod.write_text(M.to_text())
    code, _, err = run(capsys, "expander", "--maps", str(mod), "--eta", "1/2",
                       "--alpha", "1", "--mode", "exhaustive", "--guard", "10")
    assert code == 3
    assert "guard" in err.lower()


def test_expander_bad_integer_options_are_usage_errors(capsys):
    for mode, flag, value in (("exhaustive", "--guard", "1e7"), ("sample", "--trials", "ten"),
                              ("sample", "--seed", "1.5")):
        code, _, err = run(capsys, "expander", "--from-sl2p", "5", "--mode", mode, flag, value)
        assert code == 2
        assert err.startswith(f"error: {flag} must be an integer")
    code, _, err = run(capsys, "sl2p", "--p", "5", "--kazhdan", "--trials", "x")
    assert code == 2 and err.startswith("error: --trials")


def test_sl2p_kazhdan_refuses_fewer_than_one_trial(capsys):
    for value in ("0", "-3"):
        code, out, err = run(capsys, "sl2p", "--p", "5", "--kazhdan", "--trials", value, "--json")
        assert code == 2 and out == ""
        assert err == f"error: trials must be at least 1, got {value}\n"


def test_bad_integer_options_are_usage_errors(capsys, tmp_path):
    mod = tmp_path / "P2.mod"
    assert run(capsys, "build", "P", "--n", "2", "--out", str(mod))[0] == 0
    cases = [("--n", ["build", "P", "--n", "x"]),
             ("--n", ["build", "Q", "--n", "2.5"]),
             ("--monomial", ["build", "R", "--monomial", "two"]),
             ("--d", ["build", "theta-pre", "--d", "three", "--t", "2"]),
             ("--t", ["build", "theta-post", "--d", "3", "--t", "1e2"]),
             ("--range", ["sweep", "--family", "P", "--range", "1:x:1", "--eps-list", "1/2"]),
             ("--d", ["sweep", "--family", "theta-pre", "--d", "x", "--range", "1",
                      "--eps-list", "1/2"]),
             ("--p", ["sl2p", "--p", "five"]),
             ("--from-sl2p", ["expander", "--from-sl2p", "x"]),
             ("--l-override", ["witness", "--module", str(mod), "--eps", "1/2",
                               "--l-override", "4.0"]),
             ("--l-override", ["witness", "--module", str(mod), "--eps", "1/2",
                               "--l-override", ""])]
    for flag, argv in cases:
        code, _, err = run(capsys, *argv)
        assert code == 2, argv
        assert err.startswith(f"error: {flag} must be an integer"), (argv, err)


def test_expander_vacuous_check_reports_null_worst_ratio(capsys, tmp_path):
    """eta * n < 1: both modes pass with no subspace checked and no ratio."""
    for field in ("3", "rational"):
        mod = tmp_path / f"id1_{field}.mod"
        mod.write_text("\n".join([f"kronecker d=2 field={field} dims=1x1",
                                   f"field {field}", "1 1", "1",
                                   f"field {field}", "1 1", "1"]) + "\n")
        mode = "exhaustive" if field == "3" else "sample"
        code, out, _ = run(capsys, "expander", "--maps", str(mod), "--eta", "1/2",
                           "--alpha", "1/2", "--mode", mode, "--trials", "5", "--json")
        assert code == 0
        res = json.loads(out)["results"]
        assert res["verdict"] == ("proved" if field == "3" else "sampled-pass")
        assert res["subspaces_checked"] == 0
        assert res["worst_ratio"] is None


def test_decompose_command(capsys, tmp_path):
    mod = tmp_path / "P2.mod"
    run(capsys, "build", "P", "--n", "2", "--out", str(mod))
    code, out, _ = run(capsys, "decompose", "--module", str(mod))
    assert code == 0
    assert "P_2 x1" in out


def test_decompose_without_a_certificate_exits_1(capsys, monkeypatch):
    from kronhf import pencil

    monkeypatch.setattr(pencil, "DRAW_BUDGET", 0)
    mod = Path(__file__).parent / "golden" / "scrambled_q.mod"
    code, out, err = run(capsys, "decompose", "--module", str(mod))
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_gamma_command(capsys, tmp_path):
    mod = tmp_path / "P1.mod"
    run(capsys, "build", "P", "--n", "1", "--out", str(mod))
    code, out, _ = run(capsys, "gamma", "--module", str(mod))
    assert code == 0
    assert "1.1 2.1 arrow=1 coeff=1" in out


def test_gamma_output_matches_golden(capsys, tmp_path):
    """Byte for byte on theta_pre(3, 4), and on a d = 3 module over GF(5)
    with parallel edges, one isolated source and one isolated sink."""
    golden = Path(__file__).parent / "golden"
    theta = tmp_path / "theta_pre_3_4.mod"
    run(capsys, "build", "theta-pre", "--d", "3", "--t", "4", "--out", str(theta))
    for mod, want in ((theta, "gamma_theta_pre_3_4.txt"),
                      (golden / "gamma_parallel.mod", "gamma_parallel.txt")):
        code, out, err = run(capsys, "gamma", "--module", str(mod))
        assert (code, err) == (0, "")
        assert out.encode() == (golden / want).read_bytes(), want


def test_config_file(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# P_3 over GF(5)\n\nn=3\n   \n  # indented comment\nfield=5\n")
    code, out, _ = run(capsys, "build", "P", "--config", str(cfg))
    assert code == 0
    assert out.startswith("dims 3x4 defect -1\nkronecker d=2 field=5 dims=3x4\n")


def test_config_key_that_is_not_a_value_option_is_usage_error(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("n=3\nseed=1\nbogus=2\n")
    code, out, err = run(capsys, "build", "P", "--config", str(cfg))
    assert code == 2 and out == ""
    assert err == "error: --config sets options this command does not take: bogus, seed\n"
    for line in ("json=1", "out=P.mod", "config=other.cfg"):
        cfg.write_text(f"n=3\n{line}\n")
        code, _, err = run(capsys, "build", "P", "--config", str(cfg))
        assert code == 2 and err.endswith(f": {line.partition('=')[0]}\n")
    # seed is a value option of sl2p, so its config may set it
    cfg.write_text("p=3\nseed=1\nfixture=check\n")
    code, out, _ = run(capsys, "sl2p", "--config", str(cfg))
    assert code == 0 and "fixture match: True" in out


def test_config_value_outside_the_option_choices_is_usage_error(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("p=3\nfixture=chek\n")
    code, out, err = run(capsys, "sl2p", "--config", str(cfg))
    assert code == 2 and out == ""
    assert err == "error: --config sets fixture to 'chek'; choose from check, dump\n"
    # the same value on the command line is refused by argparse
    assert run(capsys, "sl2p", "--p", "3", "--fixture", "chek")[0] == 2
    cfg.write_text("p=3\nfixture=check\n")
    code, out, _ = run(capsys, "sl2p", "--config", str(cfg))
    assert code == 0 and "fixture match: True" in out


def test_sub_seed_stable():
    assert sub_seed(7, "expander") == sub_seed(7, "expander")
    assert sub_seed(7, "expander") != sub_seed(8, "expander")
    assert sub_seed(7, "a") != sub_seed(7, "b")


def test_missing_module_file(capsys):
    code, _, err = run(capsys, "witness", "--module", "/nonexistent.mod", "--eps", "1/2")
    assert code == 2


def test_unreadable_config_or_module_is_usage_error(capsys, tmp_path):
    code, _, err = run(capsys, "build", "P", "--n", "2", "--config", str(tmp_path / "none.cfg"))
    assert code == 2 and err.startswith("error: ")
    code, _, err = run(capsys, "decompose", "--module", str(tmp_path))
    assert code == 2 and err.startswith("error: ")
    binary = tmp_path / "binary.mod"
    binary.write_bytes(b"\xff\xfe\x00")
    code, _, err = run(capsys, "decompose", "--module", str(binary))
    assert code == 2 and err.startswith("error: ")


P1_TEXT = ("kronecker d=2 field=rational dims=1x2\n"
           "field rational\n2 1\n1\n0\nfield rational\n2 1\n0\n1\n")


@pytest.mark.parametrize("text", [
    P1_TEXT.replace("\n1\n0\nfield", "\nabc\n0\nfield"),     # QQ entry not a rational
    P1_TEXT.replace("\n1\n0\nfield", "\n1e-3\n0\nfield"),    # float syntax
    P1_TEXT.replace("rational", "5").replace("\n1\n0\nfield", "\nx\n0\nfield"),  # GF(5) entry
    P1_TEXT.replace(" field=rational", ""),                     # header without field=
    P1_TEXT.replace("d=2", "d=x"),
    P1_TEXT.replace("2 1\n1", "2 y\n1"),                       # matrix size not an integer
], ids=["qq-entry", "float-entry", "gf5-entry", "no-field", "bad-d", "bad-size"])
def test_malformed_module_file_is_usage_error(capsys, tmp_path, text):
    path = tmp_path / "bad.mod"
    path.write_text(text)
    code, out, err = run(capsys, "decompose", "--module", str(path))
    assert code == 2 and out == "" and err.startswith("error: ")


def test_module_file_with_an_extra_arrow_matrix_is_usage_error(capsys, tmp_path):
    path = tmp_path / "extra.mod"
    path.write_text(P1_TEXT + "field rational\n2 1\n5\n5\n")
    code, out, err = run(capsys, "decompose", "--module", str(path))
    assert (code, out) == (2, "")
    assert err == "error: module text has 6 tokens after its 2 arrow matrices\n"


def test_python_dash_m_kronhf(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(Path(kronhf.__file__).parents[1]))

    def run_module(*argv):
        return subprocess.run([sys.executable, "-m", "kronhf", *argv], cwd=tmp_path, env=env,
                              capture_output=True, text=True, timeout=120)

    done = run_module("build", "P", "--n", "2")
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("dims 2x3 defect -1\nkronecker d=2 field=rational dims=2x3\n")
    assert run_module("build", "X").returncode == 2


def _commands(top):
    """Each command of the parser top with its subparser."""
    return next(a for a in top._actions if isinstance(a, argparse._SubParsersAction)).choices


VALUE_OPTIONS = [(command, key) for command, p in _commands(build_parser()).items()
                 for key in p.get_default("config_keys")]
POSITIONALS = {"build": ["P"]}


def test_declared_option_defaults():
    """The value options with a default other than None, as README states them."""
    got = {(command, key): p.get_default(key.replace("-", "_"))
           for command, p in _commands(build_parser()).items()
           for key in p.get_default("config_keys")
           if p.get_default(key.replace("-", "_")) is not None}
    assert got == {("build", "field"): "rational", ("sweep", "field"): "rational",
                   ("sweep", "d"): 3, ("sl2p", "trials"): 200, ("sl2p", "seed"): 0,
                   ("expander", "eta"): "1/2", ("expander", "alpha"): "1",
                   ("expander", "mode"): "exhaustive", ("expander", "trials"): 1000,
                   ("expander", "guard"): 10 ** 7, ("expander", "seed"): 0}


@pytest.mark.parametrize("command,key", VALUE_OPTIONS,
                         ids=[f"{c}-{k}" for c, k in VALUE_OPTIONS])
def test_option_precedence_command_line_then_config_then_default(monkeypatch, tmp_path,
                                                                  command, key):
    """Every value option of every command: the command line beats --config,
    and --config beats the default declared in build_parser."""
    p = _commands(build_parser())[command]
    dest, choices = key.replace("-", "_"), p.get_default("config_keys")[key]
    default = p.get_default(dest)
    if choices is None:
        from_cfg, from_cli = "cfg-value", "cli-value"
    else:
        from_cfg = next(c for c in choices if c != default)
        from_cli = next(c for c in choices if c != from_cfg)
    seen = []
    real = cli.build_parser

    def capturing_parser():
        top = real()
        for sub in _commands(top).values():
            sub.set_defaults(func=lambda args: seen.append(getattr(args, dest)) or 0)
        return top

    monkeypatch.setattr(cli, "build_parser", capturing_parser)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{key}={from_cfg}\n")
    base = [command, *POSITIONALS.get(command, [])]
    assert main(base) == 0
    assert main([*base, "--config", str(cfg)]) == 0
    assert main([*base, f"--{key}", from_cli, "--config", str(cfg)]) == 0
    assert main([*base, "--config", str(cfg), f"--{key}", from_cli]) == 0
    assert seen == [default, from_cfg, from_cli, from_cli]


def test_option_precedence_through_python_dash_m(tmp_path):
    """main() with no argv parses sys.argv twice when --config is given: the
    command-line --n beats the file's n, and the file's field beats the
    default."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text("n=5\nfield=5\n")
    env = dict(os.environ, PYTHONPATH=str(Path(kronhf.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-m", "kronhf", "build", "P", "--n", "2",
                           "--config", str(cfg)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout.startswith("dims 2x3 defect -1\nkronecker d=2 field=5 dims=2x3\n")
