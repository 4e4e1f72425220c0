import json

from kronhf.cli import _sweep_module, main, sub_seed
from kronhf.fields import field_from_label
from kronhf.modules import module_from_text


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


def test_sweep_empty_range(capsys, tmp_path):
    out_path = tmp_path / "sweep.csv"
    code, _, _ = run(capsys, "sweep", "--family", "P", "--range", "",
                     "--eps-list", "1/2", "--out", str(out_path))
    assert code == 0
    assert out_path.read_text().strip() == "id,dim,eps,l_eps,parts,removed_fraction,verdict,ms"


def test_sl2p_dump_and_fixture(capsys):
    code, out, _ = run(capsys, "sl2p", "--p", "3")
    assert code == 0
    assert "irreducible True" in out
    assert "field rational" in out
    for p in ("3", "5", "7", "11"):
        code, out, _ = run(capsys, "sl2p", "--p", p, "--fixture", "check")
        assert code == 0, p
        assert "fixture match: True" in out


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
             ("--n", ["build", "P"])]
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


def test_gamma_command(capsys, tmp_path):
    mod = tmp_path / "P1.mod"
    run(capsys, "build", "P", "--n", "1", "--out", str(mod))
    code, out, _ = run(capsys, "gamma", "--module", str(mod))
    assert code == 0
    assert "1.1 2.1 arrow=1 coeff=1" in out


def test_config_file(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("n=3\nfield=rational\n")
    code, out, _ = run(capsys, "build", "P", "--config", str(cfg))
    assert code == 0
    assert "dims 3x4" in out


def test_sub_seed_stable():
    assert sub_seed(7, "expander") == sub_seed(7, "expander")
    assert sub_seed(7, "expander") != sub_seed(8, "expander")
    assert sub_seed(7, "a") != sub_seed(7, "b")


def test_missing_module_file(capsys):
    code, _, err = run(capsys, "witness", "--module", "/nonexistent.mod", "--eps", "1/2")
    assert code == 2
