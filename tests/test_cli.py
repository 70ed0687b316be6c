"""End-to-end command-line behavior: exit codes, reports, config handling."""

import argparse
import subprocess
import sys

import pytest

from pssurf import forms
from pssurf.cli import (OPTIONS, build_parser, main, make_config, parse_grid,
                        read_config)
from pssurf.catalog import ConstraintError
from pssurf.solutions import EXACT, SolutionGrid, sg_kink


def run(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


def run_failing(capsys, *argv):
    """Exit code and stderr of a run that reports an error, which leaves
    stdout empty."""
    code = main(list(argv))
    captured = capsys.readouterr()
    assert captured.out == ""
    return code, captured.err


# ------------------------------------------------------------- helpers


def test_parse_grid_five_fields():
    assert parse_grid("-3:3:-3:3:0.02") == (-3.0, -3.0, 0.02, 0.02, 301, 301)


def test_parse_grid_six_fields():
    x0, t0, hx, ht, nx, nt = parse_grid("0:1:0:2:0.5:0.25")
    assert (hx, ht, nx, nt) == (0.5, 0.25, 3, 9)


@pytest.mark.parametrize("bad", ["1:2:3", "0:1:0:1:0", "a:b:c:d:e",
                                 "1:0:0:1:0.1", "0:1:1:0:0.1",
                                 "0:inf:0:1:0.1", "0:1:0:1:inf", "0:1:0:1:5"])
def test_parse_grid_rejects(bad):
    with pytest.raises(ConstraintError):
        parse_grid(bad)


def test_read_config_sections(tmp_path):
    p = tmp_path / "run.cfg"
    p.write_text("tol = 1e-8   # comment\n"
                 "[params]\n"
                 "eta = 1.5\n"
                 "[immerse]\n"
                 "grid = -1:1:-1:1:0.1\n")
    sections = read_config(str(p))
    assert sections[""]["tol"] == "1e-8"
    assert sections["params"]["eta"] == "1.5"
    assert sections["immerse"]["grid"] == "-1:1:-1:1:0.1"


def test_read_config_bad_line(tmp_path):
    p = tmp_path / "run.cfg"
    p.write_text("just words\n")
    with pytest.raises(ConstraintError):
        read_config(str(p))


# -------------------------------------------------------------- verify


def test_verify_eta_family(capsys):
    code, out = run(capsys, "verify", "--family", "sg-eta", "--eta", "1.5")
    assert code == 0
    assert "result: PASS" in out


def test_verify_reports_each_residual(capsys):
    code, out = run(capsys, "verify", "--family", "sg-basic")
    assert code == 0
    for tag in ("R1 mod equation", "R2 mod equation", "R3 mod equation",
                "off shell", "Delta12 nonzero"):
        assert tag in out


def test_verify_exponential_family_no_immersion(capsys):
    code, out = run(capsys, "verify", "--family", "hyp-ii", "--gamma", "2",
                    "--delta", "1", "--nu", "1", "--beta", "1", "--B", "1",
                    "--eta", "1")
    assert code == 0
    assert "immersion closed-form: none" in out
    assert "result: PASS" in out


def test_verify_inconsistent_amplitude_pins(capsys):
    # A is pinned by B, gamma, delta; an off relation is a constraint error
    code, err = run_failing(capsys, "verify", "--family", "hyp-ii",
                            "--gamma", "2", "--delta", "1", "--nu", "1",
                            "--beta", "1", "--A", "2", "--B", "1",
                            "--eta", "1")
    assert code == 2
    assert "constraint violation" in err


def test_verify_negative_alpha_noted(capsys):
    code, out = run(capsys, "verify", "--family", "hyp-i", "--A", "1",
                    "--B", "2", "--Q", "0", "--eta", "1")
    assert code == 0
    assert "alpha = 1/(A^2 - B^2) < 0" in out
    assert "result: PASS" in out


def test_verify_unknown_family(capsys):
    code, err = run_failing(capsys, "verify", "--family", "nope")
    assert code == 2
    assert "unknown family" in err
    assert err.count("\n") == 1 and "hyp-iii-xi-tau" in err


def test_verify_missing_family(capsys):
    code, err = run_failing(capsys, "verify")
    assert code == 2
    assert err == "constraint violation: family: no family given\n"


@pytest.mark.parametrize("name", ["sg-basic", "sg_basic", "SG_BASIC"])
def test_verify_accepts_every_family_spelling(capsys, name):
    # the CLI takes the same names as catalog.build
    code, out = run(capsys, "verify", "--family", name)
    assert code == 0
    assert out.startswith("family: sg-basic\n")


def test_alias_collision_exits_2(capsys):
    code, err = run_failing(capsys, "obstruct", "--family", "hyp-iii-lambda",
                            "--zeta", "0.3", "--xi", "0.1")
    assert code == 2
    assert err.count("\n") == 1
    assert err.startswith("constraint violation: parameter given twice")
    assert "'xi'" in err and "'zeta'" in err


def test_verify_zero_eta_rejected(capsys):
    code, err = run_failing(capsys, "verify", "--family", "sg-eta",
                            "--eta", "0")
    assert code == 2
    assert "constraint violation" in err


@pytest.mark.parametrize("family", ["sg-basic", "sg-eta", "hyp-i", "hyp-i-qa",
                                    "hyp-iii-zero", "hyp-iii-xi-tau"])
def test_sign_rejected_without_a_sign_branch(capsys, family):
    code, err = run_failing(capsys, "verify", "--family", family,
                            "--sign", "-1")
    assert code == 2
    assert err.count("\n") == 1
    assert err.startswith("constraint violation: unknown parameter: 'sign'")


@pytest.mark.parametrize("family", ["evo-hlnonzero", "evo-hlzero", "hyp-ii",
                                    "hyp-ii-gamma1", "hyp-iii-lambda"])
def test_sign_accepted_with_a_sign_branch(capsys, family):
    code, out = run(capsys, "verify", "--family", family, "--sign", "-1")
    assert code == 0
    assert "parameters: sign=-1.0" in out


@pytest.mark.parametrize("command", ["verify", "immerse"])
def test_bad_sign_im_rejected(capsys, tmp_path, command):
    extra = (["--solution", "kink", "--grid", "-1:1:-1:1:0.5",
              "--out", str(tmp_path / "m.obj")] if command == "immerse" else [])
    code, err = run_failing(capsys, command, "--family", "sg-basic",
                            "--sign-im", "2", *extra)
    assert code == 2
    assert err.count("\n") == 1
    assert err.startswith("constraint violation: sign_im")


def test_verify_negative_sign_im_passes(capsys):
    code, out = run(capsys, "verify", "--family", "sg-basic", "--sign-im", "-1")
    assert code == 0
    assert "immersion data consistent" in out


def test_verify_honours_tol(capsys):
    code, out = run(capsys, "verify", "--family", "sg-eta", "--eta", "1.3")
    assert code == 0
    code, out = run(capsys, "verify", "--family", "sg-eta", "--eta", "1.3",
                    "--tol", "1e-30")
    assert code == 1
    assert "immersion data FAILS" in out
    assert "result: FAIL" in out


def _r1_mod_equation(capsys, *flags):
    code, out = run(capsys, "verify", "--family", "sg-basic", *flags)
    return code, next(l for l in out.splitlines()
                      if l.startswith("R1 mod equation: "))


def test_verify_sampling_flags_reach_the_structure_checks(capsys):
    # sg-basic's residual mod the equation is zero only to rounding, so its
    # verdict is numeric and the sampling flags move it
    code, line = _r1_mod_equation(capsys)
    assert code == 0
    assert line.startswith("R1 mod equation: zero to ")
    assert line.endswith(" on 64 points")
    code, line = _r1_mod_equation(capsys, "--points", "16")
    assert code == 0 and line.endswith(" on 16 points")
    code, line = _r1_mod_equation(capsys, "--tol", "1e-30")
    assert code == 1
    assert line.startswith("R1 mod equation: nonzero (relative residual ")
    assert _r1_mod_equation(capsys, "--seed", "9") != _r1_mod_equation(capsys)


def test_verify_report_deterministic(capsys, tmp_path):
    r1, r2 = tmp_path / "a.txt", tmp_path / "b.txt"
    for r in (r1, r2):
        code, _ = run(capsys, "verify", "--family", "sg-eta", "--eta", "1.5",
                      "--seed", "77", "--report", str(r))
        assert code == 0
    assert r1.read_bytes() == r2.read_bytes()


# ------------------------------------------------------------ obstruct


def test_obstruct_universal_family(capsys):
    code, out = run(capsys, "obstruct", "--family", "hyp-iii-lambda",
                    "--l", "3", "--gamma-im", "1", "--lambda", "0.5",
                    "--eta", "1")
    assert code == 0
    assert "UniversalFamily" in out
    # the requested strip constant shows up in the emitted coefficients
    assert "l*exp" in out or "3" in out


def test_obstruct_inconsistent(capsys):
    code, out = run(capsys, "obstruct", "--family", "hyp-ii-gamma1")
    assert code == 0
    assert "Inconsistent" in out


def test_obstruct_zero_jet_family(capsys):
    code, out = run(capsys, "obstruct", "--family", "hyp-i-qa")
    assert code == 0
    assert "ZeroJetFamily" in out


def test_obstruct_exit_zero_for_any_verdict(capsys):
    for fam in ("hyp-iii-zero", "evo-hlnonzero", "hyp-iii-xi-tau"):
        code, out = run(capsys, "obstruct", "--family", fam)
        assert code == 0, fam


def test_gamma_and_gamma_im_are_distinct(capsys):
    # gamma is an equation constant that this family does not have;
    # gamma-im is the immersion constant and is always legal
    code, err = run_failing(capsys, "obstruct", "--family", "hyp-iii-lambda",
                            "--gamma", "1")
    assert code == 2
    assert "unknown parameter" in err
    code, out = run(capsys, "obstruct", "--family", "hyp-iii-lambda",
                    "--gamma-im", "0.8")
    assert code == 0


def test_obstruct_report_written(capsys, tmp_path):
    rp = tmp_path / "trace.txt"
    code, _ = run(capsys, "obstruct", "--family", "hyp-ii",
                  "--report", str(rp))
    assert code == 0
    assert "Inconsistent" in rp.read_text()


def test_unwritable_report_leaves_stdout_empty(capsys, tmp_path):
    code, err = run_failing(capsys, "verify", "--family", "sg-basic",
                            "--report", str(tmp_path / "no-dir" / "r.txt"))
    assert code == 2
    assert err.count("\n") == 1 and err.startswith("error: ")


# ------------------------------------------------------------- immerse


def test_immerse_small_kink(capsys, tmp_path):
    out_path = tmp_path / "patch.obj"
    code, out = run(capsys, "immerse", "--family", "sg-basic",
                    "--solution", "kink", "--a", "1",
                    "--grid", "-1:1:-1:1:0.05", "--out", str(out_path),
                    "--k-tol", "0.05", "--metric-tol", "0.05")
    assert code == 0
    assert "result: PASS" in out
    assert out_path.exists()
    assert (tmp_path / "patch.diag.txt").exists()


def test_immerse_missing_out(capsys):
    code, err = run_failing(capsys, "immerse", "--family", "sg-basic",
                            "--solution", "kink", "--grid", "-1:1:-1:1:0.1")
    assert code == 2
    assert "missing output path" in err


def test_immerse_invalid_strip(capsys, tmp_path):
    code, err = run_failing(capsys, "immerse", "--family", "evo-hlzero",
                            "--solution", "kink", "--grid", "-1:1:-1:1:0.1",
                            "--l", "1", "--gamma-im", "1", "--eta", "1",
                            "--lambda", "1", "--out", str(tmp_path / "x.obj"))
    assert code == 2
    assert "constraint violation" in err


_LAMBDA_FAMILY = ("--family", "hyp-iii-lambda", "--eta", "1", "--lambda", "1",
                  "--xi", "0.1", "--tau", "0.2", "--T", "1")


@pytest.mark.parametrize("command, strip, message", [
    ("obstruct", ("--l", "inf"),
     "constraint violation: l and gamma_im finite: l = inf, gamma_im = 1.0"),
    ("verify", ("--l", "inf"),
     "constraint violation: l and gamma_im finite: l = inf, gamma_im = 1.0"),
    ("obstruct", ("--gamma-im", "nan"),
     "constraint violation: l and gamma_im finite: l = 4.0, gamma_im = nan"),
    ("verify", ("--l", "1e308", "--gamma-im", "1"),
     "error: zero test could not sample the domain"),
    ("immerse", ("--l", "1e308", "--gamma-im", "1"),
     "error: zero test could not sample the domain"),
])
def test_strip_constants_out_of_range_are_one_line(capsys, tmp_path, command,
                                                   strip, message):
    extra = (("--solution", "linear", "--grid", "0:1:0:1:0.1",
              "--out", str(tmp_path / "x.obj")) if command == "immerse" else ())
    code, err = run_failing(capsys, command, *_LAMBDA_FAMILY, *strip, *extra)
    assert code == 2
    assert err.count("\n") == 1
    assert err.startswith(message)
    if "1e308" in strip:
        # a overflows at every sampled point; the message names the cause
        assert "l = 1e+308" in err


@pytest.mark.parametrize("family, flag, value", [
    ("sg-eta", "--eta", "inf"),
    ("hyp-ii", "--nu", "nan"),
    # no relation names tau alone, so the zero tests used to take the blame
    ("hyp-iii-xi-tau", "--tau", "nan"),
])
def test_non_finite_parameter_is_named(capsys, family, flag, value):
    code, err = run_failing(capsys, "verify", "--family", family, flag, value)
    name = flag[2:]
    assert code == 2
    assert err == f"constraint violation: {name} finite: {name} = {value}\n"


def test_obstruct_large_strip_constant(capsys):
    # l^2 overflows a float; the strip and its bounds do not
    code, out = run(capsys, "obstruct", "--family", "hyp-iii-lambda",
                    "--l", "1e200")
    assert code == 0
    assert "verdict: UniversalFamily" in out
    assert "strip: -230.259 < " in out and " < 230.259" in out


def test_immerse_no_closed_form(capsys, tmp_path):
    code, err = run_failing(capsys, "immerse", "--family", "hyp-iii-zero",
                            "--solution", "kink", "--grid", "-1:1:-1:1:0.1",
                            "--out", str(tmp_path / "x.obj"))
    assert code == 2
    assert "no closed-form immersion" in err


def test_immerse_tight_tolerance_fails(capsys, tmp_path):
    code, out = run(capsys, "immerse", "--family", "sg-basic",
                    "--solution", "kink", "--grid", "-1:1:-1:1:0.1",
                    "--out", str(tmp_path / "x.obj"),
                    "--metric-tol", "1e-12")
    assert code == 1
    assert "result: FAIL" in out


def test_immerse_without_interior_nodes_reports_nan_quietly(tmp_path):
    # a 2 x 2 grid has no node with four valid neighbours: the curvature,
    # metric and normal lines read nan, and numpy prints no warning
    proc = subprocess.run([sys.executable, "-m", "pssurf.cli", "immerse",
                           "--family", "sg-basic", "--solution", "kink",
                           "--a", "1", "--grid=-0.5:-0.48:-0.5:-0.48:0.02",
                           "--out", str(tmp_path / "t.obj")],
                          capture_output=True, text=True)
    assert proc.returncode == 1
    assert proc.stderr == ""
    assert "curvature |K+1|: mean nan max nan" in proc.stdout
    assert "result: FAIL" in proc.stdout


def test_immerse_unknown_solution(capsys, tmp_path):
    code, err = run_failing(capsys, "immerse", "--family", "sg-basic",
                            "--solution", "wave?", "--grid", "-1:1:-1:1:0.1",
                            "--out", str(tmp_path / "x.obj"))
    assert code == 2
    assert "unknown solution" in err


def test_immerse_bad_grid(capsys, tmp_path):
    code, err = run_failing(capsys, "immerse", "--family", "sg-basic",
                            "--solution", "kink", "--grid", "1:2:3",
                            "--out", str(tmp_path / "x.obj"))
    assert code == 2


def test_immerse_from_stored_grid(capsys, tmp_path):
    grid = SolutionGrid.from_solution(sg_kink(1.0), -1.0, -1.0,
                                      0.05, 0.05, 41, 41)
    src = tmp_path / "kink.csv"
    grid.to_csv(str(src))
    code, out = run(capsys, "immerse", "--family", "sg-basic",
                    "--solution", str(src), "--out", str(tmp_path / "k.obj"),
                    "--k-tol", "0.05", "--metric-tol", "0.05")
    assert code == 0
    assert "result: PASS" in out


@pytest.mark.parametrize("family, missing", [
    ("hyp-iii-lambda", "T, eta, lambda, tau, xi"),
    ("hyp-iii-xi-tau", "eta, tau, xi"),
    ("evo-hlzero", "eta, lambda"),
])
def test_immerse_missing_family_parameters(capsys, tmp_path, family, missing):
    code, err = run_failing(capsys, "immerse", "--family", family,
                            "--solution", "linear", "--grid", "0:1:0:1:0.1",
                            "--out", str(tmp_path / "o.obj"))
    assert code == 2
    assert err == f"constraint violation: params: missing parameters: {missing}\n"


def test_immerse_malformed_binary_grid(capsys, tmp_path):
    src = tmp_path / "junk.bin"
    src.write_bytes(b"not a grid header\n" + bytes(16))
    code, err = run_failing(capsys, "immerse", "--family", "sg-basic",
                            "--solution", str(src),
                            "--out", str(tmp_path / "k.obj"))
    assert code == 2
    assert err == "error: grid header missing x0, t0, hx, ht, nx, nt\n"


def _stored_kink(tmp_path, kind):
    grid = SolutionGrid.from_solution(sg_kink(1.0), -1.0, -1.0,
                                      0.1, 0.1, 21, 21)
    src = tmp_path / f"kink.{kind}"
    (grid.to_csv if kind == "csv" else grid.to_binary)(str(src))
    return src


def _rename_fields(src):
    src.write_bytes(src.read_bytes().replace(b"u,u_x,u_t,u_xx,u_xt,u_tt",
                                             b"u,u_x", 1))


def _drop_last_row(src):
    lines = src.read_text().splitlines(keepends=True)
    src.write_text("".join(lines[:-1]))


def _drop_last_value(src):
    src.write_bytes(src.read_bytes()[:-8])


def _append_value(src):
    src.write_bytes(src.read_bytes() + bytes(8))


def _zero_step(src):
    src.write_bytes(src.read_bytes().replace(b"hx=0.1", b"hx=0.0", 1))


def _promise_more(nx):
    def corrupt(src):
        src.write_bytes(src.read_bytes().replace(b"nx=21 nt=21", b"nx=%s nt="
                                                 b"100000000" % nx, 1))
    return corrupt


@pytest.mark.parametrize("kind, corrupt, message", [
    ("csv", _rename_fields, "grid fields 'u,u_x' do not match "
                            "u,u_x,u_t,u_xx,u_xt,u_tt (in any order)"),
    ("bin", _rename_fields, "grid fields 'u,u_x' do not match "
                            "u,u_x,u_t,u_xx,u_xt,u_tt (in any order)"),
    ("csv", _drop_last_row, "CSV grid data does not match the header: "
                            "440 rows of 6 values, expected 441 rows of 6"),
    ("bin", _drop_last_value, "binary grid payload does not match the header"),
    ("bin", _append_value, "binary grid payload does not match the header"),
    ("csv", _zero_step, "grid header needs finite x0, t0, positive finite "
                        "hx, ht and positive nx, nt"),
    # a header that promises more values than the file's bytes can hold
    ("csv", _promise_more(b"100000000"), "CSV grid data does not match the "
     "header: 441 rows of 6 values, expected 10000000000000000 rows of 6"),
    ("csv", _promise_more(b"1" * 25), "CSV grid data does not match the "
     f"header: 441 rows of 6 values, expected {int('1' * 25) * 10 ** 8} rows"
     " of 6"),
])
def test_immerse_rejects_malformed_stored_grid(capsys, tmp_path, kind,
                                               corrupt, message):
    src = _stored_kink(tmp_path, kind)
    corrupt(src)
    code = main(["immerse", "--family", "sg-basic", "--solution", str(src),
                 "--out", str(tmp_path / "k.obj")])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""


@pytest.mark.parametrize("row", ["1,2,3,4,5,x", "1,2,3,4,5"])
def test_immerse_rejects_a_malformed_csv_row(capfd, tmp_path, row):
    # the row lies in the last block read_rows reads; the error is the
    # one-pass parser's, on one line, at fd level
    src = _stored_kink(tmp_path, "csv")
    lines = src.read_text().splitlines(keepends=True)
    lines[-50] = row + "\n"
    src.write_text("".join(lines))
    with pytest.raises(ValueError) as serial:
        SolutionGrid._read_csv_serial(src)
    code = main(["immerse", "--family", "sg-basic", "--solution", str(src),
                 "--out", str(tmp_path / "k.obj")])
    captured = capfd.readouterr()
    assert code == 2
    assert captured.err == f"error: {serial.value}\n"
    assert captured.out == ""


# ------------------------------------------------------------ surface


_COMMON = {"-h", "--help", "--family", "--config", "--report", "--eta",
           "--alpha", "--beta", "--gamma", "--delta", "--nu", "--xi",
           "--zeta", "--tau", "--A", "--B", "--Q", "--T", "--sign",
           "--lambda", "--l", "--gamma-im"}
_SURFACE = {
    "verify": _COMMON | {"--points", "--seed", "--tol", "--sign-im"},
    "obstruct": _COMMON,
    "immerse": _COMMON | {"--sign-im", "--solution", "--grid", "--a", "--p",
                          "--C", "--out", "--eps-deg", "--k-tol",
                          "--metric-tol"},
}


@pytest.mark.parametrize("command", sorted(_SURFACE))
def test_cli_option_surface(command):
    # each subcommand registers exactly the flags it reads
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    got = {s for a in sub.choices[command]._actions for s in a.option_strings}
    assert got == _SURFACE[command]


@pytest.mark.parametrize("argv", [
    ["obstruct", "--family", "sg-basic", "--order", "1"],
    ["obstruct", "--family", "sg-basic", "--tol", "1e-30"],
    ["obstruct", "--family", "sg-basic", "--sign-im", "2"],
    ["obstruct", "--family", "sg-basic", "--seed", "3"],
    ["immerse", "--family", "sg-basic", "--solution", "kink",
     "--grid", "-1:1:-1:1:0.5", "--out", "m.obj", "--points", "3"],
], ids=lambda argv: f"{argv[0]}-{argv[-2].lstrip('-')}")
def test_unread_flags_are_usage_errors(monkeypatch, tmp_path, argv):
    monkeypatch.chdir(tmp_path)   # a run that got through writes m.obj here
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2


@pytest.mark.parametrize("f11", [
    "(" * 600 + "z0" + ")" * 600,
    "z0 + 1/0",
    "z0 + 1/0.0",
    "z0 + 10.0^400",
    "z0 + 10^400",
    "z0 + 2^100000",
    "z0 + 1" + "0" * 400,
    "z0 + 10^10^10",
    "z0 + 10^200*10^200",
], ids=["600-parentheses", "exact-1/0", "float-1/0.0", "float-10.0^400",
        "exact-10^400", "exact-2^100000", "401-digit-literal", "10^10^10",
        "exact-product"])
def test_malformed_table_entry_is_one_line(capsys, tmp_path, f11):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"[params]\nf11 = {f11}\n")
    code, err = run_failing(capsys, "verify", "--family", "evo-hlzero",
                            "--config", str(cfg))
    assert code == 2
    assert err.count("\n") == 1


@pytest.mark.parametrize("command", ["verify", "immerse"])
@pytest.mark.parametrize("table", [
    "f11 = exp(gamma_im*z0)\nf12 = exp(gamma_im*z0)*z1\n",
    "f11 = exp(B*z0)\n"])
def test_table_text_names_only_family_parameters(capsys, tmp_path, command,
                                                  table):
    # verify would sample the stray name freely and immerse would bind it
    # to something else, or to nothing
    cfg = tmp_path / "run.cfg"
    cfg.write_text("[params]\n" + table)
    argv = [command, "--family", "evo-hlzero", "--config", str(cfg)]
    if command == "immerse":
        argv += ["--grid=-0.1:0.1:-0.1:0.1:0.05", "--out",
                 str(tmp_path / "s.obj")]
    code, err = run_failing(capsys, *argv)
    assert code == 2
    assert err.count("\n") == 1
    assert err.startswith("constraint violation: unknown parameter: f11 names")


def test_non_finite_table_entry_is_not_blamed_on_constraints(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("[params]\nf11 = z0 + 1e400\n")
    code, err = run_failing(capsys, "verify", "--family", "evo-hlzero",
                            "--config", str(cfg))
    assert code == 2
    assert err.count("\n") == 1
    assert err.startswith("error: zero test could not sample the domain")
    # each of the 64 points drawn is counted once
    assert "0 rejected by the constraints and 64 where the expression is" \
        " not finite" in err


# -------------------------------------------------------------- config


def test_config_file_supplies_params(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("[params]\neta = 1.5\n")
    code, out = run(capsys, "verify", "--family", "sg-eta",
                    "--config", str(cfg))
    assert code == 0
    assert "eta=1.5" in out


def test_flags_override_config(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("[params]\neta = 0\n")   # would be rejected on its own
    code, out = run(capsys, "verify", "--family", "sg-eta",
                    "--config", str(cfg), "--eta", "1.5")
    assert code == 0


def test_config_env_var(capsys, tmp_path, monkeypatch):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("family = sg-eta\n[params]\neta = 1.2\n")
    monkeypatch.setenv("PSSURF_CONFIG", str(cfg))
    code, out = run(capsys, "verify")
    assert code == 0
    assert "sg-eta" in out


def test_config_command_section(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("[obstruct]\nfamily = hyp-ii-gamma1\n")
    code, out = run(capsys, "obstruct", "--config", str(cfg))
    assert code == 0
    assert "Inconsistent" in out


def test_config_unknown_key_rejected(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("eta = 1.5\n")   # parameters must live in [params]
    code, err = run_failing(capsys, "verify", "--family", "sg-eta",
                            "--config", str(cfg))
    assert code == 2
    assert "[params]" in err


@pytest.mark.parametrize("command, key, value", [
    ("obstruct", "tol", "1e-30"),
    ("immerse", "points", "3"),
])
def test_config_key_of_another_subcommand_rejected(capsys, tmp_path, command,
                                                    key, value):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"[{command}]\n{key} = {value}\n")
    code, err = run_failing(capsys, command, "--family", "sg-basic",
                            "--config", str(cfg))
    assert code == 2
    assert err.count("\n") == 1
    assert repr(key) in err and command in err


_KINK = ("--family", "sg-basic", "--solution", "kink", "--grid", "-1:1:-1:1:0.5")


def _without(flags, key):
    """flags, less the flag that a config key would be overridden by."""
    i = flags.index(f"--{key}") if f"--{key}" in flags else len(flags)
    return flags[:i] + flags[i + 2:]


@pytest.mark.parametrize("section", ["", "[{command}]\n"],
                         ids=["top-level", "own-section"])
@pytest.mark.parametrize("command, key, value, message", [
    ("verify", "points", "abc", "constraint violation: config: points = 'abc' "
                                "is not an integer >= 1"),
    ("verify", "points", "1e3", "constraint violation: config: points = '1e3' "
                                "is not an integer >= 1"),
    ("verify", "seed", "1.5", "constraint violation: config: seed = '1.5' "
                              "is not an integer >= 0"),
    ("verify", "tol", "abc", "constraint violation: config: tol = 'abc' "
                             "is not a finite number >= 0"),
    ("immerse", "solution", "1", "constraint violation: solution: unknown "
                                 "solution '1'"),
    ("immerse", "grid", "5", "constraint violation: grid: expected 5 or 6 "
                             "colon fields, got '5'"),
    ("immerse", "family", "7", "error: unknown family '7'"),
    ("immerse", "eps-deg", "x", "constraint violation: config: eps-deg = 'x' "
                                "is not a finite number >= 0"),
    ("immerse", "k-tol", "abc", "constraint violation: config: k-tol = 'abc' "
                                "is not a finite number >= 0"),
    # values of the right type that no run can use
    ("verify", "points", "0", "constraint violation: config: points = '0' "
                              "is not an integer >= 1"),
    ("verify", "points", "-5", "constraint violation: config: points = '-5' "
                               "is not an integer >= 1"),
    ("verify", "seed", "-1", "constraint violation: config: seed = '-1' "
                             "is not an integer >= 0"),
    ("verify", "tol", "nan", "constraint violation: config: tol = 'nan' "
                             "is not a finite number >= 0"),
    ("verify", "tol", "-1", "constraint violation: config: tol = '-1' "
                            "is not a finite number >= 0"),
    ("immerse", "eps-deg", "nan", "constraint violation: config: eps-deg = "
                                  "'nan' is not a finite number >= 0"),
    ("immerse", "k-tol", "nan", "constraint violation: config: k-tol = 'nan' "
                                "is not a finite number >= 0"),
    ("immerse", "metric-tol", "-1", "constraint violation: config: metric-tol "
                                    "= '-1' is not a finite number >= 0"),
    ("immerse", "a", "nan", "constraint violation: config: a = 'nan' "
                            "is not a finite number"),
    ("immerse", "a", "inf", "constraint violation: config: a = 'inf' "
                            "is not a finite number"),
    ("immerse", "C", "nan", "constraint violation: config: C = 'nan' "
                            "is not a finite number"),
])
def test_bad_config_value_is_one_line(capsys, tmp_path, section, command, key,
                                      value, message):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{section.format(command=command)}{key} = {value}\n")
    flags = (_KINK + ("--out", str(tmp_path / "m.obj"))
             if command == "immerse" else ("--family", "sg-basic"))
    code, err = run_failing(capsys, command, *_without(flags, key),
                            "--config", str(cfg))
    assert code == 2
    assert err.count("\n") == 1
    assert err.startswith(message)


def test_points_that_do_not_fit_in_memory_are_named(capsys, monkeypatch):
    def no_room(*args, **kwargs):
        raise MemoryError
    # stands in for numpy refusing arrays of 10^12 floats; nothing is
    # allocated
    monkeypatch.setattr(forms, "is_zero", no_room)
    code, err = run_failing(capsys, "verify", "--family", "sg-basic",
                            "--points", "1000000000000")
    assert code == 2
    assert err == ("constraint violation: points: 1000000000000 sample points"
                   " per zero test do not fit in memory; lower --points\n")


def test_grid_that_does_not_fit_in_memory_is_named(capsys, tmp_path):
    # 6 * 10^15 nodes a side: numpy refuses the axes at once, past any
    # address space, and nothing is allocated
    grid = "-3:3:-3:3:0.000000000000001"
    code, err = run_failing(capsys, "immerse", "--family", "sg-basic",
                            "--solution", "kink", "--grid", grid,
                            "--out", str(tmp_path / "k.obj"))
    assert code == 2
    assert err == (f"constraint violation: grid: {grid} has more nodes than"
                   " fit in memory; raise its step\n")
    assert not (tmp_path / "k.obj").exists()


@pytest.mark.parametrize("command, flag, value", [
    ("verify", "--points", "0"), ("verify", "--points", "-5"),
    ("verify", "--seed", "-1"), ("verify", "--tol", "nan"),
    ("verify", "--tol", "-1"), ("immerse", "--eps-deg", "nan"),
    ("immerse", "--k-tol", "nan"), ("immerse", "--metric-tol", "-1"),
    ("immerse", "--a", "nan"), ("immerse", "--a", "inf"),
    ("immerse", "--p", "inf"), ("immerse", "--C", "nan"),
])
def test_bad_flag_value_is_a_usage_error(capsys, monkeypatch, tmp_path,
                                         command, flag, value):
    monkeypatch.chdir(tmp_path)   # a run that got through writes m.obj here
    flags = _KINK + ("--out", "m.obj") if command == "immerse" else ()
    with pytest.raises(SystemExit) as info:
        main([command, *flags, flag, value])
    captured = capsys.readouterr()
    assert info.value.code == 2
    assert captured.out == ""
    assert f"error: argument {flag}: {value!r} is not " in captured.err


# a value each option set by a config key takes, as its flag's text
_SAMPLE_TEXT = {"family": "sg-eta", "report": "r.txt", "points": "16",
                "seed": "9", "tol": "1e-6", "solution": "linear",
                "grid": "0:1:0:2:0.5", "a": "-2", "p": "0.5", "C": "3",
                "out": "m.obj", "eps_deg": "0.5", "k_tol": "0.1",
                "metric_tol": "0.01"}


def _config_of(*argv):
    return make_config(build_parser().parse_args(argv))


@pytest.mark.parametrize("name", [n for n, o in OPTIONS.items() if o.file])
def test_flag_and_config_key_give_the_same_config(tmp_path, monkeypatch, name):
    monkeypatch.delenv("PSSURF_CONFIG", raising=False)
    opt = OPTIONS[name]
    # a [params] value reads "1.5" as the float its flag makes of it
    command = opt.commands[-1]
    text = _SAMPLE_TEXT[name] if opt.file == "key" else "1.5"
    key = name.replace("_", "-")
    if opt.file == "key":
        bodies = [f"{key} = {text}\n", f"[{command}]\n{key} = {text}\n"]
    else:
        bodies = [f"[params]\n{name} = {text}\n"]
    expected = _config_of(command, f"--{key}", text)
    got = expected.params[name] if opt.file == "params" else getattr(expected,
                                                                     name)
    assert got == opt.convert(text) and got != opt.default
    for i, body in enumerate(bodies):
        path = tmp_path / f"{i}.cfg"
        path.write_text(body)
        assert _config_of(command, "--config", str(path)) == expected, body


@pytest.mark.parametrize("source", ["flag", "config"])
@pytest.mark.parametrize("solution, key, value", [
    ("csv", "grid", "-1:1:-1:1:0.5"), ("bin", "grid", "-1:1:-1:1:0.5"),
    ("csv", "a", "2"), ("bin", "a", "2"),
    ("kink", "p", "2"), ("kink", "C", "2"), ("linear", "a", "2"),
])
def test_option_the_solution_does_not_read_is_refused(capsys, tmp_path, source,
                                                      solution, key, value):
    if solution in ("csv", "bin"):
        src, flags = str(_stored_kink(tmp_path, solution)), ()
    else:
        src, flags = solution, ("--grid", "-1:1:-1:1:0.5")
    if source == "flag":
        flags += (f"--{key}", value)
    else:
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key} = {value}\n")
        flags += ("--config", str(cfg))
    code, err = run_failing(capsys, "immerse", "--family", "sg-basic",
                            "--solution", src, "--out", str(tmp_path / "m.obj"),
                            *flags)
    assert code == 2
    assert err == f"constraint violation: {key}: not read by --solution {src}\n"


def test_linear_solution_reads_p_and_c(capsys, tmp_path):
    def report(*flags):
        code, out = run(capsys, "immerse", "--family", "hyp-iii-xi-tau",
                        "--eta", "1", "--xi", "0.5", "--tau", "4",
                        "--solution", "linear", "--grid", "-0.3:0.3:-0.3:0.3:0.1",
                        "--out", str(tmp_path / "l.obj"), *flags)
        assert code in (0, 1)
        return out
    default = report()
    assert report("--p", "1", "--C", "1") == default
    assert report("--p", "0.5") != default
    assert report("--C", "2") != default


def test_linear_solution_reads_aliased_parameters(capsys, tmp_path):
    # the grid solves the equation the form was built for, whichever name
    # gave a parameter; only the echo of the parameters as given differs
    def report(*flags):
        code, out = run(capsys, "immerse", "--family", "hyp-iii-lambda",
                        "--eta", "1", "--tau", "0.2", "--T", "1", *flags,
                        "--solution", "linear", "--p", "1",
                        "--grid=-0.1:0.1:-0.1:0.1:0.05",
                        "--out", str(tmp_path / "l.obj"))
        assert code in (0, 1)
        return [line for line in out.splitlines()
                if not line.startswith("parameters:")]
    cfg = tmp_path / "lam.cfg"
    cfg.write_text("[params]\nlam = 1\n")
    expected = report("--lambda", "1", "--xi", "0.1")
    assert report("--lambda", "1", "--zeta", "0.1") == expected
    assert report("--config", str(cfg), "--xi", "0.1") == expected


# the six families with a closed-form immersion, each with every parameter
# its table reads pinned; hyp-iii-xi-tau once per branch
_IMMERSING = {
    "sg-basic": (),
    "sg-eta": ("--eta", "1.3"),
    "hyp-i-qa": ("--eta", "1", "--A", "1", "--Q", "0.2"),
    "evo-hlzero": ("--eta", "1", "--lambda", "1"),
    "hyp-iii-lambda": _LAMBDA_FAMILY[2:],
    "hyp-iii-xi-tau": ("--eta", "1", "--xi", "0.5", "--tau", "4"),
    "hyp-iii-xi-tau-xi0": ("--eta", "1", "--xi", "0", "--tau", "1"),
}
_SOLVES = {("kink", "sg-basic"), ("kink", "sg-eta"), ("kink", "hyp-i-qa"),
           ("linear", "hyp-iii-lambda"), ("linear", "hyp-iii-xi-tau"),
           ("linear", "hyp-iii-xi-tau-xi0")}


@pytest.mark.parametrize("case", sorted(_IMMERSING))
@pytest.mark.parametrize("solution", sorted(EXACT))
def test_exact_solution_immerses_only_where_it_solves(capsys, tmp_path,
                                                      solution, case):
    family = case.removesuffix("-xi0")
    argv = ("immerse", "--family", family, *_IMMERSING[case],
            "--solution", solution, "--grid=-0.3:0.3:-0.3:0.3:0.1",
            "--out", str(tmp_path / "m.obj"))
    if (solution, case) in _SOLVES:
        code, out = run(capsys, *argv)
        assert code in (0, 1)
        assert out.startswith(f"family: {family}\n")
        assert "\nresult: " in out
        return
    code, err = run_failing(capsys, *argv)
    assert code == 2
    assert err.count("\n") == 1
    assert err.startswith(f"constraint violation: solution: {solution} does "
                          f"not solve the equation of {family}: residual "
                          "nonzero (relative residual ")


def test_hyp_i_qa_takes_the_kink_only_at_a_equal_one(capsys, tmp_path):
    # u_xt = sin(u/|A|): the kink of sin(u) solves it at A = 1 alone
    code, err = run_failing(capsys, "immerse", "--family", "hyp-i-qa",
                            "--eta", "1", "--A", "2", "--Q", "0.2",
                            "--solution", "kink", "--grid=-0.3:0.3:-0.3:0.3:0.1",
                            "--out", str(tmp_path / "m.obj"))
    assert code == 2
    assert "kink does not solve the equation of hyp-i-qa" in err


def test_linear_solution_immerses_the_xi_zero_branch(capsys, tmp_path):
    # u = exp(x) + tau*x*t solves u_xt = tau
    def mean_k(h):
        code, out = run(capsys, "immerse", "--family", "hyp-iii-xi-tau",
                        "--eta", "1", "--xi", "0", "--tau", "1",
                        "--solution", "linear",
                        f"--grid=-0.3:0.3:-0.3:0.3:{h}",
                        "--out", str(tmp_path / "l.obj"))
        line = next(l for l in out.splitlines()
                    if l.startswith("curvature |K+1|: mean "))
        return code, out, float(line.split()[3])
    code, out, coarse = mean_k(0.02)
    assert "grid: 31 x 31 nodes" in out
    code, out, fine = mean_k(0.01)
    assert code == 0
    assert "result: PASS" in out
    assert coarse / fine > 3


@pytest.mark.parametrize("grid", [(), ("--grid", "-1:1:-1:1:0.5")])
def test_immerse_without_a_solution_names_it(capsys, tmp_path, grid):
    code, err = run_failing(capsys, "immerse", "--family", "sg-basic", *grid,
                            "--out", str(tmp_path / "m.obj"))
    assert code == 2
    assert err == ("constraint violation: solution: no solution given; use "
                   "kink, linear, or a stored grid (.csv/.bin)\n")


def test_dash_led_exponent_values_are_values(capsys, tmp_path, monkeypatch):
    monkeypatch.delenv("PSSURF_CONFIG", raising=False)
    assert (_config_of("verify", "--tau", "-1e-3")
            == _config_of("verify", "--tau=-1e-3"))
    assert _config_of("verify", "--tau", "-1e-3").params == {"tau": -1e-3}
    grid = "-1:1:-1:1:5e-1"
    assert _config_of("immerse", "--grid", grid).grid == grid
    code, out = run(capsys, "immerse", "--family", "sg-basic",
                    "--solution", "kink", "--grid", grid,
                    "--out", str(tmp_path / "m.obj"))
    assert "grid: 5 x 5 nodes, hx=0.5 ht=0.5" in out
    code, err = run_failing(capsys, "verify", "--family", "hyp-iii-xi-tau",
                            "--tau", "-inf")
    assert code == 2
    assert err == "constraint violation: tau finite: tau = -inf\n"


def test_missing_config_file(capsys):
    code, err = run_failing(capsys, "verify", "--family", "sg-basic",
                            "--config", "/does/not/exist.cfg")
    assert code == 2


# ------------------------------------------------------- console script


def test_console_script_entry():
    proc = subprocess.run([sys.executable, "-m", "pssurf.cli", "verify",
                           "--family", "sg-basic"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "result: PASS" in proc.stdout
