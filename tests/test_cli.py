"""End-to-end tests of the command line, driven through main()."""

import json
import math
import os
import platform
import subprocess
import sys
import warnings

import pytest

import srkweak
from srkweak import cli
from srkweak.cli import main
from srkweak.families import named_scheme
from srkweak.tableau import deserialize, serialize


def test_check_text_output_and_met_claim(capsys):
    code = main(["check", "--scheme", "rdi2wm", "--claim", "(2,2)"])
    out, err = capsys.readouterr()
    assert code == 0
    assert err == ""
    assert out.startswith("condition residuals for RDI2WM")
    assert "inferred order: p_det=2, p_stoch=2" in out


def test_check_unmet_claim(capsys):
    code = main(["check", "--scheme", "em", "--claim", "2,1"])
    out, err = capsys.readouterr()
    assert code == 1
    assert "claim (2, 1) not met: inferred (1, 1)" in err
    # the report is still printed before the verdict
    assert "inferred order: p_det=1, p_stoch=1" in out


def test_check_csv_output(capsys):
    code = main(["check", "--scheme", "em", "--csv"])
    out, _ = capsys.readouterr()
    lines = out.splitlines()
    assert code == 0
    assert lines[0] == "id,residual,satisfied"
    assert len(lines) == 58
    assert lines[1] == "W1,0.00000E+00,true"


def test_check_malformed_claim(capsys):
    code = main(["check", "--scheme", "em", "--claim", "2"])
    _, err = capsys.readouterr()
    assert code == 1
    assert "claim must look like" in err
    code = main(["check", "--scheme", "em", "--claim", "a,b"])
    _, err = capsys.readouterr()
    assert code == 1
    assert "claim must hold two integers, got 'a,b'" in err


def test_check_malformed_claim_writes_no_report(capsys):
    code = main(["check", "--scheme", "em", "--claim", "9,9,9"])
    out, err = capsys.readouterr()
    assert code == 1
    assert out == ""
    assert err == ("error: claim must look like '2,1' or '(2,1)', "
                   "got '9,9,9'\n")


def test_check_reads_tableau_file(tmp_path, capsys):
    path = tmp_path / "rdi1wm.json"
    path.write_text(serialize(named_scheme("RDI1WM")))
    code = main(["check", "--file", str(path)])
    out, _ = capsys.readouterr()
    assert code == 0
    assert "condition residuals for RDI1WM" in out
    assert "inferred order: p_det=2, p_stoch=1" in out


def test_check_rejects_invalid_tableau_file(tmp_path, capsys):
    doc = json.loads(serialize(named_scheme("EM")))
    doc["A0"][0][0] = 0.5  # diagonal entry: no longer explicit
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code = main(["check", "--file", str(path)])
    _, err = capsys.readouterr()
    assert code == 1
    assert err.splitlines()[0] == ("invalid tableau: A0[1][1] = 0.5 must be 0 "
                                   "in an explicit scheme")
    assert "is not a valid explicit tableau" in err


def test_check_rejects_a_tableau_file_whose_node_overflows(tmp_path,
                                                          capsys):
    # every entry is finite, but row 3 of A0 sums to c0[3] = inf
    doc = json.loads(serialize(named_scheme("RDI2WM")))
    doc["A0"][2] = [1e308, 1e308, 0.0]
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps(doc))
    code = main(["check", "--file", str(path)])
    out, err = capsys.readouterr()
    assert code == 1
    assert out == ""
    assert err.splitlines() == [
        "invalid tableau: c0[3] = inf, the sum of row 3 of A0",
        "error: %s is not a valid explicit tableau" % path]


def test_check_unreadable_file(tmp_path, capsys):
    code = main(["check", "--file", str(tmp_path / "nope.json")])
    _, err = capsys.readouterr()
    assert code == 1
    assert "cannot read" in err


def test_check_file_not_utf8(tmp_path, capsys):
    path = tmp_path / "binary.json"
    path.write_bytes(b"\xff\xfe")
    code = main(["check", "--file", str(path)])
    out, err = capsys.readouterr()
    assert code == 1
    assert out == ""
    assert err.startswith("error: cannot read %s: " % path)
    assert err.count("\n") == 1


def test_check_requires_a_source(capsys):
    code = main(["check"])
    _, err = capsys.readouterr()
    assert code == 1
    assert "one of --scheme, --family or --file is required" in err


def test_check_rejects_two_sources(capsys):
    code = main(["check", "--scheme", "em", "--family", "ord21"])
    _, err = capsys.readouterr()
    assert code == 1
    assert "not allowed with" in err


def test_check_unknown_scheme(capsys):
    code = main(["check", "--scheme", "srk99"])
    _, err = capsys.readouterr()
    assert code == 1
    assert "unknown scheme" in err


@pytest.mark.parametrize("tol", ["-1", "nan"])
def test_check_rejects_bad_tolerance(capsys, tol):
    code = main(["check", "--scheme", "em", "--tol", tol])
    out, err = capsys.readouterr()
    assert code == 1
    assert out == ""
    assert err == ("error: tol must be a finite non-negative number, "
                   "got %r\n" % float(tol))


def test_check_rejects_non_finite_family_parameter(capsys):
    code = main(["check", "--family", "case-221", "--c6", "nan",
                 "--c7", "0.5"])
    out, err = capsys.readouterr()
    assert code == 1
    assert out == ""
    assert err == "error: parameter c6 must be finite, got nan\n"


def test_check_refuses_an_invalid_family_member(capsys):
    # admissible parameters whose B0 entries overflow to nan: the
    # family builder refuses the member, with one error line
    code = main(["check", "--family", "case-221", "--c6", "1e200",
                 "--c7", "1e200"])
    out, err = capsys.readouterr()
    assert code == 1
    assert out == ""
    assert err == ("error: family CASE_221: the closed forms underflow or "
                   "overflow for c6 = 1e+200, c7 = 1e+200\n")


def test_family_overflowing_member_exits_1(capsys):
    code = main(["family", "case-221", "--c6", "1e200", "--c7", "1e200"])
    out, err = capsys.readouterr()
    assert code == 1
    assert out == ""
    assert err == ("error: family CASE_221: the closed forms underflow or "
                   "overflow for c6 = 1e+200, c7 = 1e+200\n")


def test_family_prints_tableau_json(capsys):
    code = main(["family", "ord32-221c", "--lambda", "0.75", "--c8", "0.5"])
    out, err = capsys.readouterr()
    assert code == 0
    assert err == ""
    tab = deserialize(out)
    assert tab.with_name("RDI3WM") == named_scheme("RDI3WM")


def test_family_name_override(capsys):
    code = main(["family", "ord21", "--c2", "0.66", "--name", "mine"])
    out, _ = capsys.readouterr()
    assert code == 0
    assert deserialize(out).name == "mine"


def test_family_verify_writes_report_to_stderr(capsys):
    code = main(["family", "ord32-221c", "--lambda", "1.0", "--c8", "0.5",
                 "--verify"])
    out, err = capsys.readouterr()
    assert code == 0
    deserialize(out)  # stdout stays clean JSON
    assert "inferred order: p_det=3, p_stoch=2" in err


def test_family_constraint_violation_exits_2(capsys):
    code = main(["family", "ord21", "--c2", "0"])
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    assert "c2 != 0" in err


def test_family_underflowing_parameter_exits_1(capsys):
    code = main(["family", "case-a", "--c3", "1e-200"])
    out, err = capsys.readouterr()
    assert code == 1
    assert out == ""
    assert err == ("error: family CASE_A: the closed forms underflow or "
                   "overflow for c3 = 1e-200\n")


def test_family_foreign_parameter_exits_1(capsys):
    code = main(["family", "ord11", "--c5", "0.1"])
    _, err = capsys.readouterr()
    assert code == 1
    assert "parameter c5 is not free" in err


def test_family_refuses_a_sign_choice_it_lacks(capsys):
    code = main(["family", "case-a", "--sign-branch", "-1"])
    out, err = capsys.readouterr()
    assert code == 1
    assert out == ""
    assert err == ("error: parameter sign_branch is not free in family "
                   "CASE_A; free parameters: c3, c4\n")
    assert main(["family", "case-a", "--sign-branch", "1"]) == 0
    assert deserialize(capsys.readouterr()[0]).with_name("RDI2WM") \
        == named_scheme("RDI2WM")


def test_family_unknown_id_exits_1(capsys):
    code = main(["family", "ord99"])
    _, err = capsys.readouterr()
    assert code == 1
    assert "unknown family" in err


def test_family_verify_rejects_bad_tolerance(capsys):
    code = main(["family", "ord11", "--verify", "--tol", "-1"])
    out, err = capsys.readouterr()
    assert code == 1
    assert out == ""  # nothing is printed before the error
    assert err == ("error: tol must be a finite non-negative number, "
                   "got -1.0\n")


@pytest.mark.parametrize("scheme, m, triple", [
    ("em", 1, "1,1,1"),
    ("rdi2wm", 2, "2,10,3"),
    ("rdi3wm", 3, "3,21,6"),
])
def test_cost_output(scheme, m, triple, capsys):
    code = main(["cost", "--scheme", scheme, "--m", str(m)])
    out, _ = capsys.readouterr()
    assert code == 0
    assert out == "drift_evals,diffusion_column_evals,random_draws\n%s\n" % triple


@pytest.mark.parametrize("m", ["0", "-2"])
def test_cost_rejects_bad_component_count(capsys, m):
    code = main(["cost", "--scheme", "em", "--m", m])
    out, err = capsys.readouterr()
    assert code == 1
    assert out == ""
    assert err == "error: m must be an integer >= 1, got %s\n" % m


@pytest.mark.parametrize("command", [["check"], ["cost", "--m", "1"]])
@pytest.mark.parametrize("option,value", [
    ("--c3", "0.5"), ("--c11", "1"), ("--lambda", "2"),
    ("--sign-branch", "-1"), ("--sign-branch", "1")])
def test_family_parameter_without_a_family_exits_1(tmp_path, capsys,
                                                   command, option, value):
    # nothing reads a family parameter of a named scheme or a file, so
    # it is refused rather than silently dropped
    path = tmp_path / "rdi2wm.json"
    path.write_text(serialize(named_scheme("RDI2WM")), encoding="utf-8")
    for source in (["--scheme", "RDI2WM"], ["--file", str(path)]):
        code = main(command + source + [option, value])
        out, err = capsys.readouterr()
        assert code == 1
        assert out == ""
        assert err == "error: %s applies only to a --family tableau\n" % option
    code = main(command + ["--family", "case-a", "--c3", "0.5",
                           "--sign-branch", "1"])
    assert code == 0 and capsys.readouterr()[1] == ""


def test_enumerate_two_components(capsys):
    code = main(["enumerate", "--m", "2", "--h", "0.5"])
    out, _ = capsys.readouterr()
    lines = out.splitlines()
    assert code == 0
    assert lines[0] == "p,I1,I2,V21"
    assert len(lines) == 1 + 18
    rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
    assert abs(sum(r[0] for r in rows) - 1.0) < 1e-15
    root = math.sqrt(3 * 0.5)
    for _, i1, i2, v21 in rows:
        assert i1 in (-root, 0.0, root)
        assert i2 in (-root, 0.0, root)
        assert v21 in (-0.5, 0.5)


def test_enumerate_component_cap(capsys):
    code = main(["enumerate", "--m", "5", "--h", "0.5"])
    _, err = capsys.readouterr()
    assert code == 1
    assert "m <= 4" in err


def test_enumerate_refuses_an_overflowing_h(capsys):
    # sqrt(3 h) at h = 1e308 is inf, and the middle atom 0 * inf a NaN
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["enumerate", "--m", "1", "--h", "1e308"])
    out, err = capsys.readouterr()
    assert code == 1 and out == ""
    assert err.count("\n") == 1 and err.startswith("error: h = 1e+308 ")


def test_study_writes_reports_and_csvs(tmp_path, capsys):
    code = main(["study", "--problem", "linear:a=1,b=1,p=2",
                 "--schemes", "em,exem", "--h", "0.5,0.25",
                 "--M", "24", "--batches", "4",
                 "--out-dir", str(tmp_path)])
    out, err = capsys.readouterr()
    assert code == 0
    assert err == ""
    assert "EM linear:a=1,b=1,p=2 h=5.00000E-01 mu_hat=" in out
    assert "EXEM linear:a=1,b=1,p=2 fitted_order=" in out
    assert "wrote" in out
    errors = (tmp_path / "errors.csv").read_text().splitlines()
    orders = (tmp_path / "orders.csv").read_text().splitlines()
    assert errors[0] == "scheme,problem,h,M,u_Mh,mu_hat,sigma2_mu,ci_a,ci_b,diverged"
    assert len(errors) == 1 + 4
    assert orders[0] == "scheme,problem,fitted_order"
    assert len(orders) == 1 + 2


def test_study_refuses_an_out_dir_before_running(tmp_path, capsys,
                                                monkeypatch):
    def run_study(*args, **kwargs):
        raise AssertionError("the study ran")

    monkeypatch.setattr(cli, "run_study", run_study)
    afile = tmp_path / "afile"
    afile.write_text("")
    out_dir = str(afile / "sub")
    code = main(["study", "--problem", "nonlinear16", "--schemes", "em",
                 "--h", "0.5,0.25", "--M", "8", "--batches", "2",
                 "--out-dir", out_dir])
    out, err = capsys.readouterr()
    assert code == 1
    assert out == ""
    assert err.startswith("error: cannot write %s: " % out_dir)
    assert err.count("\n") == 1


def test_study_reports_a_csv_it_cannot_write(tmp_path, capsys):
    (tmp_path / "orders.csv").mkdir()
    code = main(["study", "--problem", "nonlinear16", "--schemes", "em",
                 "--h", "0.5,0.25", "--M", "8", "--batches", "2",
                 "--out-dir", str(tmp_path)])
    out, err = capsys.readouterr()
    assert code == 1
    assert out == ""
    assert err.startswith("error: cannot write %s: "
                          % (tmp_path / "orders.csv"))
    assert err.count("\n") == 1


@pytest.mark.parametrize("option,value,message", [
    ("--h", "0.5", "a study needs at least two distinct step sizes, "
     "got 0.5"),
    ("--schemes", "em,srk9", "unknown scheme 'srk9'"),
    ("--M", "5", "M must be an integer >= 20, got 5"),
    ("--threads", "0", "threads must be an integer >= 1, got 0"),
], ids=["h", "schemes", "M", "threads"])
def test_refused_study_leaves_no_out_dir(tmp_path, capsys, option, value,
                                         message):
    options = {"--problem": "nonlinear16", "--schemes": "em",
               "--h": "0.5,0.25", "--M": "40", "--threads": "1"}
    options[option] = value
    out_dir = tmp_path / "newdir"
    code = main(["study"] + [w for pair in options.items() for w in pair]
                + ["--out-dir", str(out_dir)])
    out, err = capsys.readouterr()
    assert code == 1
    assert out == ""
    assert err.startswith("error: %s" % message)
    assert err.count("\n") == 1
    assert not out_dir.exists()


def test_study_thread_count_invariance(tmp_path, capsys):
    args = ["study", "--problem", "nonlinear16", "--schemes", "em,rdi2wm",
            "--h", "0.5,0.25", "--M", "40", "--batches", "4"]
    dirs = {}
    for threads in ("1", "4"):
        d = tmp_path / threads
        assert main(args + ["--threads", threads,
                            "--out-dir", str(d)]) == 0
        dirs[threads] = d
    capsys.readouterr()
    for name in ("errors.csv", "orders.csv"):
        assert (dirs["1"] / name).read_bytes() == (dirs["4"] / name).read_bytes()


def test_study_nonfinite_estimates_exit_3(tmp_path, capsys):
    # the drift is so stiff that the finest steps overflow or diverge
    # completely while the coarse ones stay representable
    with pytest.warns(UserWarning, match="order fit drops"):
        code = main(["study", "--problem", "linear:a=-1e61,b=1,p=2",
                     "--schemes", "em", "--h", "1.0,0.5,0.25,0.125",
                     "--M", "12", "--batches", "2",
                     "--out-dir", str(tmp_path)])
    out, err = capsys.readouterr()
    assert code == 3
    assert "numerical failure: non-finite estimates" in err
    assert "wrote" in out  # partial results are still persisted
    assert (tmp_path / "errors.csv").exists()


def test_study_all_nonfinite_keeps_results_exit_3(tmp_path, capsys):
    # every estimate is inf or nan, so no order can be fitted; the rows
    # are still written, with the fitted order nan
    with pytest.warns(UserWarning, match="order fit drops"):
        code = main(["study", "--problem", "linear:a=-1e200,b=1",
                     "--schemes", "em", "--h", "1,0.5", "--M", "40",
                     "--batches", "2", "--out-dir", str(tmp_path)])
    out, err = capsys.readouterr()
    assert code == 3
    assert "numerical failure: non-finite estimates or orders" in err
    assert "fitted_order=NAN" in out
    errors = (tmp_path / "errors.csv").read_text().splitlines()
    assert len(errors) == 3
    assert (tmp_path / "orders.csv").read_text().splitlines()[1:] == [
        'EM,"linear:a=-1e+200,b=1,p=2",NAN']


def test_study_refuses_overflowing_exact_expectation(tmp_path, capsys):
    out_dir = tmp_path / "out"
    code = main(["study", "--problem", "linear:b=40",
                 "--schemes", "em,rdi2wm", "--h", "0.5,0.25", "--M", "40",
                 "--batches", "2", "--out-dir", str(out_dir)])
    out, err = capsys.readouterr()
    assert code == 1
    assert out == ""
    assert err.startswith("error: bad problem 'linear:b=40': the exact "
                          "functional")
    assert not out_dir.exists()


def test_study_unknown_problem(capsys):
    code = main(["study", "--problem", "bogus", "--schemes", "em",
                 "--h", "0.5"])
    _, err = capsys.readouterr()
    assert code == 1
    assert "unknown problem" in err


def test_study_malformed_step_list(capsys):
    code = main(["study", "--problem", "nonlinear16", "--schemes", "em",
                 "--h", "0.5,zero"])
    _, err = capsys.readouterr()
    assert code == 1
    assert "malformed step size list" in err


@pytest.mark.parametrize("h", ["0", "nan"])
def test_study_rejects_bad_step_size(capsys, h):
    code = main(["study", "--problem", "nonlinear16", "--schemes", "em",
                 "--h", h])
    _, err = capsys.readouterr()
    assert code == 1
    assert "error: step size h must be a finite positive number" in err



@pytest.mark.parametrize("hs", ["0.5", "0.5,0.5"])
def test_study_needs_two_distinct_step_sizes(tmp_path, capsys, hs):
    code = main(["study", "--problem", "nonlinear16", "--schemes", "em",
                 "--h", hs, "--M", "40", "--batches", "4",
                 "--out-dir", str(tmp_path)])
    out, err = capsys.readouterr()
    assert code == 1
    assert out == ""
    assert err == ("error: a study needs at least two distinct step "
                   "sizes, got %s\n" % hs.replace(",", ", "))
    assert not (tmp_path / "errors.csv").exists()

@pytest.mark.parametrize("schemes,hs,message", [
    ("em,EM", "1,0.5", "scheme 'EM' appears more than once in the study, "
     "so its rows could not be told apart"),
    ("em", "1,0.5,0.5", "step size 0.5 appears more than once in the study"),
], ids=["scheme", "step-size"])
def test_study_refuses_repeats(tmp_path, capsys, schemes, hs, message):
    code = main(["study", "--problem", "system18", "--schemes", schemes,
                 "--h", hs, "--M", "100", "--batches", "2",
                 "--out-dir", str(tmp_path)])
    out, err = capsys.readouterr()
    assert code == 1
    assert out == ""
    assert err == "error: %s\n" % message
    assert not (tmp_path / "errors.csv").exists()


def test_study_rejects_negative_seed(tmp_path, capsys):
    code = main(["study", "--problem", "nonlinear16", "--schemes", "em",
                 "--h", "0.5", "--seed", "-1", "--out-dir", str(tmp_path)])
    out, err = capsys.readouterr()
    assert code == 1
    assert out == ""
    assert err == "error: seed must be an integer >= 0, got -1\n"
    assert not (tmp_path / "errors.csv").exists()


def test_study_rejects_non_finite_problem_parameter(tmp_path, capsys):
    code = main(["study", "--problem", "linear:a=nan", "--schemes", "em",
                 "--h", "0.5", "--out-dir", str(tmp_path)])
    out, err = capsys.readouterr()
    assert code == 1
    assert out == ""
    assert err == ("error: bad problem 'linear:a=nan': a must be finite, "
                   "got nan\n")
    assert not (tmp_path / "errors.csv").exists()


def test_study_empty_scheme_list(capsys):
    code = main(["study", "--problem", "nonlinear16", "--schemes", ",",
                 "--h", "0.5"])
    _, err = capsys.readouterr()
    assert code == 1
    assert "empty scheme list" in err


def test_study_empty_step_size_list(tmp_path, capsys):
    out_dir = tmp_path / "out"
    code = main(["study", "--problem", "nonlinear16", "--schemes", "em",
                 "--h", ",", "--out-dir", str(out_dir)])
    _, err = capsys.readouterr()
    assert code == 1
    assert "empty step size list" in err
    assert not out_dir.exists()


def test_unknown_command(capsys):
    code = main(["frobnicate"])
    _, err = capsys.readouterr()
    assert code == 1
    assert "invalid choice" in err


def _child_env():
    # the child process imports the same package as this test
    src = os.path.dirname(os.path.dirname(srkweak.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path)


def test_module_entry_point():
    proc = subprocess.run([sys.executable, "-m", "srkweak", "check",
                           "--scheme", "em", "--csv"],
                          capture_output=True, text=True, env=_child_env())
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[0] == "id,residual,satisfied"


_IMPORT_SET = """
import sys
import srkweak, srkweak.cli
from srkweak import cli
for argv in (["check", "--scheme", "RDI2WM"],
             ["family", "ord32-221c", "--lambda", "0.75", "--c8", "0.5"],
             ["cost", "--scheme", "rdi4wm", "--m", "2"],
             ["enumerate", "--m", "2", "--h", "0.25"]):
    assert cli.main(argv) == 0, argv
scipy = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
assert not scipy, scipy
from srkweak.estimator import estimate
from srkweak.problems import problem_linear
import contextlib, io, tempfile
def loaded():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
estimate("EM", problem_linear(), 0.5, 4, seed=0, batches=2)
assert not loaded(), loaded()
with tempfile.TemporaryDirectory() as out, \
        contextlib.redirect_stdout(io.StringIO()):
    assert cli.main(["study", "--problem", "linear", "--schemes", "em",
                     "--h", "0.5,0.25", "--M", "40",
                     "--out-dir", out]) == 0
assert not loaded(), loaded()
estimate("EM", problem_linear(), 0.5, 102, seed=0, batches=102)
assert "scipy.special" in sys.modules
"""


def test_scipy_is_imported_only_for_a_confidence_interval():
    # a fresh interpreter, since this one has run estimates already
    proc = subprocess.run([sys.executable, "-c", _IMPORT_SET],
                          capture_output=True, text=True, env=_child_env())
    assert proc.returncode == 0, proc.stderr


def test_closed_pipe_exits_quietly():
    # the reader takes one line and goes, as `srkweak enumerate | head -1`
    proc = subprocess.Popen([sys.executable, "-m", "srkweak", "enumerate",
                             "--m", "4", "--h", "0.25"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=_child_env())
    assert proc.stdout.readline().startswith(b"p,I1,")
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait() == 1
    assert "Traceback" not in err and "BrokenPipeError" not in err


_STUDY_FAULTS = """
import contextlib, io, resource, sys
from srkweak import cli
argv = ["study", "--problem", "nonlinear16", "--schemes", "em,rdi4wm",
        "--h", "0.5,0.25", "--M", "100000", "--batches", "4",
        "--out-dir", sys.argv[1]]
for _ in range(2):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                    reason="the allocator policy is glibc's")
def test_study_does_not_fault_its_step_arrays_back_in(tmp_path):
    # with glibc's dynamic thresholds the second study took about
    # 14,000 minor faults, as the heap top was trimmed and regrown on
    # every step; with the fixed thresholds it takes a few dozen
    proc = subprocess.run([sys.executable, "-c", _STUDY_FAULTS,
                           str(tmp_path)], capture_output=True, text=True,
                          env=_child_env())
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) < 1000


@pytest.mark.parametrize("argv, calls", [
    (["check", "--scheme", "RDI2WM"], 0),
    (["family", "ord32-221c", "--lambda", "0.75", "--c8", "0.5"], 0),
    (["cost", "--scheme", "rdi4wm", "--m", "2"], 0),
    (["enumerate", "--m", "2", "--h", "0.25"], 0),
    (["study", "--problem", "nonlinear16", "--schemes", "em",
      "--h", "0.5,0.25", "--M", "40", "--batches", "2"], 1)])
def test_only_study_sets_the_allocator_policy(argv, calls, tmp_path,
                                              monkeypatch, capsys):
    made = []
    monkeypatch.setattr(cli, "_set_allocator_policy",
                        lambda: made.append(True))
    if argv[0] == "study":
        argv = argv + ["--out-dir", str(tmp_path)]
    assert main(argv) == 0
    assert len(made) == calls
