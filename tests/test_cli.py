"""End-to-end tests of the command line, driven through main()."""

import json
import math
import os
import subprocess
import sys

import pytest

import srkweak
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
    assert "invalid tableau:" in err
    assert "is not a valid explicit tableau" in err


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


def test_family_foreign_parameter_exits_1(capsys):
    code = main(["family", "ord11", "--c5", "0.1"])
    _, err = capsys.readouterr()
    assert code == 1
    assert "parameter c5 is not free" in err


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


def test_unknown_command(capsys):
    code = main(["frobnicate"])
    _, err = capsys.readouterr()
    assert code == 1
    assert "invalid choice" in err


def test_module_entry_point():
    # the child process imports the same package as this test
    src = os.path.dirname(os.path.dirname(srkweak.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "srkweak", "check",
                           "--scheme", "em", "--csv"],
                          capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[0] == "id,residual,satisfied"
