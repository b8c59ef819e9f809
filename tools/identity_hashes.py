"""Print the eight byte-identity hashes of srkweak's outputs.

A change that must not move any output bit is checked by running this
script on both trees and comparing the lines:

    python tools/identity_hashes.py

Each hash is the first 16 hex digits of the sha256 of:

  criterion-9   errors.csv then orders.csv of the criterion-9 study
                (nonlinear16, em,rdi2wm,exem, h = 0.5,0.25, M = 400,
                8 batches, seed 7) with --threads 1;
  nl16-serial   errors.csv then orders.csv of the nl16-serial-sized
                study (nonlinear16, em,rdi4wm,exem, h = 0.5,0.25,0.125,
                M = 500000, 20 batches, 1 thread, seed 7);
  sys18-wide    errors.csv then orders.csv of the sys18-wide-sized
                study (system18, em,rdi2wm, h = 1.0,0.5, M = 400000,
                4 batches, 2 threads, seed 7);
  families      the stdout of "srkweak family <id>" for the 14
                families, in FAMILY_IDS order; a family that refuses
                its default parameters prints nothing there;
  members       the serialized JSON of 20 random members of each of
                the 14 families, in FAMILY_IDS order, drawn by
                tests/family_sampling.py's draw_member from one
                np.random.default_rng(2024);
  cli           the exit code, stdout and stderr of each of CLI_CALLS:
                check --csv and cost --m 1, 2, 3 for the six named
                schemes, enumerate --m 1, 2, 3 at h = 0.3, check --file
                on a document that is not explicit (its temporary path
                written as <file>), and two refused family members;
  reports       float.hex of every float field (every other field as
                str) of the WeakErrorReports and FittedOrders of the
                criterion-9 study, run through run_study, then of the
                estimates in ESTIMATE_BATCHES: the CSVs keep 6
                significant digits, this keeps every bit of u_Mh,
                sigma2_mu and the interval, whose t quantile is read
                from a table for up to 101 batches and from scipy past
                it;
  exact         float.hex of exact_one_step_expectation of f for the
                six named schemes and EXACT_MEMBERS random members of
                each of the 14 families (draw_member, one
                np.random.default_rng(2026)), on linear:p=1, linear:p=2
                (m = 1) and system18 (m = 2) at each h in EXACT_HS.

The package is imported from the src/ directory next to this script,
and draw_member from the tests/ directory, so each checkout hashes its
own code.
"""

import contextlib
import dataclasses
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

_ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(_ROOT / "src"), str(_ROOT / "tests")]

import numpy as np  # noqa: E402
from family_sampling import draw_member  # noqa: E402
from srkweak.cli import main  # noqa: E402
from srkweak.estimator import estimate, run_study  # noqa: E402
from srkweak.families import (FAMILY_IDS, NAMED_SCHEMES,  # noqa: E402
                              named_scheme)
from srkweak.integrator import exact_one_step_expectation  # noqa: E402
from srkweak.problems import problem_from_cli  # noqa: E402
from srkweak.tableau import serialize  # noqa: E402

STUDIES = (
    ("criterion-9", ["--problem", "nonlinear16", "--schemes", "em,rdi2wm,exem",
                     "--h", "0.5,0.25", "--M", "400", "--batches", "8",
                     "--threads", "1", "--seed", "7"]),
    ("nl16-serial", ["--problem", "nonlinear16", "--schemes", "em,rdi4wm,exem",
                     "--h", "0.5,0.25,0.125", "--M", "500000",
                     "--batches", "20", "--threads", "1", "--seed", "7"]),
    ("sys18-wide", ["--problem", "system18", "--schemes", "em,rdi2wm",
                    "--h", "1.0,0.5", "--M", "400000", "--batches", "4",
                    "--threads", "2", "--seed", "7"]),
)

# "<file>" stands for a document that is not explicit: RDI2WM with
# A0[1][3] = 5.0 and B1[2][2] = -1.0
CLI_CALLS = tuple(
    [["check", "--scheme", name, "--csv"] for name in NAMED_SCHEMES]
    + [["cost", "--scheme", name, "--m", m] for name in NAMED_SCHEMES
       for m in ("1", "2", "3")]
    + [["enumerate", "--m", m, "--h", "0.3"] for m in ("1", "2", "3")]
    + [["check", "--file", "<file>"],
       ["family", "case-221", "--c6", "1e200", "--c7", "1e200"],
       ["family", "ord21", "--c2", "0"]])


def _capture(argv):
    """Run the CLI in this process: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _run(argv, codes=(0,)):
    """Run the CLI in this process and return its stdout; stderr is
    dropped, and an exit code outside codes stops the script."""
    code, out, _ = _capture(argv)
    if code not in codes:
        raise SystemExit("srkweak %s exited %d" % (" ".join(argv), code))
    return out


def _digest(data):
    return hashlib.sha256(data).hexdigest()[:16]


def study_hash(args):
    with tempfile.TemporaryDirectory() as out_dir:
        _run(["study"] + args + ["--out-dir", out_dir])
        data = b"".join((Path(out_dir) / name).read_bytes()
                        for name in ("errors.csv", "orders.csv"))
    return _digest(data)


def families_hash():
    # exit 2: the default parameters are inadmissible for this family
    text = "".join(_run(["family", fid], codes=(0, 2)) for fid in FAMILY_IDS)
    return _digest(text.encode("utf-8"))


def members_hash():
    rng = np.random.default_rng(2024)
    text = "".join(serialize(draw_member(fid, rng)) for fid in FAMILY_IDS
                   for _ in range(20))
    return _digest(text.encode("utf-8"))


def cli_hash():
    doc = json.loads(serialize(named_scheme("RDI2WM")))
    doc["A0"][0][2], doc["B1"][1][1] = 5.0, -1.0
    blocks = []
    with tempfile.TemporaryDirectory() as tmp:
        path = str(Path(tmp) / "not-explicit.json")
        Path(path).write_text(json.dumps(doc), encoding="utf-8")
        for argv in CLI_CALLS:
            code, out, err = _capture([path if a == "<file>" else a
                                       for a in argv])
            blocks.append("[exit %d]\n%s[stderr]\n%s" % (
                code, out, err.replace(path, "<file>")))
    return _digest("".join(blocks).encode("utf-8"))


#: batches of the reports recipe's RDI2WM estimates on nonlinear16 (h =
#: 0.5, M = 204, seed 7): t quantiles for df = 1, 19 and 101, the last
#: past the table of estimator._T95
ESTIMATE_BATCHES = (2, 20, 102)


def reports_hash():
    prob = problem_from_cli("nonlinear16")
    # the criterion-9 study of STUDIES
    reports, orders = run_study(["em", "rdi2wm", "exem"], prob, [0.5, 0.25],
                                400, 7, batches=8, threads=1)
    reports += [estimate("rdi2wm", prob, 0.5, 204, 7, batches=batches)
                for batches in ESTIMATE_BATCHES]
    text = "".join(
        " ".join(v.hex() if isinstance(v, float) else str(v)
                 for v in dataclasses.astuple(row)) + "\n"
        for row in reports + orders)
    return _digest(text.encode("utf-8"))


#: random members per family in the exact recipe, and its step sizes
EXACT_MEMBERS = 3
EXACT_HS = (1.0, 0.5, 0.25, 0.125)


def exact_hash():
    rng = np.random.default_rng(2026)
    tabs = [named_scheme(name) for name in NAMED_SCHEMES] + [
        draw_member(fid, rng) for fid in FAMILY_IDS
        for _ in range(EXACT_MEMBERS)]
    probs = [problem_from_cli(token)
             for token in ("linear:p=1", "linear:p=2", "system18")]
    text = "".join(
        exact_one_step_expectation(tab, prob, prob.f, h).hex() + "\n"
        for tab in tabs for prob in probs for h in EXACT_HS)
    return _digest(text.encode("utf-8"))


def print_hashes():
    for name, args in STUDIES:
        print("%-12s %s" % (name, study_hash(args)), flush=True)
    print("%-12s %s" % ("families", families_hash()))
    print("%-12s %s" % ("members", members_hash()))
    print("%-12s %s" % ("cli", cli_hash()))
    print("%-12s %s" % ("reports", reports_hash()))
    print("%-12s %s" % ("exact", exact_hash()))


if __name__ == "__main__":
    print_hashes()
