"""Print the eleven byte-identity hashes of srkweak's outputs.

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
                (m = 1) and system18 (m = 2) at each h in EXACT_HS;
  draws         the shape and bytes of Ihat and the signs of draw()
                for m = 1 to 4, with and without signs, at each h in
                DRAW_HS: DRAW_STEPS draws of DRAW_PATHS paths from one
                substream, then from a CountingStream (its count
                written after the bytes), each through a row window of
                the DRAW_PATHS paths with lo > 0 (DRAW_ROWS), and
                through a CountingStream over such a window; then
                support_batch() with its probabilities for m = 1 to 4
                at each h in DRAW_HS;
  tree          float.hex of srkweak.exact_expectation of f, n steps of
                size h, for the six named schemes on linear:p=1 and
                linear:p=2 at each (n, h) in TREE_STEPS, then on
                system18 at n = 2, h = 1/2: the exact recipe pins only
                n = 1;
  structure     the nonzero pattern (hex), the validate() details and
                float.hex of the nodes c0, c1v, c2v of the six named
                schemes, STRUCTURE_MEMBERS random members of each family
                (draw_member, one np.random.default_rng(2033)), one
                tableau per s = 1 ... MAX_STAGES with nan, +-inf and
                nonzero entries on or above a diagonal planted, and
                RDI2WM with a row of A0 whose sum overflows.

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
import srkweak  # noqa: E402
from family_sampling import draw_member  # noqa: E402
from srkweak.cli import main  # noqa: E402
from srkweak.estimator import estimate, run_study  # noqa: E402
from srkweak.families import (FAMILY_IDS, NAMED_SCHEMES,  # noqa: E402
                              named_scheme)
from srkweak.increments import (CountingStream, _RowWindow,  # noqa: E402
                                draw, substream, support_batch)
from srkweak.integrator import exact_one_step_expectation  # noqa: E402
from srkweak.problems import problem_from_cli  # noqa: E402
from srkweak.tableau import (_MATRIX_KEYS, _VECTOR_KEYS,  # noqa: E402
                             MAX_STAGES, CoefficientTableau, serialize,
                             validate)

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


#: step sizes of the draws recipe, its paths and steps per stream, and
#: the rows [lo, hi) its row windows read
DRAW_HS = (1.0, 0.5, 0.125)
DRAW_PATHS = 37
DRAW_STEPS = 3
DRAW_ROWS = (5, 22)


def draws_hash():
    def batch_bytes(batch):
        arrays = (batch.Ihat, batch.signs)
        return b"".join(b"none" if a is None else
                        repr(a.shape).encode() + a.tobytes(order="A")
                        for a in arrays)

    lo, hi = DRAW_ROWS
    blocks = []
    for m in range(1, 5):
        for with_offdiag in (True, False):
            for i, h in enumerate(DRAW_HS):
                key = (m, int(with_offdiag), i)
                streams = [
                    (substream(2030, *key), DRAW_PATHS),
                    (CountingStream(substream(2031, *key)), DRAW_PATHS),
                    (_RowWindow(substream(2032, *key), DRAW_PATHS, lo, hi),
                     hi - lo),
                    (CountingStream(_RowWindow(substream(2033, *key),
                                               DRAW_PATHS, lo, hi)), hi - lo)]
                for stream, rows in streams:
                    for _ in range(DRAW_STEPS):
                        blocks.append(batch_bytes(draw(
                            m, h, stream, size=(rows,),
                            with_offdiag=with_offdiag)))
                    if isinstance(stream, CountingStream):
                        blocks.append(b"count %d" % stream.count)
    for m in range(1, 5):
        for h in DRAW_HS:
            batch, probs = support_batch(m, h)
            blocks.append(batch_bytes(batch) + probs.tobytes())
    return _digest(b"".join(blocks))


#: (steps, h) of the tree recipe on the linear problems
TREE_STEPS = ((2, 0.5), (2, 0.25), (3, 0.5), (3, 0.25))


def tree_hash():
    tabs = [named_scheme(name) for name in NAMED_SCHEMES]
    cells = [(problem_from_cli(token), n, h)
             for token in ("linear:p=1", "linear:p=2")
             for n, h in TREE_STEPS] + [(problem_from_cli("system18"), 2, 0.5)]
    text = "".join(
        srkweak.exact_expectation(tab, prob, prob.f, h, n).hex() + "\n"
        for tab in tabs for prob, n, h in cells)
    return _digest(text.encode("utf-8"))


#: random members per family in the structure recipe
STRUCTURE_MEMBERS = 3


def _planted(s, rng):
    """A random s-stage tableau, about half its entries zero, with a nan,
    an inf, a -inf and a nonzero entry on or above a stage matrix's
    diagonal, each at a random place."""
    keys = _VECTOR_KEYS + _MATRIX_KEYS
    arrays = {}
    for key in keys:
        shape = (s,) if key in _VECTOR_KEYS else (s, s)
        arrays[key] = rng.normal(size=shape) * (rng.random(shape) < 0.5)
        if key in _MATRIX_KEYS:
            arrays[key] = np.tril(arrays[key], -1)
    for value in (np.nan, np.inf, -np.inf):
        arr = arrays[keys[rng.integers(len(keys))]]
        arr[tuple(rng.integers(s, size=arr.ndim))] = value
    i = int(rng.integers(s))
    arrays[_MATRIX_KEYS[rng.integers(6)]][i, rng.integers(i, s)] = 0.5
    return CoefficientTableau(s=s, **arrays)


def structure_hash():
    rng = np.random.default_rng(2033)
    tabs = [named_scheme(name) for name in NAMED_SCHEMES]
    tabs += [draw_member(fid, rng) for fid in FAMILY_IDS
             for _ in range(STRUCTURE_MEMBERS)]
    tabs += [_planted(s, rng) for s in range(1, MAX_STAGES + 1)]
    rdi2 = named_scheme("RDI2WM")
    arrays = {key: np.array(getattr(rdi2, key))
              for key in _VECTOR_KEYS + _MATRIX_KEYS}
    arrays["A0"][2] = [1e308, 1e308, 0.0]
    tabs.append(CoefficientTableau(s=3, **arrays))
    text = "".join(
        "%x\n%s\n%s\n" % (tab._pattern,
                           "\n".join(v.detail for v in validate(tab)),
                           " ".join(x.hex() for node in (tab.c0, tab.c1v,
                                                         tab.c2v)
                                    for x in node.tolist()))
        for tab in tabs)
    return _digest(text.encode("utf-8"))


def print_hashes():
    for name, args in STUDIES:
        print("%-12s %s" % (name, study_hash(args)), flush=True)
    print("%-12s %s" % ("families", families_hash()))
    print("%-12s %s" % ("members", members_hash()))
    print("%-12s %s" % ("cli", cli_hash()))
    print("%-12s %s" % ("reports", reports_hash()))
    print("%-12s %s" % ("exact", exact_hash()))
    print("%-12s %s" % ("draws", draws_hash()))
    print("%-12s %s" % ("tree", tree_hash()))
    print("%-12s %s" % ("structure", structure_hash()))


if __name__ == "__main__":
    print_hashes()
