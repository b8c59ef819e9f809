"""The benchmark workloads and their correctness oracles.

Every workload is a closed loop: one caller starts a repetition and
waits for it to finish before starting the next.  Inputs derive from
the seed alone, and every repetition of a run repeats the same inputs,
so repetitions do the same work and must give identical outputs.

  nl16-serial    `srkweak study` on nonlinear16 with em,rdi4wm,exem at
                 h = 1/2, 1/4, 1/8, 20 batches, one thread.  m = d = 1
                 and ~2.5e4 paths per batch: the per-step fixed cost of
                 the engine dominates.
  sys18-wide     `srkweak study` on system18 with em,rdi2wm at h = 1, 1/2,
                 4 batches of 1e5 paths, two threads.  m = d = 2: mixed
                 stage values and (paths, m, m, d) temporaries larger
                 than L2.
  tableau-sweep  random admissible members of all 14 families through
                 make_family, evaluate_all, the JSON round trip,
                 evaluation_cost and exact one-step expectations.  No
                 Monte Carlo; srk_step runs on 3 to 18 support atoms.
"""

import contextlib
import csv
import io
import math
import os
from time import perf_counter

import numpy as np

import family_sampling
from family_sampling import CLASS_ORDERS
from srkweak import cli, conditions, integrator, tableau
from srkweak.families import FAMILY_IDS
from srkweak.problems import problem_2d, problem_from_cli, problem_linear

#: published |mu| of the criterion-7 quadruples on nonlinear16
EM_NL16 = {0.5: 8.797e-1, 0.25: 7.705e-1, 0.125: 4.825e-1, 0.0625: 2.691e-1}
RDI4WM_NL16 = {0.5: 3.760e-1, 0.25: 9.454e-2, 0.125: 2.318e-2}
#: published |mu| of EM on system18 at h = 1
EM_SYS18_H1 = 1.178e-2
#: a cell passes when its |mu| is within this many CI half-widths
CI_WIDTHS = 3.0
#: residual tolerance of the family sweep (criterion 2)
SWEEP_TOL = 1e-9


def _check(checks, ok, msg):
    checks.append((bool(ok), msg))


class Study:
    """One `srkweak study` command line, repeated."""

    def __init__(self, name, problem, schemes, hs, M, batches, threads,
                 oracle):
        self.name = name
        self.problem = problem
        self.schemes = schemes
        self.hs = hs
        self.M = M
        self.batches = batches
        self.threads = threads
        self.oracle = oracle
        self.setup_code = (
            "import srkweak.cli\n"
            "srkweak.cli.problem_from_cli(%r)\n"
            "[srkweak.families.named_scheme(s) for s in %r]\n"
            % (problem, [s for s in schemes if s != "EXEM"]))

    def prepare(self, seed, out_dir):
        self.out_dir = out_dir
        self.argv = ["study", "--problem", self.problem,
                     "--schemes", ",".join(self.schemes).lower(),
                     "--h", ",".join(repr(h) for h in self.hs),
                     "--M", str(self.M), "--batches", str(self.batches),
                     "--seed", str(seed), "--threads", str(self.threads),
                     "--out-dir", out_dir]
        span = problem_from_cli(self.problem).t_end
        steps = sum(round(span / h) for h in self.hs)
        # EXEM simulates n steps at h and 2n at h/2
        self.work = sum(self.M * steps * (3 if s == "EXEM" else 1)
                        for s in self.schemes)
        self.paths = sum(self.M * len(self.hs) * (2 if s == "EXEM" else 1)
                         for s in self.schemes)

    def run(self):
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(self.argv)
        blobs = []
        for fname in ("errors.csv", "orders.csv"):
            with open(os.path.join(self.out_dir, fname), "rb") as fh:
                blobs.append(fh.read())
        return code, blobs[0], blobs[1]

    def diverged(self, result):
        return sum(int(r["diverged"]) for r in _rows(result[1]))

    def check(self, result, first=None):
        """Checks of one repetition; later ones must repeat the first."""
        checks = []
        code, errors, orders = result
        _check(checks, code == 0, "exit code %d" % code)
        if first is not None:
            _check(checks, result[1:] == first[1:],
                   "output differs from the first repetition")
            return checks
        rows = _rows(errors)
        _check(checks, len(rows) == len(self.schemes) * len(self.hs),
               "errors.csv has %d rows" % len(rows))
        for r in rows:
            _check(checks, math.isfinite(float(r["u_Mh"]))
                   and int(r["diverged"]) == 0,
                   "%s h=%s u_Mh=%s diverged=%s"
                   % (r["scheme"], r["h"], r["u_Mh"], r["diverged"]))
        fitted = {r["scheme"]: float(r["fitted_order"])
                  for r in _rows(orders)}
        self.oracle(self, rows, fitted, checks)
        return checks


def _rows(blob):
    return list(csv.DictReader(io.StringIO(blob.decode())))


def _ci_gap_check(checks, row, target):
    mu = abs(float(row["mu_hat"]))
    half = 0.5 * (float(row["ci_b"]) - float(row["ci_a"]))
    gap = abs(mu - target)
    _check(checks, gap <= CI_WIDTHS * half,
           "%s h=%s: | |mu| - %.4E | = %.3E > %g x %.3E"
           % (row["scheme"], row["h"], target, gap, CI_WIDTHS, half))


def nl16_oracle(study, rows, orders, checks):
    """Each cell against the criterion-7 quadruples; EXEM against
    2 ref_EM(h/2) - ref_EM(h), as all EM errors share one sign."""
    for r in rows:
        h = float(r["h"])
        if r["scheme"] == "EM":
            ref = EM_NL16[h]
        elif r["scheme"] == "RDI4WM":
            ref = RDI4WM_NL16[h]
        else:
            ref = abs(2.0 * EM_NL16[h / 2] - EM_NL16[h])
        _ci_gap_check(checks, r, ref)


def _em_sys18_moments(h, n):
    """E f and E f^2 of EM on system18 after n steps, exactly.

    X^1 follows a closed scalar equation from X^1_0 = 1, so each EM step
    multiplies it by g = 1 + F11 h + I1/4 + I2/16 with independent
    three-point I1, I2; f = (X^1)^2 gives E f = (E g^2)^n and
    E f^2 = (E g^4)^n.
    """
    law = ((-math.sqrt(3.0 * h), 1.0 / 6.0), (0.0, 2.0 / 3.0),
           (math.sqrt(3.0 * h), 1.0 / 6.0))
    g2 = g4 = 0.0
    for i1, p1 in law:
        for i2, p2 in law:
            g = 1.0 - 273.0 / 512.0 * h + i1 / 4.0 + i2 / 16.0
            g2 += p1 * p2 * g ** 2
            g4 += p1 * p2 * g ** 4
    return g2 ** n, g4 ** n


def sys18_oracle(study, rows, orders, checks):
    """EM at h = 1 against the published error, within 3 half-widths of
    a 90% interval built from the exact variance (4 batches give too
    few degrees of freedom for the batch CI), and the order gap."""
    (row,) = [r for r in rows if r["scheme"] == "EM" and float(r["h"]) == 1]
    mean, second = _em_sys18_moments(1.0, 4)
    half = 1.6448536269514722 * math.sqrt((second - mean ** 2) / study.M)
    gap = abs(abs(float(row["mu_hat"])) - EM_SYS18_H1)
    _check(checks, gap <= CI_WIDTHS * half,
           "EM h=1: | |mu| - %.4E | = %.3E > %g x %.3E"
           % (EM_SYS18_H1, gap, CI_WIDTHS, half))
    sep = orders["RDI2WM"] - orders["EM"]
    _check(checks, sep >= 0.5,
           "fitted order RDI2WM - EM = %.3f < 0.5" % sep)


def member(fid, rng, targets):
    """Build, analyse and step one random member of a family."""
    tab = family_sampling.draw_member(fid, rng)
    inferred = conditions.evaluate_all(tab, tol=SWEEP_TOL).inferred
    back = tableau.deserialize(tableau.serialize(tab))
    costs = [integrator.evaluation_cost(tab, m) for m in (1, 2, 3)]
    expect = [integrator.exact_one_step_expectation(tab, prob, prob.f, h)
              for prob, h in targets]
    return tab, (inferred.p_det, inferred.p_stoch), back, costs, expect


class Sweep:
    """Random family members, round robin over the 14 families."""

    name = "tableau-sweep"
    threads = 1
    paths = 0
    setup_code = (
        "import srkweak, family_sampling\n"
        "srkweak.problem_linear(power=1), srkweak.problem_linear(power=2)\n"
        "srkweak.problem_2d()\n")

    def __init__(self, members):
        self.members = members

    def prepare(self, seed, out_dir):
        self.seed = seed
        rng = np.random.default_rng([seed, 1])
        h_m1, h_m2 = (2.0 ** -int(k) for k in rng.integers(0, 4, size=2))
        self.targets = [(problem_linear(power=1), h_m1),
                        (problem_linear(power=2), h_m1),
                        (problem_2d(), h_m2)]
        self.work = self.members

    def run(self):
        rng = np.random.default_rng(self.seed)
        latencies, outputs = [], []
        for i in range(self.members):
            fid = FAMILY_IDS[i % len(FAMILY_IDS)]
            start = perf_counter()
            out = member(fid, rng, self.targets)
            latencies.append(perf_counter() - start)
            outputs.append((fid,) + out)
        return latencies, outputs

    def diverged(self, result):
        return 0

    def check(self, result, first=None):
        """Checks of one repetition; later ones must repeat the first."""
        checks = []
        outputs = result[1]
        if first is not None:
            _check(checks, [(o[2], o[5]) for o in outputs]
                   == [(o[2], o[5]) for o in first[1]],
                   "results differ from the first repetition")
            return checks
        for fid, tab, orders, back, costs, expect in outputs:
            _check(checks, orders == CLASS_ORDERS[fid],
                   "%s member inferred %s, class %s"
                   % (fid, orders, CLASS_ORDERS[fid]))
            _check(checks, _bit_equal(tab, back),
                   "%s member JSON round trip is not bit-exact" % fid)
            _check(checks, all(math.isfinite(v) for v in expect),
                   "%s member exact expectations %s" % (fid, expect))
        return checks


def _bit_equal(a, b):
    keys = tableau._VECTOR_KEYS + tableau._MATRIX_KEYS
    return a.name == b.name and all(
        getattr(a, k).tobytes() == getattr(b, k).tobytes() for k in keys)


def make(name, smoke=False):
    """Return the workload called name, tiny when smoke is set."""
    if name == "nl16-serial":
        return Study(name, "nonlinear16", ["EM", "RDI4WM", "EXEM"],
                     [0.5, 0.25, 0.125], 2000 if smoke else 500_000, 20, 1,
                     nl16_oracle)
    if name == "sys18-wide":
        return Study(name, "system18", ["EM", "RDI2WM"], [1.0, 0.5],
                     40_000 if smoke else 400_000, 4, 2, sys18_oracle)
    if name == "tableau-sweep":
        return Sweep(len(FAMILY_IDS) * (2 if smoke else 70))
    raise KeyError(name)


NAMES = ("nl16-serial", "sys18-wide", "tableau-sweep")
