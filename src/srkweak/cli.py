"""Command-line interface.

Subcommands:
  check      evaluate order conditions on a tableau and infer orders
  family     construct a tableau from a parametrised family
  cost       per-step evaluation counts of a tableau
  study      Monte Carlo convergence study on a benchmark problem
  enumerate  support atoms of the weak increment law

Exit codes: 0 success, 1 usage error or unmet claim, 2 inadmissible
family parameter, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import conditions, families, increments, problems
from .estimator import (DEFAULT_BATCHES, run_study, write_errors_csv,
                        write_orders_csv)
from .families import (ConstraintViolation, FamilyParams, family_id_from_cli,
                       make_family, named_scheme)
from .integrator import evaluation_cost
from .problems import problem_from_cli
from .tableau import Error, deserialize, serialize, validate


class UsageError(Error):
    """Raised for malformed command lines."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


# one --<name> option per family parameter; lam is spelt --lambda below
_PARAM_OPTS = ("c1",) + tuple(name for name in families._PARAM_NAMES
                              if name != "lam")


def _add_param_options(p):
    for name in _PARAM_OPTS:
        p.add_argument("--%s" % name, type=float, default=None,
                       metavar="X", help="family parameter %s" % name)
    p.add_argument("--lambda", dest="lam", type=float, default=None,
                   metavar="X", help="family parameter lambda")
    p.add_argument("--sign-branch", dest="sign_branch", type=int,
                   choices=(-1, 1), default=None,
                   help="square-root branch for families that have one")


def _add_source_options(p):
    g = p.add_mutually_exclusive_group()
    g.add_argument("--scheme", metavar="NAME",
                   help="built-in scheme (%s)"
                   % ", ".join(families.NAMED_SCHEMES))
    g.add_argument("--family", metavar="ID",
                   help="family id, e.g. ord32-221c")
    g.add_argument("--file", metavar="PATH",
                   help="tableau JSON file")
    _add_param_options(p)


def _family_params(args, family_id):
    kwargs = {}
    for name in _PARAM_OPTS + ("lam", "sign_branch"):
        val = getattr(args, name)
        if val is not None:
            kwargs[name] = val
    return FamilyParams(family=family_id, **kwargs)


def _resolve_tableau(args):
    if args.scheme:
        return named_scheme(args.scheme)
    if args.family:
        fid = family_id_from_cli(args.family)
        return make_family(_family_params(args, fid))
    if args.file:
        try:
            with open(args.file, encoding="utf-8") as fh:
                text = fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise UsageError("cannot read %s: %s" % (args.file, exc))
        tab = deserialize(text)
        violations = validate(tab)
        if violations:
            for v in violations:
                print("invalid tableau: %s" % v, file=sys.stderr)
            raise UsageError("%s is not a valid explicit tableau"
                             % args.file)
        return tab
    raise UsageError("one of --scheme, --family or --file is required")


def _checked(func, *args, **kwargs):
    """Call func; a ValueError (a bad option value) becomes a UsageError."""
    try:
        return func(*args, **kwargs)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _parse_claim(text):
    inner = text.strip().strip("()")
    parts = inner.split(",")
    if len(parts) != 2:
        raise UsageError("claim must look like '2,1' or '(2,1)', got %r"
                         % text)
    try:
        return int(parts[0]), int(parts[1])
    except ValueError:
        raise UsageError("claim must hold two integers, got %r" % text)


def _parse_floats(text, what):
    try:
        vals = [float(p) for p in text.split(",") if p.strip() != ""]
    except ValueError:
        raise UsageError("malformed %s list %r" % (what, text))
    if not vals:
        raise UsageError("empty %s list" % what)
    return vals


def _cmd_check(args):
    # a malformed claim is rejected before anything is written
    claim = None if args.claim is None else _parse_claim(args.claim)
    tab = _resolve_tableau(args)
    report = _checked(conditions.evaluate_all, tab, tol=args.tol)
    sys.stdout.write(report.as_csv() if args.csv else report.as_text())
    if claim is not None:
        want_det, want_stoch = claim
        got = report.inferred
        if got.p_det < want_det or got.p_stoch < want_stoch:
            print("claim (%d, %d) not met: inferred %s"
                  % (want_det, want_stoch, got), file=sys.stderr)
            return 1
    return 0


def _cmd_family(args):
    fid = family_id_from_cli(args.id)
    tab = make_family(_family_params(args, fid))
    if args.name:
        tab = tab.with_name(args.name)
    if args.verify:
        report = _checked(conditions.evaluate_all, tab, tol=args.tol)
    sys.stdout.write(serialize(tab))
    if args.verify:
        sys.stderr.write(report.as_text())
    return 0


def _cmd_cost(args):
    tab = _resolve_tableau(args)
    cost = _checked(evaluation_cost, tab, args.m)
    print("drift_evals,diffusion_column_evals,random_draws")
    print("%d,%d,%d" % (cost.drift_evals, cost.diffusion_column_evals,
                        cost.random_draws))
    return 0


def _cmd_study(args):
    prob = problem_from_cli(args.problem)
    schemes = [s.strip() for s in args.schemes.split(",") if s.strip()]
    if not schemes:
        raise UsageError("empty scheme list")
    hs = _parse_floats(args.h, "step size")
    reports, orders = run_study(schemes, prob, hs, args.M, args.seed,
                                batches=args.batches, threads=args.threads)
    os.makedirs(args.out_dir, exist_ok=True)
    errors_path = os.path.join(args.out_dir, "errors.csv")
    orders_path = os.path.join(args.out_dir, "orders.csv")
    write_errors_csv(errors_path, reports)
    write_orders_csv(orders_path, orders)
    for r in reports:
        print("%s %s h=%.5E mu_hat=%+.5E ci=[%+.5E, %+.5E] diverged=%d"
              % (r.scheme, r.problem, r.h, r.mu_hat, r.ci_a, r.ci_b,
                 r.diverged))
    for o in orders:
        print("%s %s fitted_order=%.5E" % (o.scheme, o.problem,
                                           o.fitted_order))
    print("wrote %s and %s" % (errors_path, orders_path))
    if any(not np.isfinite(r.u_Mh) for r in reports):
        print("numerical failure: non-finite estimates", file=sys.stderr)
        return 3
    return 0


def _cmd_enumerate(args):
    batch, probs = increments.support_batch(args.m, args.h)
    pairs = [(k, l) for k in range(args.m) for l in range(k)]
    header = ["p"] + ["I%d" % (k + 1) for k in range(args.m)]
    header += ["V%d%d" % (k + 1, l + 1) for k, l in pairs]
    print(",".join(header))
    for p, ihat, v in zip(probs, batch.Ihat, batch.V):
        row = ["%.17g" % p]
        row += ["%.17g" % x for x in ihat]
        row += ["%.17g" % v[k, l] for k, l in pairs]
        print(",".join(row))
    return 0


def build_parser():
    parser = _Parser(prog="srkweak",
                     description="Weak approximation of Ito SDEs by "
                                 "explicit stochastic Runge-Kutta schemes.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="evaluate order conditions",
                       description="Evaluate the order conditions on a "
                                   "tableau and infer its weak and "
                                   "deterministic orders.")
    _add_source_options(p)
    p.add_argument("--tol", type=float, default=conditions.DEFAULT_TOL,
                   help="residual tolerance (default %g)"
                   % conditions.DEFAULT_TOL)
    p.add_argument("--csv", action="store_true",
                   help="machine-readable output")
    p.add_argument("--claim", metavar="(P,Q)", default=None,
                   help="fail unless the inferred deterministic and weak "
                        "orders reach P and Q")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("family", help="construct a tableau from a family",
                       description="Build a tableau from a parametrised "
                                   "family and print it as JSON.")
    p.add_argument("id", help="family id, e.g. ord21 or ord32-221c")
    _add_param_options(p)
    p.add_argument("--name", default=None, help="name stored in the output")
    p.add_argument("--verify", action="store_true",
                   help="print a condition report to stderr")
    p.add_argument("--tol", type=float, default=conditions.DEFAULT_TOL,
                   help="residual tolerance for --verify")
    p.set_defaults(func=_cmd_family)

    p = sub.add_parser("cost", help="per-step evaluation counts",
                       description="Print per-step, per-trajectory "
                                   "evaluation and draw counts.")
    _add_source_options(p)
    p.add_argument("--m", type=int, required=True,
                   help="number of driving Wiener components")
    p.set_defaults(func=_cmd_cost)

    p = sub.add_parser("study", help="run a convergence study",
                       description="Estimate weak errors over step sizes "
                                   "and fit convergence orders; writes "
                                   "errors.csv and orders.csv.")
    p.add_argument("--problem", required=True,
                   help="benchmark name: %s or linear:a=..,b=..,p=.."
                   % ", ".join(problems.PROBLEM_IDS[:-1]))
    p.add_argument("--schemes", required=True,
                   help="comma-separated scheme names; EXEM is the "
                        "extrapolated Euler-Maruyama estimator")
    p.add_argument("--h", required=True, help="comma-separated step sizes")
    p.add_argument("--M", type=int, default=10000,
                   help="trajectories per scheme and step size")
    p.add_argument("--seed", type=int, default=0, help="master seed")
    p.add_argument("--batches", type=int, default=DEFAULT_BATCHES,
                   help="batches for the variance estimate")
    p.add_argument("--threads", type=int, default=1,
                   help="worker threads (never affects results)")
    p.add_argument("--out-dir", default=".",
                   help="directory for errors.csv and orders.csv")
    p.set_defaults(func=_cmd_study)

    p = sub.add_parser("enumerate", help="list weak increment atoms",
                       description="Print the support of the joint weak "
                                   "increment law with probabilities.")
    p.add_argument("--m", type=int, required=True,
                   help="number of driving Wiener components (<= %d)"
                   % increments.MAX_ENUM_M)
    p.add_argument("--h", type=float, required=True, help="step size")
    p.set_defaults(func=_cmd_enumerate)
    return parser


def main(argv=None):
    """Entry point; returns the process exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except ConstraintViolation as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except Error as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
