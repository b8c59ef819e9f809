"""Command-line interface.

Subcommands:
  check      evaluate order conditions on a tableau and infer orders
  family     construct a tableau from a parametrised family
  cost       per-step evaluation counts of a tableau
  study      Monte Carlo convergence study on a benchmark problem
  enumerate  support atoms of the weak increment law

Exit codes: 0 success, 1 usage error or unmet claim, 2 inadmissible
family parameter, 3 numerical failure (a study with non-finite
estimates or fitted orders, whose CSVs are still written).

Allocator policy: `study` fixes two glibc malloc thresholds before its
first cell, through mallopt: M_MMAP_THRESHOLD at 8 MiB and
M_TRIM_THRESHOLD at 16 MiB, 32 and 64 times the 256 KiB state array of
a full part (estimator._CHUNK_ELEMENTS).  With glibc's dynamic
thresholds a step's 200-460 KB arrays land on the heap, and glibc hands
the heap top back to the kernel whenever about twice that much is free
there, so every step faults its arrays back in: about 186,000 minor
page faults per nonlinear16 study of 5e5 paths per cell, against about
25 with the fixed thresholds.  Setting both turns the dynamic
adjustment off, so the policy does not depend on what the process
allocated before.  The mmap threshold lies above the largest array a
part makes (the 4 MiB Ihat_(k,l) matrix at m = 4, d = 1), and the price
is at most 16 MiB of freed heap kept per malloc arena.  The policy is
process-wide, so only this program, which owns its process, sets it:
the library functions never do.  On a libc other than glibc, or when
ctypes or mallopt fails, nothing is set.  No output byte depends on it.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import conditions, families, increments, problems
from .estimator import (_CHUNK_ELEMENTS, DEFAULT_BATCHES, _check_study,
                        run_study, write_errors_csv, write_orders_csv)
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
                   help="sign choice of the families that have one; "
                        "the other families refuse -1")


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


def _given_params(args):
    """The family parameters given on the command line, by field name."""
    return {name: getattr(args, name)
            for name in _PARAM_OPTS + ("lam", "sign_branch")
            if getattr(args, name) is not None}


def _resolve_tableau(args):
    """Return the selected tableau; refuse it if validate() faults it,
    and refuse a family parameter given without --family, which nothing
    would read."""
    given = _given_params(args)
    if given and not args.family:
        name = next(iter(given))
        raise UsageError("--%s applies only to a --family tableau" % {
            "lam": "lambda", "sign_branch": "sign-branch"}.get(name, name))
    if args.scheme:
        tab, source = named_scheme(args.scheme), "scheme " + args.scheme
    elif args.family:
        fid = family_id_from_cli(args.family)
        tab = make_family(FamilyParams(family=fid, **given))
        source = "the %s member" % fid
    elif args.file:
        try:
            with open(args.file, encoding="utf-8") as fh:
                text = fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise UsageError("cannot read %s: %s" % (args.file, exc))
        tab, source = deserialize(text), args.file
    else:
        raise UsageError("one of --scheme, --family or --file is required")
    violations = validate(tab)
    for v in violations:
        print("invalid tableau: %s" % v.detail, file=sys.stderr)
    if violations:
        raise UsageError("%s is not a valid explicit tableau" % source)
    return tab


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
    tab = make_family(FamilyParams(family=fid, **_given_params(args)))
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


# glibc's mallopt parameters; a full part's state array is 8 bytes per
# element
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_ALLOCATOR_POLICY = ((_M_MMAP_THRESHOLD, 32 * 8 * _CHUNK_ELEMENTS),
                     (_M_TRIM_THRESHOLD, 64 * 8 * _CHUNK_ELEMENTS))


def _set_allocator_policy():
    """Fix glibc's mmap and trim thresholds for this process (see the
    module docstring); do nothing on another libc or on any failure."""
    try:
        if not os.confstr("CS_GNU_LIBC_VERSION").startswith("glibc"):
            return
        import ctypes
        mallopt = ctypes.CDLL(None).mallopt
        mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
        for param, value in _ALLOCATOR_POLICY:
            if not mallopt(param, value):
                return
    except (AttributeError, OSError, ValueError, ImportError):
        pass


def _cmd_study(args):
    prob = problem_from_cli(args.problem)
    schemes = [s.strip() for s in args.schemes.split(",") if s.strip()]
    if not schemes:
        raise UsageError("empty scheme list")
    hs = _parse_floats(args.h, "step size")
    # a refused study leaves no output directory behind, and an
    # unusable output directory is refused before any cell runs
    _check_study(schemes, prob, hs, args.M, args.seed, args.batches,
                 args.threads)
    try:
        os.makedirs(args.out_dir, exist_ok=True)
    except OSError as exc:
        raise UsageError("cannot write %s: %s" % (args.out_dir, exc))
    _set_allocator_policy()
    reports, orders = run_study(schemes, prob, hs, args.M, args.seed,
                                batches=args.batches, threads=args.threads)
    errors_path = os.path.join(args.out_dir, "errors.csv")
    orders_path = os.path.join(args.out_dir, "orders.csv")
    for path, write, rows in ((errors_path, write_errors_csv, reports),
                              (orders_path, write_orders_csv, orders)):
        try:
            write(path, rows)
        except OSError as exc:
            raise UsageError("cannot write %s: %s" % (path, exc))
    for r in reports:
        print("%s %s h=%.5E mu_hat=%+.5E ci=[%+.5E, %+.5E] diverged=%d"
              % (r.scheme, r.problem, r.h, r.mu_hat, r.ci_a, r.ci_b,
                 r.diverged))
    for o in orders:
        print("%s %s fitted_order=%.5E" % (o.scheme, o.problem,
                                           o.fitted_order))
    print("wrote %s and %s" % (errors_path, orders_path))
    if not (all(np.isfinite(r.u_Mh) for r in reports)
            and all(np.isfinite(o.fitted_order) for o in orders)):
        print("numerical failure: non-finite estimates or orders",
              file=sys.stderr)
        return 3
    return 0


def _cmd_enumerate(args):
    batch, probs = increments.support_batch(args.m, args.h)
    header = ["p"] + ["I%d" % (k + 1) for k in range(args.m)]
    header += ["V%d%d" % (k + 1, l + 1)  # the signs, as drawn
               for k in range(args.m) for l in range(k)]
    print(",".join(header))
    for p, ihat, signs in zip(probs, batch.Ihat, batch.signs):
        print(",".join("%.17g" % x for x in (p, *ihat, *signs)))
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
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe raises here, not at exit
        return code
    except BrokenPipeError:
        # the reader has gone; point stdout at devnull so that the
        # flush at interpreter exit cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except ConstraintViolation as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except Error as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
