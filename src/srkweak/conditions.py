"""Algebraic order conditions for explicit stochastic Runge-Kutta schemes.

Each condition is an equation L(tableau) = r between a polynomial
expression in the tableau coefficients and a rational constant.  Each
is written once, as printed, in the table below, which holds all of
them in canonical order:

  W1..W7    weak order 1 for general Ito SDEs
  W8..W50   weak order 2 (on top of W1..W7)
  D3A, D3B  deterministic order 3 (classical Runge-Kutta conditions)
  D4A..D4C  deterministic order 4, reported for information only
  T1, T2    two further conditions that single out preferred stage
            nodes; informational as well

The printed text is the only source of both sides: at import, L is
rewritten to a numpy expression in the tableau arrays by four textual
rules and compiled once, and r is the fraction right of " = ".  Every
evaluation returns the residual L(tableau) - r, computed exactly as
the condition is written, with no rearrangement.  A condition counts
as satisfied when |residual| <= tol.

The conditions share most of their brackets: B1 e, for one, enters
some twenty of them.  So the 57 expressions are not run one by one.
At import the rewritten texts are parsed, every distinct
sub-expression (t.B1 @ e, (t.B1 @ e) ** 2, t.beta1 @ e, ...) gets one
local name, and a single generated function, lhs_all(t, e), evaluates
each of them once and returns all 57 left sides in canonical order.
Each step is the numpy operation of the written condition on the same
operands.  lhs_all is the only compiled form of the conditions, and
evaluate_all() the only reader of residuals from it.

The weak order attributed to a scheme is 2 if W1..W50 all hold, 1 if
W1..W7 all hold, and 0 otherwise.  The deterministic order is read off
the drift-only conditions: 1 needs W1, 2 additionally W8, 3
additionally D3A and D3B.  The attribution is capped at 3; D4A..D4C
never raise it.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .tableau import _MATRIX_KEYS, _VECTOR_KEYS, Error, OrderClaim, _is_finite

DEFAULT_TOL = 1e-12


class UnknownConditionError(Error):
    """An unknown condition group was requested."""


@dataclass(frozen=True)
class ConditionSpec:
    """One order condition as printed, "L = r", with r as a float."""

    cid: str
    group: str  # "weak1", "weak2", "det3", "det4" or "node"
    rhs: float
    text: str


#: Every condition as printed, "L = r", in canonical order.  L is a
#: product of bracketed factors built from the weight vectors (w^T x),
#: the stage matrices ((M x)), the ones vector e and component-wise
#: powers (^k); juxtaposed brackets multiply component-wise.
_TABLE = (
    ("W1", "weak1", "alpha^T e = 1"),
    ("W2", "weak1", "beta4^T e = 0"),
    ("W3", "weak1", "beta3^T e = 0"),
    ("W4", "weak1", "(beta1^T e)^2 = 1"),
    ("W5", "weak1", "beta2^T e = 0"),
    ("W6", "weak1", "beta1^T (B1 e) = 0"),
    ("W7", "weak1", "beta3^T (B2 e) = 0"),
    ("W8", "weak2", "alpha^T (A0 e) = 1/2"),
    ("W9", "weak2", "alpha^T (B0 e)^2 = 1/2"),
    ("W10", "weak2", "(beta1^T e) (alpha^T (B0 e)) = 1/2"),
    ("W11", "weak2", "(beta1^T e) (beta1^T (A1 e)) = 1/2"),
    ("W12", "weak2", "beta3^T (A2 e) = 0"),
    ("W13", "weak2", "beta2^T (B1 e) = 1"),
    ("W14", "weak2", "beta4^T (B2 e) = 1"),
    ("W15", "weak2", "(beta1^T e) (beta1^T (B1 e)^2) = 1/2"),
    ("W16", "weak2", "(beta1^T e) (beta3^T (B2 e)^2) = 1/2"),
    ("W17", "weak2", "beta1^T (B1 (B1 e)) = 0"),
    ("W18", "weak2", "beta3^T (B2 (B1 e)) = 0"),
    ("W19", "weak2", "beta3^T (A2 (B0 e)) = 0"),
    ("W20", "weak2", "beta1^T (A1 (B0 e)) = 0"),
    ("W21", "weak2", "alpha^T (B0 (B1 e)) = 0"),
    ("W22", "weak2", "beta2^T (A1 e) = 0"),
    ("W23", "weak2", "beta4^T (A2 e) = 0"),
    ("W24", "weak2", "beta1^T ((A1 e)(B1 e)) = 0"),
    ("W25", "weak2", "beta3^T ((A2 e)(B2 e)) = 0"),
    ("W26", "weak2", "beta4^T (A2 (B0 e)) = 0"),
    ("W27", "weak2", "beta2^T (A1 (B0 e)) = 0"),
    ("W28", "weak2", "beta2^T (A1 (B0 e)^2) = 0"),
    ("W29", "weak2", "beta4^T (A2 (B0 e)^2) = 0"),
    ("W30", "weak2", "beta3^T (B2 (A1 e)) = 0"),
    ("W31", "weak2", "beta1^T (B1 (A1 e)) = 0"),
    ("W32", "weak2", "beta2^T (B1 e)^2 = 0"),
    ("W33", "weak2", "beta4^T (B2 e)^2 = 0"),
    ("W34", "weak2", "beta4^T (B2 (B1 e)) = 0"),
    ("W35", "weak2", "beta2^T (B1 (B1 e)) = 0"),
    ("W36", "weak2", "beta1^T (B1 e)^3 = 0"),
    ("W37", "weak2", "beta3^T (B2 e)^3 = 0"),
    ("W38", "weak2", "beta1^T (B1 (B1 e)^2) = 0"),
    ("W39", "weak2", "beta3^T (B2 (B1 e)^2) = 0"),
    ("W40", "weak2", "alpha^T ((B0 e)(B0 (B1 e))) = 0"),
    ("W41", "weak2", "beta1^T ((A1 (B0 e))(B1 e)) = 0"),
    ("W42", "weak2", "beta3^T ((A2 (B0 e))(B2 e)) = 0"),
    ("W43", "weak2", "beta1^T (A1 (B0 (B1 e))) = 0"),
    ("W44", "weak2", "beta3^T (A2 (B0 (B1 e))) = 0"),
    ("W45", "weak2", "beta1^T (B1 (A1 (B0 e))) = 0"),
    ("W46", "weak2", "beta3^T (B2 (A1 (B0 e))) = 0"),
    ("W47", "weak2", "beta1^T ((B1 e)(B1 (B1 e))) = 0"),
    ("W48", "weak2", "beta3^T ((B2 e)(B2 (B1 e))) = 0"),
    ("W49", "weak2", "beta1^T (B1 (B1 (B1 e))) = 0"),
    ("W50", "weak2", "beta3^T (B2 (B1 (B1 e))) = 0"),
    ("D3A", "det3", "alpha^T (A0 e)^2 = 1/3"),
    ("D3B", "det3", "alpha^T (A0 (A0 e)) = 1/6"),
    ("D4A", "det4", "alpha^T (A0 (A0 e)^2) = 1/12"),
    ("D4B", "det4", "alpha^T ((A0 e)(A0 (A0 e))) = 1/8"),
    ("D4C", "det4", "alpha^T (A0 e)^3 = 1/4"),
    ("T1", "node", "beta2^T ((A1 e)(B1 e)) (beta1^T e)^2 = 2/3"),
    ("T2", "node", "(beta1^T e) (beta3^T (B2 e)^4) = 1"),
)

# the four rules that turn L into Python, applied in this order
_RULES = (
    (re.compile(r"(\w+)\^T "), r"t.\1 @ "),   # w^T x  ->  t.w @ x
    (re.compile(r"\((\w+) "), r"(t.\1 @ "),   # (M x)  ->  (t.M @ x)
    (re.compile(r"\) ?\("), ")*("),           # )( and ) (  ->  )*(
    (re.compile(r"\^(\d)"), r"**\1"),         # ^k  ->  **k
)
# what the rewritten L may contain: tableau arrays, e, @, *, **<digit>,
# brackets and spaces
_PYTHON = re.compile(r"(?:t\.(?:%s)\b|e\b|@|\*\*\d|\*|[() ])+"
                     % "|".join(_VECTOR_KEYS + _MATRIX_KEYS))


def _rewrite(cid, text):
    """Return L of a printed condition "L = r" as Python, and r."""
    lhs, rhs = text.split(" = ")
    for pattern, repl in _RULES:
        lhs = pattern.sub(repl, lhs)
    if not _PYTHON.fullmatch(lhs):
        raise ValueError("condition %s: %r is not a product of tableau "
                         "arrays" % (cid, text))
    return lhs, float(Fraction(rhs))


_OPS = {ast.MatMult: "@", ast.Mult: "*", ast.Pow: "**"}


def _shared(lhs_texts):
    """Compile lhs_all(t, e) from rewritten left sides.

    Each distinct array read or operation is bound to one local, keyed
    on its text over the locals of its operands, so a sub-expression
    that recurs anywhere in the table is computed once.
    """
    names = {}  # "<operand> <op> <operand>" or "t.<array>" -> local
    lines = []

    def local(node):
        if isinstance(node, ast.BinOp):
            expr = "%s %s %s" % (local(node.left), _OPS[type(node.op)],
                                 local(node.right))
        elif isinstance(node, ast.Attribute):
            expr = ast.unparse(node)
        else:  # e, or the digit of a power
            return ast.unparse(node)
        if expr not in names:
            names[expr] = "_%d" % len(names)
            lines.append("    %s = %s\n" % (names[expr], expr))
        return names[expr]

    results = [local(ast.parse(lhs, mode="eval").body) for lhs in lhs_texts]
    namespace = {"__builtins__": {}}
    exec("def lhs_all(t, e):\n%s    return (%s)\n"
         % ("".join(lines), ", ".join(results)), namespace)
    return namespace["lhs_all"]


_REWRITTEN = tuple(_rewrite(cid, text) for cid, _, text in _TABLE)
CONDITIONS = tuple(ConditionSpec(cid, group, rhs, text)
                   for (cid, group, text), (_, rhs) in zip(_TABLE, _REWRITTEN))
#: lhs_all(t, e) -> the 57 left sides L(t) in canonical order, each
#: distinct sub-expression evaluated once; e is np.ones(t.s)
lhs_all = _shared(lhs for lhs, _ in _REWRITTEN)
GROUPS = tuple(dict.fromkeys(c.group for c in CONDITIONS))

WEAK_ORDER1_IDS, WEAK_ORDER2_IDS, DET_ORDER3_IDS, DET_ORDER4_IDS, NODE_IDS = (
    tuple(c.cid for c in CONDITIONS if c.group == group) for group in GROUPS)


def infer_orders(satisfied):
    """Derive the order attribution from the set of satisfied ids.

    Args:
      satisfied: set of condition ids that hold

    Returns:
      OrderClaim
    """
    p_stoch = 0
    if all(cid in satisfied for cid in WEAK_ORDER1_IDS):
        p_stoch = 1
        if all(cid in satisfied for cid in WEAK_ORDER2_IDS):
            p_stoch = 2
    p_det = 0
    if "W1" in satisfied:
        p_det = 1
        if "W8" in satisfied:
            p_det = 2
            if all(cid in satisfied for cid in DET_ORDER3_IDS):
                p_det = 3
    return OrderClaim(p_det=p_det, p_stoch=p_stoch)


@dataclass(frozen=True)
class ConditionReport:
    """Residuals of every registered condition for one tableau.

    residuals maps condition id to L(t) - r in registry order;
    satisfied marks |residual| <= tol; inferred is the order
    attribution derived from the satisfied set.
    """

    name: str | None
    tol: float
    residuals: dict
    satisfied: dict
    inferred: OrderClaim

    def failed_ids(self, group=None):
        """Return the ids of all failed conditions, in registry order.

        Args:
          group: optionally restrict to one registry group,
            e.g. "weak2"

        Raises:
          UnknownConditionError: if group is not a registry group
        """
        if group is not None and group not in GROUPS:
            raise UnknownConditionError(
                "unknown condition group %r; known groups are %s"
                % (group, ", ".join(GROUPS)))
        return [spec.cid for spec in CONDITIONS
                if not self.satisfied[spec.cid]
                and (group is None or spec.group == group)]

    def as_text(self):
        """Render the report as a fixed-width text table."""
        title = "condition residuals"
        if self.name:
            title += " for %s" % self.name
        lines = ["%s (tol %.1E)" % (title, self.tol), ""]
        lines.append("  %-4s %-6s %14s   %s" % ("id", "status", "residual",
                                                "condition"))
        for spec in CONDITIONS:
            res = self.residuals[spec.cid]
            status = "pass" if self.satisfied[spec.cid] else "FAIL"
            lines.append("  %-4s %-6s %14.5E   %s"
                         % (spec.cid, status, res, spec.text))
        lines.append("")
        lines.append("inferred order: p_det=%d, p_stoch=%d"
                     % (self.inferred.p_det, self.inferred.p_stoch))
        return "\n".join(lines) + "\n"

    def as_csv(self):
        """Render the report as CSV with columns id,residual,satisfied."""
        lines = ["id,residual,satisfied"]
        for spec in CONDITIONS:
            lines.append("%s,%.5E,%s"
                         % (spec.cid, self.residuals[spec.cid],
                            "true" if self.satisfied[spec.cid] else "false"))
        return "\n".join(lines) + "\n"


def evaluate_all(t, tol=DEFAULT_TOL):
    """Evaluate every registered condition on a tableau.

    Args:
      t: CoefficientTableau
      tol: non-negative absolute tolerance on the residuals

    Returns:
      ConditionReport
    """
    if not (_is_finite(tol) and tol >= 0.0):
        raise ValueError("tol must be a finite non-negative number, got %r"
                         % (tol,))
    residuals = {spec.cid: float(lhs) - spec.rhs
                 for spec, lhs in zip(CONDITIONS, lhs_all(t, np.ones(t.s)))}
    satisfied = {cid: abs(res) <= tol for cid, res in residuals.items()}
    inferred = infer_orders({cid for cid, ok in satisfied.items() if ok})
    return ConditionReport(name=t.name, tol=float(tol), residuals=residuals,
                           satisfied=satisfied, inferred=inferred)
