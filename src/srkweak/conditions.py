"""Algebraic order conditions for explicit stochastic Runge-Kutta schemes.

Each condition is an equation L(tableau) = r between a polynomial
expression in the tableau coefficients and a rational constant.  The
registry below holds all of them in canonical order:

  W1..W7    weak order 1 for general Ito SDEs
  W8..W50   weak order 2 (on top of W1..W7)
  D3A, D3B  deterministic order 3 (classical Runge-Kutta conditions)
  D4A..D4C  deterministic order 4, reported for information only
  T1, T2    two further conditions that single out preferred stage
            nodes; informational as well

Every evaluation returns the residual L(tableau) - r, computed exactly
as the condition is written, with no rearrangement.  A condition counts
as satisfied when |residual| <= tol.

The weak order attributed to a scheme is 2 if W1..W50 all hold, 1 if
W1..W7 all hold, and 0 otherwise.  The deterministic order is read off
the drift-only conditions: 1 needs W1, 2 additionally W8, 3
additionally D3A and D3B.  The attribution is capped at 3; D4A..D4C
never raise it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tableau import Error, OrderClaim

DEFAULT_TOL = 1e-12


class UnknownConditionError(Error):
    """An unknown condition id was requested."""
    pass


@dataclass(frozen=True)
class ConditionSpec:
    """One order condition: an expression, its target value and metadata."""

    cid: str
    group: str  # "weak1", "weak2", "det3", "det4" or "node"
    rhs: float
    text: str
    lhs: callable


def _q(x):
    # component-wise square, used often enough to warrant a shorthand
    return np.asarray(x) ** 2


_REGISTRY = []


def _cond(cid, group, rhs, text, lhs):
    _REGISTRY.append(ConditionSpec(cid, group, float(rhs), text, lhs))


_cond("W1", "weak1", 1, "alpha^T e = 1",
      lambda t, e: t.alpha @ e)
_cond("W2", "weak1", 0, "beta4^T e = 0",
      lambda t, e: t.beta4 @ e)
_cond("W3", "weak1", 0, "beta3^T e = 0",
      lambda t, e: t.beta3 @ e)
_cond("W4", "weak1", 1, "(beta1^T e)^2 = 1",
      lambda t, e: (t.beta1 @ e) ** 2)
_cond("W5", "weak1", 0, "beta2^T e = 0",
      lambda t, e: t.beta2 @ e)
_cond("W6", "weak1", 0, "beta1^T (B1 e) = 0",
      lambda t, e: t.beta1 @ (t.B1 @ e))
_cond("W7", "weak1", 0, "beta3^T (B2 e) = 0",
      lambda t, e: t.beta3 @ (t.B2 @ e))
_cond("W8", "weak2", 0.5, "alpha^T (A0 e) = 1/2",
      lambda t, e: t.alpha @ (t.A0 @ e))
_cond("W9", "weak2", 0.5, "alpha^T (B0 e)^2 = 1/2",
      lambda t, e: t.alpha @ _q(t.B0 @ e))
_cond("W10", "weak2", 0.5, "(beta1^T e) (alpha^T (B0 e)) = 1/2",
      lambda t, e: (t.beta1 @ e) * (t.alpha @ (t.B0 @ e)))
_cond("W11", "weak2", 0.5, "(beta1^T e) (beta1^T (A1 e)) = 1/2",
      lambda t, e: (t.beta1 @ e) * (t.beta1 @ (t.A1 @ e)))
_cond("W12", "weak2", 0, "beta3^T (A2 e) = 0",
      lambda t, e: t.beta3 @ (t.A2 @ e))
_cond("W13", "weak2", 1, "beta2^T (B1 e) = 1",
      lambda t, e: t.beta2 @ (t.B1 @ e))
_cond("W14", "weak2", 1, "beta4^T (B2 e) = 1",
      lambda t, e: t.beta4 @ (t.B2 @ e))
_cond("W15", "weak2", 0.5, "(beta1^T e) (beta1^T (B1 e)^2) = 1/2",
      lambda t, e: (t.beta1 @ e) * (t.beta1 @ _q(t.B1 @ e)))
_cond("W16", "weak2", 0.5, "(beta1^T e) (beta3^T (B2 e)^2) = 1/2",
      lambda t, e: (t.beta1 @ e) * (t.beta3 @ _q(t.B2 @ e)))
_cond("W17", "weak2", 0, "beta1^T (B1 (B1 e)) = 0",
      lambda t, e: t.beta1 @ (t.B1 @ (t.B1 @ e)))
_cond("W18", "weak2", 0, "beta3^T (B2 (B1 e)) = 0",
      lambda t, e: t.beta3 @ (t.B2 @ (t.B1 @ e)))
_cond("W19", "weak2", 0, "beta3^T (A2 (B0 e)) = 0",
      lambda t, e: t.beta3 @ (t.A2 @ (t.B0 @ e)))
_cond("W20", "weak2", 0, "beta1^T (A1 (B0 e)) = 0",
      lambda t, e: t.beta1 @ (t.A1 @ (t.B0 @ e)))
_cond("W21", "weak2", 0, "alpha^T (B0 (B1 e)) = 0",
      lambda t, e: t.alpha @ (t.B0 @ (t.B1 @ e)))
_cond("W22", "weak2", 0, "beta2^T (A1 e) = 0",
      lambda t, e: t.beta2 @ (t.A1 @ e))
_cond("W23", "weak2", 0, "beta4^T (A2 e) = 0",
      lambda t, e: t.beta4 @ (t.A2 @ e))
_cond("W24", "weak2", 0, "beta1^T ((A1 e)(B1 e)) = 0",
      lambda t, e: t.beta1 @ ((t.A1 @ e) * (t.B1 @ e)))
_cond("W25", "weak2", 0, "beta3^T ((A2 e)(B2 e)) = 0",
      lambda t, e: t.beta3 @ ((t.A2 @ e) * (t.B2 @ e)))
_cond("W26", "weak2", 0, "beta4^T (A2 (B0 e)) = 0",
      lambda t, e: t.beta4 @ (t.A2 @ (t.B0 @ e)))
_cond("W27", "weak2", 0, "beta2^T (A1 (B0 e)) = 0",
      lambda t, e: t.beta2 @ (t.A1 @ (t.B0 @ e)))
_cond("W28", "weak2", 0, "beta2^T (A1 (B0 e)^2) = 0",
      lambda t, e: t.beta2 @ (t.A1 @ _q(t.B0 @ e)))
_cond("W29", "weak2", 0, "beta4^T (A2 (B0 e)^2) = 0",
      lambda t, e: t.beta4 @ (t.A2 @ _q(t.B0 @ e)))
_cond("W30", "weak2", 0, "beta3^T (B2 (A1 e)) = 0",
      lambda t, e: t.beta3 @ (t.B2 @ (t.A1 @ e)))
_cond("W31", "weak2", 0, "beta1^T (B1 (A1 e)) = 0",
      lambda t, e: t.beta1 @ (t.B1 @ (t.A1 @ e)))
_cond("W32", "weak2", 0, "beta2^T (B1 e)^2 = 0",
      lambda t, e: t.beta2 @ _q(t.B1 @ e))
_cond("W33", "weak2", 0, "beta4^T (B2 e)^2 = 0",
      lambda t, e: t.beta4 @ _q(t.B2 @ e))
_cond("W34", "weak2", 0, "beta4^T (B2 (B1 e)) = 0",
      lambda t, e: t.beta4 @ (t.B2 @ (t.B1 @ e)))
_cond("W35", "weak2", 0, "beta2^T (B1 (B1 e)) = 0",
      lambda t, e: t.beta2 @ (t.B1 @ (t.B1 @ e)))
_cond("W36", "weak2", 0, "beta1^T (B1 e)^3 = 0",
      lambda t, e: t.beta1 @ (t.B1 @ e) ** 3)
_cond("W37", "weak2", 0, "beta3^T (B2 e)^3 = 0",
      lambda t, e: t.beta3 @ (t.B2 @ e) ** 3)
_cond("W38", "weak2", 0, "beta1^T (B1 (B1 e)^2) = 0",
      lambda t, e: t.beta1 @ (t.B1 @ _q(t.B1 @ e)))
_cond("W39", "weak2", 0, "beta3^T (B2 (B1 e)^2) = 0",
      lambda t, e: t.beta3 @ (t.B2 @ _q(t.B1 @ e)))
_cond("W40", "weak2", 0, "alpha^T ((B0 e)(B0 (B1 e))) = 0",
      lambda t, e: t.alpha @ ((t.B0 @ e) * (t.B0 @ (t.B1 @ e))))
_cond("W41", "weak2", 0, "beta1^T ((A1 (B0 e))(B1 e)) = 0",
      lambda t, e: t.beta1 @ ((t.A1 @ (t.B0 @ e)) * (t.B1 @ e)))
_cond("W42", "weak2", 0, "beta3^T ((A2 (B0 e))(B2 e)) = 0",
      lambda t, e: t.beta3 @ ((t.A2 @ (t.B0 @ e)) * (t.B2 @ e)))
_cond("W43", "weak2", 0, "beta1^T (A1 (B0 (B1 e))) = 0",
      lambda t, e: t.beta1 @ (t.A1 @ (t.B0 @ (t.B1 @ e))))
_cond("W44", "weak2", 0, "beta3^T (A2 (B0 (B1 e))) = 0",
      lambda t, e: t.beta3 @ (t.A2 @ (t.B0 @ (t.B1 @ e))))
_cond("W45", "weak2", 0, "beta1^T (B1 (A1 (B0 e))) = 0",
      lambda t, e: t.beta1 @ (t.B1 @ (t.A1 @ (t.B0 @ e))))
_cond("W46", "weak2", 0, "beta3^T (B2 (A1 (B0 e))) = 0",
      lambda t, e: t.beta3 @ (t.B2 @ (t.A1 @ (t.B0 @ e))))
_cond("W47", "weak2", 0, "beta1^T ((B1 e)(B1 (B1 e))) = 0",
      lambda t, e: t.beta1 @ ((t.B1 @ e) * (t.B1 @ (t.B1 @ e))))
_cond("W48", "weak2", 0, "beta3^T ((B2 e)(B2 (B1 e))) = 0",
      lambda t, e: t.beta3 @ ((t.B2 @ e) * (t.B2 @ (t.B1 @ e))))
_cond("W49", "weak2", 0, "beta1^T (B1 (B1 (B1 e))) = 0",
      lambda t, e: t.beta1 @ (t.B1 @ (t.B1 @ (t.B1 @ e))))
_cond("W50", "weak2", 0, "beta3^T (B2 (B1 (B1 e))) = 0",
      lambda t, e: t.beta3 @ (t.B2 @ (t.B1 @ (t.B1 @ e))))
_cond("D3A", "det3", 1.0 / 3.0, "alpha^T (A0 e)^2 = 1/3",
      lambda t, e: t.alpha @ _q(t.A0 @ e))
_cond("D3B", "det3", 1.0 / 6.0, "alpha^T (A0 (A0 e)) = 1/6",
      lambda t, e: t.alpha @ (t.A0 @ (t.A0 @ e)))
_cond("D4A", "det4", 1.0 / 12.0, "alpha^T (A0 (A0 e)^2) = 1/12",
      lambda t, e: t.alpha @ (t.A0 @ _q(t.A0 @ e)))
_cond("D4B", "det4", 1.0 / 8.0, "alpha^T ((A0 e)(A0 (A0 e))) = 1/8",
      lambda t, e: t.alpha @ ((t.A0 @ e) * (t.A0 @ (t.A0 @ e))))
_cond("D4C", "det4", 0.25, "alpha^T (A0 e)^3 = 1/4",
      lambda t, e: t.alpha @ (t.A0 @ e) ** 3)
_cond("T1", "node", 2.0 / 3.0, "beta2^T ((A1 e)(B1 e)) (beta1^T e)^2 = 2/3",
      lambda t, e: (t.beta2 @ ((t.A1 @ e) * (t.B1 @ e))) * (t.beta1 @ e) ** 2)
_cond("T2", "node", 1, "(beta1^T e) (beta3^T (B2 e)^4) = 1",
      lambda t, e: (t.beta1 @ e) * (t.beta3 @ (t.B2 @ e) ** 4))

CONDITIONS = tuple(_REGISTRY)
_BY_ID = {c.cid: c for c in CONDITIONS}

WEAK_ORDER1_IDS, WEAK_ORDER2_IDS, DET_ORDER3_IDS, DET_ORDER4_IDS, NODE_IDS = (
    tuple(c.cid for c in CONDITIONS if c.group == group)
    for group in ("weak1", "weak2", "det3", "det4", "node"))


def _residual(spec, t, e):
    """Return L(t) - r for one condition, e being np.ones(t.s)."""
    return float(spec.lhs(t, e)) - spec.rhs


def condition_ids():
    """Return all condition ids in canonical order."""
    return [c.cid for c in CONDITIONS]


def evaluate(t, cid):
    """Evaluate a single order condition on a tableau.

    Args:
      t: CoefficientTableau
      cid: condition id, e.g. "W13" or "D3A"

    Returns:
      the residual L(t) - r as a float; the condition holds iff the
      residual vanishes

    Raises:
      UnknownConditionError: if cid is not in the registry
    """
    try:
        spec = _BY_ID[cid]
    except KeyError:
        raise UnknownConditionError(
            "unknown condition id %r; known ids are W1..W50, D3A, D3B, "
            "D4A..D4C, T1, T2" % (cid,)) from None
    return _residual(spec, t, np.ones(t.s))


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

    def satisfied_ids(self):
        """Return the ids of all satisfied conditions, in registry order."""
        return [cid for cid in self.residuals if self.satisfied[cid]]

    def failed_ids(self, group=None):
        """Return the ids of all failed conditions, in registry order.

        Args:
          group: optionally restrict to one registry group,
            e.g. "weak2"
        """
        return [cid for cid in self.residuals
                if not self.satisfied[cid]
                and (group is None or _BY_ID[cid].group == group)]

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
    if not (np.isfinite(tol) and tol >= 0.0):
        raise ValueError("tol must be a finite non-negative number, got %r"
                         % (tol,))
    e = np.ones(t.s)
    residuals = {}
    satisfied = {}
    for spec in CONDITIONS:
        res = _residual(spec, t, e)
        residuals[spec.cid] = res
        satisfied[spec.cid] = abs(res) <= tol
    inferred = infer_orders({cid for cid, ok in satisfied.items() if ok})
    return ConditionReport(name=t.name, tol=float(tol), residuals=residuals,
                           satisfied=satisfied, inferred=inferred)
