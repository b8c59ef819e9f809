"""Classified coefficient families and the named schemes built from them.

The explicit schemes with one, two and three stages whose coefficients
satisfy prescribed blocks of order conditions form a small number of
parametric families.  Each family fixes most of the tableau and leaves
a handful of free constants; admissible values are restricted by
explicit constraints (non-vanishing denominators, a sign condition on
the discriminant kappa, interval conditions).  A violated constraint
is reported as a ConstraintViolation naming it exactly as stated.

Families and their free parameters (c1 in {-1, 1} everywhere):

  ORD11                                      weak order (1, 1), s = 1
  ORD21       c2..c11                        weak order (2, 1), s = 2
  CASE_A      c3, c4                         weak order (2, 2), s = 3
  CASE_211    c2, c3, c4, c5, c6, c7         weak order (2, 2), s = 3
  CASE_212    c2, c3, c4, c5, c6, c7, c8     weak order (2, 2), s = 3
  CASE_221    c3, c4, c6, c7, c8, c9         weak order (2, 2), s = 3
  CASE_222    c3, c4, c6, c7, c8             weak order (2, 2), s = 3
  CASE_223    c3, c4, c6, c7, c8             weak order (2, 2), s = 3
  ORD32_212   c2, c3, c4, c5, c6             weak order (3, 2), s = 3
  ORD32_221A  c3, c4, c9                     weak order (3, 2), s = 3
  ORD32_221B  c3, c4, c9                     weak order (3, 2), s = 3
  ORD32_221C  c3, c4, c8, lam                weak order (3, 2), s = 3
  ORD32_223A  c3, c4                         weak order (3, 2), s = 3
  ORD32_223C  c3, c4, c7                     weak order (3, 2), s = 3

The three-stage families share one skeleton, _stage3: the beta weights
and A1, A2, B1, B2 are fixed by the nodes c3 != 0 and c4 != 0 (and by
c2, c5 in the CASE_21x families), which default to sqrt(2/3) and
sqrt(2), the values singled out by two additional third-order
conditions.  A CASE builder adds its checks and closed forms for
alpha, A0 and B0_21, B0_31 (B0_32 = 0); an ORD32 builder specialises
its CASE parent.  CASE_221 and its order-(3,2) refinements carry a
sign choice (sign_branch) for the square root of kappa in the B0
entries; ORD32_212 uses the same switch for the sign in its
discriminant formula; the other families reject sign_branch = -1.

Each family is built by one function whose keyword parameters, after
the family id and c1, are the family's free parameters with their
defaults; a sign_branch keyword marks a sign choice.  make_family takes
both from these signatures, and refuses a member whose closed forms
overflowed to a non-finite entry through that tableau's own record.

In the ORD32_223A and ORD32_223C families the entry A0[3][2] is pinned
to -1/3 and -1/(6 c6 c7) respectively; these are the unique values for
which the second deterministic third-order condition holds, the
remaining printed constants only settle the first one.

Named schemes:

  EM      Euler-Maruyama, ORD11 with c1 = 1
  RDI1WM  ORD21 with c2 = c3 = 2/3, order (2, 1)
  PL1WM   CASE_A with c3 = c4 = 1, order (2, 2)
  RDI2WM  CASE_A with default nodes, order (2, 2)
  RDI3WM  ORD32_221C with lam = 3/4, c8 = 1/2, order (3, 2)
  RDI4WM  ORD32_221C with lam = 1, c8 = 1/2, order (3, 2); its drift
          part is the classical Simpson scheme
"""

from __future__ import annotations

import inspect
import math
from dataclasses import dataclass, fields

from .tableau import CoefficientTableau, Error, _is_finite

DEFAULT_C3 = math.sqrt(2.0 / 3.0)
DEFAULT_C4 = math.sqrt(2.0)


class UnknownFamilyError(Error):
    """An unknown family id was requested."""


class UnknownSchemeError(Error):
    """An unknown named scheme was requested."""


class FamilyParameterError(Error):
    """A parameter was supplied that the family does not leave free, a
    free parameter is not finite, or admissible values underflow to a zero
    denominator (c3^2 for c3 = 1e-200 in CASE_A) or overflow to an
    entry that is not finite (c6 = c7 = 1e200 in CASE_221), which the
    member's structural record shows."""


class ConstraintViolation(Error):
    """A free parameter value violates an admissibility constraint.

    The constraint attribute carries the constraint exactly as stated,
    e.g. "c2 != 0" or "kappa >= 0".
    """

    def __init__(self, family, constraint, detail):
        super().__init__("family %s: constraint violated: %s (%s)"
                         % (family, constraint, detail))
        self.family = family
        self.constraint = constraint


@dataclass(frozen=True)
class FamilyParams:
    """Free parameters selecting one member of a coefficient family.

    Unset parameters (None) take the family default: 0 for plain
    constants, sqrt(2/3) for the node c3 and sqrt(2) for the node c4
    of the three-stage families.  sign_branch picks the sign of
    sqrt(kappa) (or of the discriminant root in ORD32_212); -1 is
    rejected by families without a sign choice.
    """

    family: str
    c1: float = 1.0
    sign_branch: int = 1
    c2: float | None = None
    c3: float | None = None
    c4: float | None = None
    c5: float | None = None
    c6: float | None = None
    c7: float | None = None
    c8: float | None = None
    c9: float | None = None
    c10: float | None = None
    c11: float | None = None
    lam: float | None = None


# the optional free parameters, in field order: c2..c11 and lam
_PARAM_NAMES = tuple(f.name for f in fields(FamilyParams)
                     if f.default is None)


def family_id_from_cli(token):
    """Map a CLI family token like "ord32-221c" to its family id.

    Raises:
      UnknownFamilyError: if the token does not name a family
    """
    fid = token.strip().replace("-", "_").upper()
    if fid not in FAMILY_IDS:
        raise UnknownFamilyError(
            "unknown family %r; known families: %s"
            % (token, ", ".join(f.lower().replace("_", "-")
                                for f in FAMILY_IDS)))
    return fid


def _require(fid, ok, constraint, detail, *values):
    """Raise ConstraintViolation(fid, constraint, detail % values) unless
    ok holds; the detail is formatted only for a violation."""
    if not ok:
        raise ConstraintViolation(fid, constraint, detail % values)


def _ord11(fid, c1):
    return CoefficientTableau(
        s=1, alpha=[1.0], beta1=[c1], beta2=[0.0], beta3=[0.0], beta4=[0.0],
        A0=[[0.0]], A1=[[0.0]], A2=[[0.0]], B0=[[0.0]], B1=[[0.0]], B2=[[0.0]])


def _ord21(fid, c1, c2=0.0, c3=0.0, c4=0.0, c5=0.0, c6=0.0, c7=0.0, c8=0.0,
           c9=0.0, c10=0.0, c11=0.0):
    _require(fid, c2 != 0.0, "c2 != 0", "c2 = %r", c2)
    _require(fid, c4 * c10 == 0.0, "c4 c10 = 0", "c4 = %r, c10 = %r", c4, c10)
    _require(fid, c6 * c11 == 0.0, "c6 c11 = 0", "c6 = %r, c11 = %r", c6, c11)
    return CoefficientTableau(
        s=2,
        alpha=[1.0 - 1.0 / (2.0 * c2), 1.0 / (2.0 * c2)],
        beta1=[c1 - c4, c4], beta2=[c5, -c5], beta3=[c6, -c6],
        beta4=[c7, -c7],
        A0=[[0.0, 0.0], [c2, 0.0]], A1=[[0.0, 0.0], [c8, 0.0]],
        A2=[[0.0, 0.0], [c9, 0.0]], B0=[[0.0, 0.0], [c3, 0.0]],
        B1=[[0.0, 0.0], [c10, 0.0]], B2=[[0.0, 0.0], [c11, 0.0]])


def _stage3(fid, c1, alpha, a0, b0, c3, c4, c2=0.0, c5=0.0):
    """The s = 3 tableau with weights alpha, A0 from a0 = (A0_21, A0_31,
    A0_32) and B0 from b0 = (B0_21, B0_31), B0_32 = 0; the beta weights
    and A1, A2, B1, B2 are those that all s = 3 families share."""
    _require(fid, c3 != 0.0, "c3 != 0", "c3 = %r", c3)
    _require(fid, c4 != 0.0, "c4 != 0", "c4 = %r", c4)

    def lower(x21, x31, x32=0.0):
        return [[0.0, 0.0, 0.0], [x21, 0.0, 0.0], [x31, x32, 0.0]]

    return CoefficientTableau(
        s=3, alpha=alpha,
        beta1=[c1 - c1 / (2.0 * c3 ** 2),
               c1 / (4.0 * c3 ** 2), c1 / (4.0 * c3 ** 2)],
        beta2=[0.0, 1.0 / (2.0 * c3), -1.0 / (2.0 * c3)],
        beta3=[-c1 / (2.0 * c4 ** 2),
               c1 / (4.0 * c4 ** 2), c1 / (4.0 * c4 ** 2)],
        beta4=[0.0, 1.0 / (2.0 * c4), -1.0 / (2.0 * c4)],
        A0=lower(*a0), A1=lower(c3 ** 2, c3 ** 2 - c2, c2),
        A2=lower(0.0, c5, -c5), B0=lower(*b0), B1=lower(c3, -c3),
        B2=lower(c4, -c4))


def _case_a(fid, c1, c3=DEFAULT_C3, c4=DEFAULT_C4):
    return _stage3(fid, c1, [0.5, 0.5, 0.0], (1.0, 0.0, 0.0), (c1, 0.0),
                   c3, c4)


def _case_211(fid, c1, c2=0.0, c3=DEFAULT_C3, c4=DEFAULT_C4, c5=0.0, c6=0.0,
              c7=0.0):
    return _stage3(fid, c1, [0.5 - c6, c6, 0.5], (0.0, c7, 1.0 - c7),
                   (0.0, c1), c3, c4, c2, c5)


def _case_212(fid, c1, c2=0.0, c3=DEFAULT_C3, c4=DEFAULT_C4, c5=0.0, c6=0.0,
              c7=0.0, c8=0.0):
    _require(fid, c6 != 0.0, "c6 != 0", "c6 = %r", c6)
    alpha2 = (1.0 - c7 - c8) / (2.0 * c6)
    return _stage3(fid, c1, [0.5 - alpha2, alpha2, 0.5], (c6, c7, c8),
                   (0.0, c1), c3, c4, c2, c5)


def _case_221(fid, c1, sign_branch=1, c3=DEFAULT_C3, c4=DEFAULT_C4, c6=0.0,
              c7=0.0, c8=0.0, c9=0.0):
    _require(fid, c6 != 0.0, "c6 != 0", "c6 = %r", c6)
    _require(fid, c7 != 0.0, "c7 != 0", "c7 = %r", c7)
    _require(fid, c6 != -c7, "c6 != -c7", "c6 = %r, c7 = %r", c6, c7)
    kappa = c6 * c7 * (2.0 * c6 + 2.0 * c7 - 1.0)
    _require(fid, not kappa < 0.0, "kappa >= 0",
             "kappa = %r for c6 = %r, c7 = %r", kappa, c6, c7)
    root = math.sqrt(kappa)
    _require(fid, not (c6 == root or c6 == -root), "c6 != +/-sqrt(kappa)",
             "c6 = %r, sqrt(kappa) = %r", c6, root)
    lam = (1.0 - 2.0 * c6 * c8) / (2.0 * c7)
    return _stage3(
        fid, c1, [1.0 - c6 - c7, c6, c7], (c8, lam - c9, c9),
        (0.5 * c1 * (c6 - sign_branch * root) / (c6 * (c6 + c7)),
         0.5 * c1 * (c7 + sign_branch * root) / (c7 * (c6 + c7))), c3, c4)


def _case_222(fid, c1, c3=DEFAULT_C3, c4=DEFAULT_C4, c6=0.0, c7=0.0, c8=0.0):
    _require(fid, c8 != 0.0, "c8 != 0", "c8 = %r", c8)
    return _stage3(fid, c1, [0.5, 0.0, 0.5], (c6, 1.0 - c7, c7), (c8, c1),
                   c3, c4)


def _case_223(fid, c1, c3=DEFAULT_C3, c4=DEFAULT_C4, c6=0.0, c7=0.0, c8=0.0):
    _require(fid, not (c6 == 0.0 or c6 == -0.5), "c6 not in {-1/2, 0}",
             "c6 = %r", c6)
    row_sum = (1.0 - 2.0 * c6 * c7) / (-2.0 * c6)
    return _stage3(fid, c1, [1.0, c6, -c6], (c7, row_sum - c8, c8),
                   (0.5 * c1 * (1.0 + 1.0 / (2.0 * c6)),
                    0.5 * c1 * (1.0 - 1.0 / (2.0 * c6))), c3, c4)


def _ord32_212(fid, c1, sign_branch=1, c2=0.0, c3=DEFAULT_C3, c4=DEFAULT_C4,
               c5=0.0, c6=0.0):
    _require(fid, c6 != 0.0, "c6 != 0", "c6 = %r", c6)
    disc = 9.0 * c6 ** 2 - 36.0 * c6 + 24.0
    _require(fid, not disc < 0.0, "9 c6^2 - 36 c6 + 24 >= 0",
             "discriminant = %r for c6 = %r", disc, c6)
    return _case_212(
        fid, c1, c2, c3, c4, c5, c6,
        c7=0.5 * c6 + sign_branch * math.sqrt(disc) / 6.0 - 1.0 / (3.0 * c6),
        c8=1.0 / (3.0 * c6))


def _ord32_221a(fid, c1, sign_branch=1, c3=DEFAULT_C3, c4=DEFAULT_C4,
                c9=0.0):
    _require(fid, c9 != 0.0, "c9 != 0", "c9 = %r", c9)
    c7 = 1.0 / (4.0 * c9)
    _require(fid, c7 not in (-0.75, 0.0, 0.5), "c7 not in {-3/4, 0, 1/2}",
             "c7 = 1/(4 c9) = %r", c7)
    _require(fid, not -0.25 < c7 < 0.0, "c7 not in ]-1/4, 0[",
             "c7 = 1/(4 c9) = %r", c7)
    return _case_221(fid, c1, sign_branch, c3, c4, c6=0.75, c7=c7,
                     c8=2.0 / 3.0, c9=c9)


def _ord32_221b(fid, c1, sign_branch=1, c3=DEFAULT_C3, c4=DEFAULT_C4,
                c9=0.0):
    _require(fid, c9 != 0.0, "c9 != 0", "c9 = %r", c9)
    c7 = 1.0 / (4.0 * c9)
    c6 = 0.75 - c7
    _require(fid, 0.0 < c6 < 0.75 and c6 != 0.25,
             "c6 in ]0, 1/4[ u ]1/4, 3/4[", "c6 = 3/4 - 1/(4 c9) = %r", c6)
    return _case_221(fid, c1, sign_branch, c3, c4, c6=c6, c7=c7,
                     c8=2.0 / 3.0, c9=c9)


def _ord32_221c(fid, c1, sign_branch=1, c3=DEFAULT_C3, c4=DEFAULT_C4,
                c8=0.0, lam=0.0):
    _require(fid, c8 not in (0.0, 2.0 / 3.0), "c8 not in {0, 2/3}",
             "c8 = %r", c8)
    _require(fid, lam not in (0.0, 2.0 / 3.0, c8, 2.0 / 3.0 - c8),
             "lambda not in {0, 2/3, c8, 2/3 - c8}",
             "lambda = %r, c8 = %r", lam, c8)
    _require(fid, (lam - 1.0) * c8 != lam ** 2 - 2.0 / 3.0,
             "(lambda - 1) c8 != lambda^2 - 2/3",
             "lambda = %r, c8 = %r", lam, c8)
    if c8 == 1.0:
        _require(fid, lam < 2.0 / 3.0, "lambda < 2/3 for c8 = 1",
                 "lambda = %r", lam)
    else:
        bound = (3.0 * c8 - 2.0) / (3.0 * (c8 - 1.0))
        if 2.0 / 3.0 < c8 < 1.0:
            ok = bound <= lam < 2.0 / 3.0
            constraint = ("(3 c8 - 2)/(3 (c8 - 1)) <= lambda < 2/3 "
                          "for 2/3 < c8 < 1")
        elif 0.0 < c8 < 2.0 / 3.0:
            ok = lam > 2.0 / 3.0 or lam <= bound
            constraint = ("lambda > 2/3 or lambda <= (3 c8 - 2)/(3 (c8 - 1)) "
                          "for 0 < c8 < 2/3")
        else:
            ok = lam < 2.0 / 3.0 or lam >= bound
            constraint = ("lambda < 2/3 or lambda >= (3 c8 - 2)/(3 (c8 - 1)) "
                          "for c8 < 0 or c8 > 1")
        _require(fid, ok, constraint, "lambda = %r, bound = %r", lam, bound)
    return _case_221(
        fid, c1, sign_branch, c3, c4,
        c6=(2.0 - 3.0 * lam) / (6.0 * c8 * (c8 - lam)),
        c7=(3.0 * c8 - 2.0) / (6.0 * lam * (c8 - lam)),
        c8=c8, c9=lam * (c8 - lam) / ((3.0 * c8 - 2.0) * c8))


def _ord32_223a(fid, c1, c3=DEFAULT_C3, c4=DEFAULT_C4):
    return _case_223(fid, c1, c3, c4, c6=0.75, c7=2.0 / 3.0, c8=-1.0 / 3.0)


def _ord32_223c(fid, c1, c3=DEFAULT_C3, c4=DEFAULT_C4, c7=0.0):
    _require(fid, c7 not in (-1.0 / 6.0, 0.0, 1.0 / 3.0),
             "c7 not in {-1/6, 0, 1/3}", "c7 = %r", c7)
    c6 = 1.0 / (4.0 * c7 - 4.0 / 3.0)
    return _case_223(fid, c1, c3, c4, c6=c6, c7=c7,
                     c8=-1.0 / (6.0 * c6 * c7))


# the builder of each family, in the order of FAMILY_IDS; the keyword
# parameters of a builder are the family's free parameters with their
# defaults, and sign_branch among them marks a sign choice
_FAMILIES = {
    "ORD11": _ord11,
    "ORD21": _ord21,
    "CASE_A": _case_a,
    "CASE_211": _case_211,
    "CASE_212": _case_212,
    "CASE_221": _case_221,
    "CASE_222": _case_222,
    "CASE_223": _case_223,
    "ORD32_212": _ord32_212,
    "ORD32_221A": _ord32_221a,
    "ORD32_221B": _ord32_221b,
    "ORD32_221C": _ord32_221c,
    "ORD32_223A": _ord32_223a,
    "ORD32_223C": _ord32_223c,
}

FAMILY_IDS = tuple(_FAMILIES)

# the keyword parameters of each builder (after fid and c1)
_KEYWORDS = {fid: tuple(inspect.signature(builder).parameters)[2:]
             for fid, builder in _FAMILIES.items()}

_NAMED = {
    "EM": FamilyParams("ORD11"),
    "RDI1WM": FamilyParams("ORD21", c2=2.0 / 3.0, c3=2.0 / 3.0),
    "PL1WM": FamilyParams("CASE_A", c3=1.0, c4=1.0),
    "RDI2WM": FamilyParams("CASE_A"),
    "RDI3WM": FamilyParams("ORD32_221C", lam=0.75, c8=0.5),
    "RDI4WM": FamilyParams("ORD32_221C", lam=1.0, c8=0.5),
}

NAMED_SCHEMES = tuple(_NAMED)


def make_family(params):
    """Construct the tableau selected by a FamilyParams value.

    Args:
      params: FamilyParams

    Returns:
      CoefficientTableau (unnamed)

    Raises:
      UnknownFamilyError: if params.family is not a known id
      FamilyParameterError: if a non-free parameter was supplied (as
        sign_branch = -1 is to a family without a sign choice), a free
        one is not finite, or admissible values underflow or overflow in
        the closed forms (an overflow through * or / is read from the
        member's structural record)
      ConstraintViolation: if a free parameter value is inadmissible
    """
    fid = params.family
    if fid not in _FAMILIES:
        raise UnknownFamilyError(
            "unknown family %r; known families: %s"
            % (fid, ", ".join(FAMILY_IDS)))
    c1, sign_branch = params.c1, params.sign_branch
    _require(fid, _is_finite(c1) and c1 in (-1.0, 1.0), "c1 in {-1, 1}",
             "c1 = %r", c1)
    _require(fid, _is_finite(sign_branch) and sign_branch in (-1, 1),
             "sign_branch in {-1, +1}", "sign_branch = %r", sign_branch)
    keywords = _KEYWORDS[fid]
    supplied = {"sign_branch": -1} if sign_branch == -1 else {}
    supplied.update((key, getattr(params, key)) for key in _PARAM_NAMES
                    if getattr(params, key) is not None)
    for key, value in supplied.items():
        if key not in keywords:
            free = [k for k in keywords if k != "sign_branch"]
            raise FamilyParameterError(
                "parameter %s is not free in family %s; free parameters: %s"
                % (key, fid, ", ".join(free) if free else "none (besides c1)"))
        if not _is_finite(value):
            raise FamilyParameterError(
                "parameter %s must be finite, got %r" % (key, value))
    try:
        tab = _FAMILIES[fid](fid, float(c1), **{
            key: float(value) for key, value in supplied.items()})
    except (ZeroDivisionError, OverflowError):
        tab = None  # through / by an underflowed 0, or through **
    if tab is None or tab._violations:  # through * or /, to inf or NaN
        given = ", ".join("%s = %r" % item for item in supplied.items())
        raise FamilyParameterError("family %s: the closed forms underflow or "
                                   "overflow for %s" % (fid, given))
    return tab


def named_scheme(name):
    """Return the tableau of a named scheme.

    Args:
      name: one of EM, RDI1WM, PL1WM, RDI2WM, RDI3WM, RDI4WM
        (case-insensitive)

    Returns:
      CoefficientTableau carrying the canonical name

    Raises:
      UnknownSchemeError: if the name is not known
    """
    key = str(name).upper()
    if key not in _NAMED:
        raise UnknownSchemeError(
            "unknown scheme %r; known schemes: %s"
            % (name, ", ".join(NAMED_SCHEMES)))
    return make_family(_NAMED[key]).with_name(key)
