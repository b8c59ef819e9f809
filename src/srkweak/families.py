"""Classified coefficient families and the named schemes built from them.

The explicit schemes with one, two and three stages whose coefficients
satisfy prescribed blocks of order conditions form a small number of
parametric families.  Each family fixes most of the tableau and leaves
a handful of free constants; admissible values are restricted by
explicit constraints (non-vanishing denominators, a sign condition on
the discriminant kappa, interval conditions).  Violated constraints
raise ConstraintViolation naming the constraint exactly as stated.

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

The three-stage families share fixed beta weights and diffusion stage
matrices parametrised by the nodes c3 != 0 and c4 != 0; these default
to sqrt(2/3) and sqrt(2), the values singled out by two additional
third-order conditions.  CASE_221 and its order-(3,2) refinements
carry a sign choice (sign_branch) for the square root of kappa in the
B0 entries; ORD32_212 uses the same switch for the sign in its
discriminant formula; the other families reject sign_branch = -1.

Each family is built by one function whose keyword parameters, after
the family id and c1, are the family's free parameters with their
defaults; a sign_branch keyword marks a sign choice.  make_family takes
both from these signatures.

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
    pass


class UnknownSchemeError(Error):
    """An unknown named scheme was requested."""
    pass


class FamilyParameterError(Error):
    """A parameter was supplied that the family does not leave free, or
    a free parameter is not finite."""
    pass


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


def _ord11(fid, c1):
    return CoefficientTableau(
        s=1, alpha=[1.0], beta1=[c1], beta2=[0.0], beta3=[0.0], beta4=[0.0],
        A0=[[0.0]], A1=[[0.0]], A2=[[0.0]], B0=[[0.0]], B1=[[0.0]], B2=[[0.0]])


def _ord21(fid, c1, c2=0.0, c3=0.0, c4=0.0, c5=0.0, c6=0.0, c7=0.0, c8=0.0,
           c9=0.0, c10=0.0, c11=0.0):
    if c2 == 0.0:
        raise ConstraintViolation(fid, "c2 != 0", "c2 = %r" % c2)
    if c4 * c10 != 0.0:
        raise ConstraintViolation(
            fid, "c4 c10 = 0", "c4 = %r, c10 = %r" % (c4, c10))
    if c6 * c11 != 0.0:
        raise ConstraintViolation(
            fid, "c6 c11 = 0", "c6 = %r, c11 = %r" % (c6, c11))
    return CoefficientTableau(
        s=2,
        alpha=[1.0 - 1.0 / (2.0 * c2), 1.0 / (2.0 * c2)],
        beta1=[c1 - c4, c4], beta2=[c5, -c5], beta3=[c6, -c6],
        beta4=[c7, -c7],
        A0=[[0.0, 0.0], [c2, 0.0]], A1=[[0.0, 0.0], [c8, 0.0]],
        A2=[[0.0, 0.0], [c9, 0.0]], B0=[[0.0, 0.0], [c3, 0.0]],
        B1=[[0.0, 0.0], [c10, 0.0]], B2=[[0.0, 0.0], [c11, 0.0]])


def _shared3(fid, c1, c2, c3, c4, c5):
    """Weights and diffusion stage matrices common to all s = 3 families."""
    if c3 == 0.0:
        raise ConstraintViolation(fid, "c3 != 0", "c3 = %r" % c3)
    if c4 == 0.0:
        raise ConstraintViolation(fid, "c4 != 0", "c4 = %r" % c4)
    return dict(
        beta1=[c1 - c1 / (2.0 * c3 ** 2),
               c1 / (4.0 * c3 ** 2), c1 / (4.0 * c3 ** 2)],
        beta2=[0.0, 1.0 / (2.0 * c3), -1.0 / (2.0 * c3)],
        beta3=[-c1 / (2.0 * c4 ** 2),
               c1 / (4.0 * c4 ** 2), c1 / (4.0 * c4 ** 2)],
        beta4=[0.0, 1.0 / (2.0 * c4), -1.0 / (2.0 * c4)],
        A1=[[0.0, 0.0, 0.0], [c3 ** 2, 0.0, 0.0], [c3 ** 2 - c2, c2, 0.0]],
        B1=[[0.0, 0.0, 0.0], [c3, 0.0, 0.0], [-c3, 0.0, 0.0]],
        A2=[[0.0, 0.0, 0.0], [0.0, 0.0, 0.0], [c5, -c5, 0.0]],
        B2=[[0.0, 0.0, 0.0], [c4, 0.0, 0.0], [-c4, 0.0, 0.0]])


def _case_a(fid, c1, c3=DEFAULT_C3, c4=DEFAULT_C4):
    shared = _shared3(fid, c1, 0.0, c3, c4, 0.0)
    return CoefficientTableau(
        s=3, alpha=[0.5, 0.5, 0.0],
        A0=[[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]],
        B0=[[0.0, 0.0, 0.0], [c1, 0.0, 0.0], [0.0, 0.0, 0.0]], **shared)


def _case_211(fid, c1, c2=0.0, c3=DEFAULT_C3, c4=DEFAULT_C4, c5=0.0, c6=0.0,
              c7=0.0):
    shared = _shared3(fid, c1, c2, c3, c4, c5)
    return CoefficientTableau(
        s=3, alpha=[0.5 - c6, c6, 0.5],
        A0=[[0.0, 0.0, 0.0], [0.0, 0.0, 0.0], [c7, 1.0 - c7, 0.0]],
        B0=[[0.0, 0.0, 0.0], [0.0, 0.0, 0.0], [c1, 0.0, 0.0]], **shared)


def _case_212(fid, c1, c2=0.0, c3=DEFAULT_C3, c4=DEFAULT_C4, c5=0.0, c6=0.0,
              c7=0.0, c8=0.0):
    if c6 == 0.0:
        raise ConstraintViolation(fid, "c6 != 0", "c6 = %r" % c6)
    shared = _shared3(fid, c1, c2, c3, c4, c5)
    alpha2 = (1.0 - c7 - c8) / (2.0 * c6)
    return CoefficientTableau(
        s=3, alpha=[0.5 - alpha2, alpha2, 0.5],
        A0=[[0.0, 0.0, 0.0], [c6, 0.0, 0.0], [c7, c8, 0.0]],
        B0=[[0.0, 0.0, 0.0], [0.0, 0.0, 0.0], [c1, 0.0, 0.0]], **shared)


def _case_221(fid, c1, sign_branch=1, c3=DEFAULT_C3, c4=DEFAULT_C4, c6=0.0,
              c7=0.0, c8=0.0, c9=0.0):
    if c6 == 0.0:
        raise ConstraintViolation(fid, "c6 != 0", "c6 = %r" % c6)
    if c7 == 0.0:
        raise ConstraintViolation(fid, "c7 != 0", "c7 = %r" % c7)
    if c6 == -c7:
        raise ConstraintViolation(fid, "c6 != -c7",
                                  "c6 = %r, c7 = %r" % (c6, c7))
    kappa = c6 * c7 * (2.0 * c6 + 2.0 * c7 - 1.0)
    if kappa < 0.0:
        raise ConstraintViolation(fid, "kappa >= 0",
                                  "kappa = %r for c6 = %r, c7 = %r"
                                  % (kappa, c6, c7))
    root = math.sqrt(kappa)
    if c6 == root or c6 == -root:
        raise ConstraintViolation(fid, "c6 != +/-sqrt(kappa)",
                                  "c6 = %r, sqrt(kappa) = %r" % (c6, root))
    lam = (1.0 - 2.0 * c6 * c8) / (2.0 * c7)
    shared = _shared3(fid, c1, 0.0, c3, c4, 0.0)
    return CoefficientTableau(
        s=3, alpha=[1.0 - c6 - c7, c6, c7],
        A0=[[0.0, 0.0, 0.0], [c8, 0.0, 0.0], [lam - c9, c9, 0.0]],
        B0=[[0.0, 0.0, 0.0],
            [0.5 * c1 * (c6 - sign_branch * root) / (c6 * (c6 + c7)),
             0.0, 0.0],
            [0.5 * c1 * (c7 + sign_branch * root) / (c7 * (c6 + c7)),
             0.0, 0.0]],
        **shared)


def _case_222(fid, c1, c3=DEFAULT_C3, c4=DEFAULT_C4, c6=0.0, c7=0.0, c8=0.0):
    if c8 == 0.0:
        raise ConstraintViolation(fid, "c8 != 0", "c8 = %r" % c8)
    shared = _shared3(fid, c1, 0.0, c3, c4, 0.0)
    return CoefficientTableau(
        s=3, alpha=[0.5, 0.0, 0.5],
        A0=[[0.0, 0.0, 0.0], [c6, 0.0, 0.0], [1.0 - c7, c7, 0.0]],
        B0=[[0.0, 0.0, 0.0], [c8, 0.0, 0.0], [c1, 0.0, 0.0]], **shared)


def _case_223(fid, c1, c3=DEFAULT_C3, c4=DEFAULT_C4, c6=0.0, c7=0.0, c8=0.0):
    if c6 == 0.0 or c6 == -0.5:
        raise ConstraintViolation(fid, "c6 not in {-1/2, 0}", "c6 = %r" % c6)
    shared = _shared3(fid, c1, 0.0, c3, c4, 0.0)
    row_sum = (1.0 - 2.0 * c6 * c7) / (-2.0 * c6)
    return CoefficientTableau(
        s=3, alpha=[1.0, c6, -c6],
        A0=[[0.0, 0.0, 0.0], [c7, 0.0, 0.0], [row_sum - c8, c8, 0.0]],
        B0=[[0.0, 0.0, 0.0],
            [0.5 * c1 * (1.0 + 1.0 / (2.0 * c6)), 0.0, 0.0],
            [0.5 * c1 * (1.0 - 1.0 / (2.0 * c6)), 0.0, 0.0]],
        **shared)


def _ord32_212(fid, c1, sign_branch=1, c2=0.0, c3=DEFAULT_C3, c4=DEFAULT_C4,
               c5=0.0, c6=0.0):
    if c6 == 0.0:
        raise ConstraintViolation(fid, "c6 != 0", "c6 = %r" % c6)
    disc = 9.0 * c6 ** 2 - 36.0 * c6 + 24.0
    if disc < 0.0:
        raise ConstraintViolation(fid, "9 c6^2 - 36 c6 + 24 >= 0",
                                  "discriminant = %r for c6 = %r"
                                  % (disc, c6))
    return _case_212(
        fid, c1, c2, c3, c4, c5, c6,
        c7=0.5 * c6 + sign_branch * math.sqrt(disc) / 6.0 - 1.0 / (3.0 * c6),
        c8=1.0 / (3.0 * c6))


def _ord32_221a(fid, c1, sign_branch=1, c3=DEFAULT_C3, c4=DEFAULT_C4,
                c9=0.0):
    if c9 == 0.0:
        raise ConstraintViolation(fid, "c9 != 0", "c9 = %r" % c9)
    c7 = 1.0 / (4.0 * c9)
    if c7 in (-0.75, 0.0, 0.5):
        raise ConstraintViolation(fid, "c7 not in {-3/4, 0, 1/2}",
                                  "c7 = 1/(4 c9) = %r" % c7)
    if -0.25 < c7 < 0.0:
        raise ConstraintViolation(fid, "c7 not in ]-1/4, 0[",
                                  "c7 = 1/(4 c9) = %r" % c7)
    return _case_221(fid, c1, sign_branch, c3, c4, c6=0.75, c7=c7,
                     c8=2.0 / 3.0, c9=c9)


def _ord32_221b(fid, c1, sign_branch=1, c3=DEFAULT_C3, c4=DEFAULT_C4,
                c9=0.0):
    if c9 == 0.0:
        raise ConstraintViolation(fid, "c9 != 0", "c9 = %r" % c9)
    c7 = 1.0 / (4.0 * c9)
    c6 = 0.75 - c7
    if not (0.0 < c6 < 0.75 and c6 != 0.25):
        raise ConstraintViolation(fid, "c6 in ]0, 1/4[ u ]1/4, 3/4[",
                                  "c6 = 3/4 - 1/(4 c9) = %r" % c6)
    return _case_221(fid, c1, sign_branch, c3, c4, c6=c6, c7=c7,
                     c8=2.0 / 3.0, c9=c9)


def _ord32_221c(fid, c1, sign_branch=1, c3=DEFAULT_C3, c4=DEFAULT_C4,
                c8=0.0, lam=0.0):
    if c8 in (0.0, 2.0 / 3.0):
        raise ConstraintViolation(fid, "c8 not in {0, 2/3}", "c8 = %r" % c8)
    if lam in (0.0, 2.0 / 3.0, c8, 2.0 / 3.0 - c8):
        raise ConstraintViolation(fid,
                                  "lambda not in {0, 2/3, c8, 2/3 - c8}",
                                  "lambda = %r, c8 = %r" % (lam, c8))
    if (lam - 1.0) * c8 == lam ** 2 - 2.0 / 3.0:
        raise ConstraintViolation(fid, "(lambda - 1) c8 != lambda^2 - 2/3",
                                  "lambda = %r, c8 = %r" % (lam, c8))
    if c8 == 1.0:
        if not lam < 2.0 / 3.0:
            raise ConstraintViolation(fid, "lambda < 2/3 for c8 = 1",
                                      "lambda = %r" % lam)
    else:
        bound = (3.0 * c8 - 2.0) / (3.0 * (c8 - 1.0))
        if 2.0 / 3.0 < c8 < 1.0:
            if not bound <= lam < 2.0 / 3.0:
                raise ConstraintViolation(
                    fid, "(3 c8 - 2)/(3 (c8 - 1)) <= lambda < 2/3 "
                         "for 2/3 < c8 < 1",
                    "lambda = %r, bound = %r" % (lam, bound))
        elif 0.0 < c8 < 2.0 / 3.0:
            if not (lam > 2.0 / 3.0 or lam <= bound):
                raise ConstraintViolation(
                    fid, "lambda > 2/3 or lambda <= (3 c8 - 2)/(3 (c8 - 1)) "
                         "for 0 < c8 < 2/3",
                    "lambda = %r, bound = %r" % (lam, bound))
        else:
            if not (lam < 2.0 / 3.0 or lam >= bound):
                raise ConstraintViolation(
                    fid, "lambda < 2/3 or lambda >= (3 c8 - 2)/(3 (c8 - 1)) "
                         "for c8 < 0 or c8 > 1",
                    "lambda = %r, bound = %r" % (lam, bound))
    return _case_221(
        fid, c1, sign_branch, c3, c4,
        c6=(2.0 - 3.0 * lam) / (6.0 * c8 * (c8 - lam)),
        c7=(3.0 * c8 - 2.0) / (6.0 * lam * (c8 - lam)),
        c8=c8, c9=lam * (c8 - lam) / ((3.0 * c8 - 2.0) * c8))


def _ord32_223a(fid, c1, c3=DEFAULT_C3, c4=DEFAULT_C4):
    return _case_223(fid, c1, c3, c4, c6=0.75, c7=2.0 / 3.0, c8=-1.0 / 3.0)


def _ord32_223c(fid, c1, c3=DEFAULT_C3, c4=DEFAULT_C4, c7=0.0):
    if c7 in (-1.0 / 6.0, 0.0, 1.0 / 3.0):
        raise ConstraintViolation(fid, "c7 not in {-1/6, 0, 1/3}",
                                  "c7 = %r" % c7)
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
        sign_branch = -1 is to a family without a sign choice) or a free
        one is not finite
      ConstraintViolation: if a free parameter value is inadmissible
    """
    fid = params.family
    if fid not in _FAMILIES:
        raise UnknownFamilyError(
            "unknown family %r; known families: %s"
            % (fid, ", ".join(FAMILY_IDS)))
    c1, sign_branch = params.c1, params.sign_branch
    if not _is_finite(c1) or c1 not in (-1.0, 1.0):
        raise ConstraintViolation(fid, "c1 in {-1, 1}", "c1 = %r" % c1)
    if not _is_finite(sign_branch) or sign_branch not in (-1, 1):
        raise ConstraintViolation(fid, "sign_branch in {-1, +1}",
                                  "sign_branch = %r" % sign_branch)
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
    return _FAMILIES[fid](fid, float(c1), **{
        key: float(value) for key, value in supplied.items()})


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
