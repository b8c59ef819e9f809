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
discriminant formula.

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
    sqrt(kappa) (or of the discriminant root in ORD32_212) and is
    ignored by families without a sign choice.
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


def _effective(p, fid, free):
    """Fill in family defaults; reject non-free and non-finite values."""
    values = {}
    for key in _PARAM_NAMES:
        supplied = getattr(p, key)
        if supplied is not None and key not in free:
            raise FamilyParameterError(
                "parameter %s is not free in family %s; free parameters: %s"
                % (key, fid, ", ".join(free) if free else "none (besides c1)"))
        if key in ("c3", "c4") and fid != "ORD21" and fid != "ORD11":
            default = DEFAULT_C3 if key == "c3" else DEFAULT_C4
        else:
            default = 0.0
        if supplied is None:
            values[key] = default
        elif _is_finite(supplied):
            values[key] = float(supplied)
        else:
            raise FamilyParameterError(
                "parameter %s must be finite, got %r" % (key, supplied))
    return values


def _check_c1(fid, c1):
    if not _is_finite(c1) or c1 not in (-1.0, 1.0):
        raise ConstraintViolation(fid, "c1 in {-1, 1}", "c1 = %r" % c1)
    return float(c1)


def _check_sign_branch(fid, sb):
    if not _is_finite(sb) or sb not in (-1, 1):
        raise ConstraintViolation(fid, "sign_branch in {-1, +1}",
                                  "sign_branch = %r" % sb)
    return int(sb)


def _zeros(s):
    return [[0.0] * s for _ in range(s)]


def _mat(s, **entries):
    # entries like m21=..., keyed by 1-based row/column digits
    out = _zeros(s)
    for key, val in entries.items():
        i, j = int(key[1]) - 1, int(key[2]) - 1
        out[i][j] = float(val)
    return out


def _ord11(fid, c1, v, sb):
    return CoefficientTableau(
        s=1, alpha=[1.0], beta1=[c1], beta2=[0.0], beta3=[0.0], beta4=[0.0],
        A0=_zeros(1), A1=_zeros(1), A2=_zeros(1),
        B0=_zeros(1), B1=_zeros(1), B2=_zeros(1))


def _ord21(fid, c1, v, sb):
    c2 = v["c2"]
    if c2 == 0.0:
        raise ConstraintViolation(fid, "c2 != 0", "c2 = %r" % c2)
    if v["c4"] * v["c10"] != 0.0:
        raise ConstraintViolation(
            fid, "c4 c10 = 0", "c4 = %r, c10 = %r" % (v["c4"], v["c10"]))
    if v["c6"] * v["c11"] != 0.0:
        raise ConstraintViolation(
            fid, "c6 c11 = 0", "c6 = %r, c11 = %r" % (v["c6"], v["c11"]))
    return CoefficientTableau(
        s=2,
        alpha=[1.0 - 1.0 / (2.0 * c2), 1.0 / (2.0 * c2)],
        beta1=[c1 - v["c4"], v["c4"]],
        beta2=[v["c5"], -v["c5"]],
        beta3=[v["c6"], -v["c6"]],
        beta4=[v["c7"], -v["c7"]],
        A0=_mat(2, m21=c2), A1=_mat(2, m21=v["c8"]), A2=_mat(2, m21=v["c9"]),
        B0=_mat(2, m21=v["c3"]), B1=_mat(2, m21=v["c10"]),
        B2=_mat(2, m21=v["c11"]))


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
        A1=_mat(3, m21=c3 ** 2, m31=c3 ** 2 - c2, m32=c2),
        B1=_mat(3, m21=c3, m31=-c3),
        A2=_mat(3, m31=c5, m32=-c5),
        B2=_mat(3, m21=c4, m31=-c4))


def _case_a(fid, c1, v, sb):
    shared = _shared3(fid, c1, 0.0, v["c3"], v["c4"], 0.0)
    return CoefficientTableau(
        s=3, alpha=[0.5, 0.5, 0.0],
        A0=_mat(3, m21=1.0), B0=_mat(3, m21=c1), **shared)


def _case_211(fid, c1, v, sb):
    shared = _shared3(fid, c1, v["c2"], v["c3"], v["c4"], v["c5"])
    return CoefficientTableau(
        s=3, alpha=[0.5 - v["c6"], v["c6"], 0.5],
        A0=_mat(3, m31=v["c7"], m32=1.0 - v["c7"]),
        B0=_mat(3, m31=c1), **shared)


def _case_212(fid, c1, v, sb):
    c6 = v["c6"]
    if c6 == 0.0:
        raise ConstraintViolation(fid, "c6 != 0", "c6 = %r" % c6)
    shared = _shared3(fid, c1, v["c2"], v["c3"], v["c4"], v["c5"])
    alpha2 = (1.0 - v["c7"] - v["c8"]) / (2.0 * c6)
    return CoefficientTableau(
        s=3, alpha=[0.5 - alpha2, alpha2, 0.5],
        A0=_mat(3, m21=c6, m31=v["c7"], m32=v["c8"]),
        B0=_mat(3, m31=c1), **shared)


def _case_221(fid, c1, v, sb):
    c6, c7, c8, c9 = v["c6"], v["c7"], v["c8"], v["c9"]
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
    shared = _shared3(fid, c1, 0.0, v["c3"], v["c4"], 0.0)
    return CoefficientTableau(
        s=3, alpha=[1.0 - c6 - c7, c6, c7],
        A0=_mat(3, m21=c8, m31=lam - c9, m32=c9),
        B0=_mat(3,
                m21=0.5 * c1 * (c6 - sb * root) / (c6 * (c6 + c7)),
                m31=0.5 * c1 * (c7 + sb * root) / (c7 * (c6 + c7))),
        **shared)


def _case_222(fid, c1, v, sb):
    c8 = v["c8"]
    if c8 == 0.0:
        raise ConstraintViolation(fid, "c8 != 0", "c8 = %r" % c8)
    shared = _shared3(fid, c1, 0.0, v["c3"], v["c4"], 0.0)
    return CoefficientTableau(
        s=3, alpha=[0.5, 0.0, 0.5],
        A0=_mat(3, m21=v["c6"], m31=1.0 - v["c7"], m32=v["c7"]),
        B0=_mat(3, m21=c8, m31=c1), **shared)


def _case_223(fid, c1, v, sb):
    c6 = v["c6"]
    if c6 == 0.0 or c6 == -0.5:
        raise ConstraintViolation(fid, "c6 not in {-1/2, 0}", "c6 = %r" % c6)
    shared = _shared3(fid, c1, 0.0, v["c3"], v["c4"], 0.0)
    row_sum = (1.0 - 2.0 * c6 * v["c7"]) / (-2.0 * c6)
    return CoefficientTableau(
        s=3, alpha=[1.0, c6, -c6],
        A0=_mat(3, m21=v["c7"], m31=row_sum - v["c8"], m32=v["c8"]),
        B0=_mat(3,
                m21=0.5 * c1 * (1.0 + 1.0 / (2.0 * c6)),
                m31=0.5 * c1 * (1.0 - 1.0 / (2.0 * c6))),
        **shared)


def _ord32_212(fid, c1, v, sb):
    c6 = v["c6"]
    if c6 == 0.0:
        raise ConstraintViolation(fid, "c6 != 0", "c6 = %r" % c6)
    disc = 9.0 * c6 ** 2 - 36.0 * c6 + 24.0
    if disc < 0.0:
        raise ConstraintViolation(fid, "9 c6^2 - 36 c6 + 24 >= 0",
                                  "discriminant = %r for c6 = %r"
                                  % (disc, c6))
    sub = dict(v)
    sub["c7"] = 0.5 * c6 + sb * math.sqrt(disc) / 6.0 - 1.0 / (3.0 * c6)
    sub["c8"] = 1.0 / (3.0 * c6)
    return _case_212(fid, c1, sub, sb)


def _ord32_221a(fid, c1, v, sb):
    c9 = v["c9"]
    if c9 == 0.0:
        raise ConstraintViolation(fid, "c9 != 0", "c9 = %r" % c9)
    c7 = 1.0 / (4.0 * c9)
    if c7 in (-0.75, 0.0, 0.5):
        raise ConstraintViolation(fid, "c7 not in {-3/4, 0, 1/2}",
                                  "c7 = 1/(4 c9) = %r" % c7)
    if -0.25 < c7 < 0.0:
        raise ConstraintViolation(fid, "c7 not in ]-1/4, 0[",
                                  "c7 = 1/(4 c9) = %r" % c7)
    sub = dict(v)
    sub["c6"], sub["c7"], sub["c8"] = 0.75, c7, 2.0 / 3.0
    return _case_221(fid, c1, sub, sb)


def _ord32_221b(fid, c1, v, sb):
    c9 = v["c9"]
    if c9 == 0.0:
        raise ConstraintViolation(fid, "c9 != 0", "c9 = %r" % c9)
    c7 = 1.0 / (4.0 * c9)
    c6 = 0.75 - c7
    if not (0.0 < c6 < 0.75 and c6 != 0.25):
        raise ConstraintViolation(fid, "c6 in ]0, 1/4[ u ]1/4, 3/4[",
                                  "c6 = 3/4 - 1/(4 c9) = %r" % c6)
    sub = dict(v)
    sub["c6"], sub["c7"], sub["c8"] = c6, c7, 2.0 / 3.0
    return _case_221(fid, c1, sub, sb)


def _ord32_221c(fid, c1, v, sb):
    lam, c8 = v["lam"], v["c8"]
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
    sub = dict(v)
    sub["c6"] = (2.0 - 3.0 * lam) / (6.0 * c8 * (c8 - lam))
    sub["c7"] = (3.0 * c8 - 2.0) / (6.0 * lam * (c8 - lam))
    sub["c9"] = lam * (c8 - lam) / ((3.0 * c8 - 2.0) * c8)
    return _case_221(fid, c1, sub, sb)


def _ord32_223a(fid, c1, v, sb):
    sub = dict(v)
    sub["c6"], sub["c7"], sub["c8"] = 0.75, 2.0 / 3.0, -1.0 / 3.0
    return _case_223(fid, c1, sub, sb)


def _ord32_223c(fid, c1, v, sb):
    c7 = v["c7"]
    if c7 in (-1.0 / 6.0, 0.0, 1.0 / 3.0):
        raise ConstraintViolation(fid, "c7 not in {-1/6, 0, 1/3}",
                                  "c7 = %r" % c7)
    c6 = 1.0 / (4.0 * c7 - 4.0 / 3.0)
    sub = dict(v)
    sub["c6"] = c6
    sub["c8"] = -1.0 / (6.0 * c6 * c7)
    return _case_223(fid, c1, sub, sb)


# builder and free parameters (excluding c1 and sign_branch) per family;
# the key order is that of FAMILY_IDS
_FAMILIES = {
    "ORD11": (_ord11, ()),
    "ORD21": (_ord21, ("c2", "c3", "c4", "c5", "c6", "c7", "c8", "c9", "c10",
                       "c11")),
    "CASE_A": (_case_a, ("c3", "c4")),
    "CASE_211": (_case_211, ("c2", "c3", "c4", "c5", "c6", "c7")),
    "CASE_212": (_case_212, ("c2", "c3", "c4", "c5", "c6", "c7", "c8")),
    "CASE_221": (_case_221, ("c3", "c4", "c6", "c7", "c8", "c9")),
    "CASE_222": (_case_222, ("c3", "c4", "c6", "c7", "c8")),
    "CASE_223": (_case_223, ("c3", "c4", "c6", "c7", "c8")),
    "ORD32_212": (_ord32_212, ("c2", "c3", "c4", "c5", "c6")),
    "ORD32_221A": (_ord32_221a, ("c3", "c4", "c9")),
    "ORD32_221B": (_ord32_221b, ("c3", "c4", "c9")),
    "ORD32_221C": (_ord32_221c, ("c3", "c4", "c8", "lam")),
    "ORD32_223A": (_ord32_223a, ("c3", "c4")),
    "ORD32_223C": (_ord32_223c, ("c3", "c4", "c7")),
}

FAMILY_IDS = tuple(_FAMILIES)

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
      FamilyParameterError: if a non-free parameter was supplied or a
        free one is not finite
      ConstraintViolation: if a free parameter value is inadmissible
    """
    fid = params.family
    if fid not in _FAMILIES:
        raise UnknownFamilyError(
            "unknown family %r; known families: %s"
            % (fid, ", ".join(FAMILY_IDS)))
    c1 = _check_c1(fid, params.c1)
    sb = _check_sign_branch(fid, params.sign_branch)
    builder, free = _FAMILIES[fid]
    return builder(fid, c1, _effective(params, fid, free), sb)


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
