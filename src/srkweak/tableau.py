"""Coefficient tableaux for explicit stochastic Runge-Kutta schemes.

An s-stage scheme for a d-dimensional Ito SDE driven by an m-dimensional
Wiener process is determined by five weight vectors and six stage
matrices,

    alpha, beta1, beta2, beta3, beta4   weights, length s
    A0, A1, A2, B0, B1, B2              stage matrices, s x s

together with the derived node vectors c0 = A0 e, c1v = A1 e and
c2v = A2 e, where e = (1, ..., 1)^T.  All stage matrices must be
strictly lower triangular; that is what makes the scheme explicit,
stage i may only reference stages j < i.

Tableaux are immutable plain data.  Construction normalises all entries
to read-only float arrays and recomputes the node vectors from the
stage matrices, so stored nodes can never disagree with the matrices.
Structural defects (explicitness, non-finite entries) are reported by
validate() as a list of descriptors instead of being raised, so that a
defective tableau can still be inspected.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field

import numpy as np

MAX_STAGES = 16

_VECTOR_KEYS = ("alpha", "beta1", "beta2", "beta3", "beta4")
_MATRIX_KEYS = ("A0", "A1", "A2", "B0", "B1", "B2")


class Error(Exception):
    """Base class for all errors raised by this package."""
    pass


class TableauShapeError(Error):
    """Tableau arrays cannot be assembled into an s-stage scheme."""
    pass


class TableauValueError(Error):
    """A structurally invalid tableau was used where a valid one is required."""
    pass


class TableauFormatError(Error):
    """A serialized tableau document is malformed."""
    pass


def _as_array(value, shape, key):
    arr = np.asarray(value, dtype=float)
    if arr.shape != shape:
        raise TableauShapeError(
            "%s must have shape %r, got %r" % (key, shape, arr.shape))
    arr = arr.copy()
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class CoefficientTableau:
    """Coefficient set of an explicit s-stage stochastic Runge-Kutta scheme.

    The node vectors c0, c1v and c2v are always recomputed from the
    stage matrices on construction and are read-only, like every other
    array held by the tableau.

    Construction only rejects what cannot be represented at all (wrong
    shapes, a stage count outside 1..MAX_STAGES).  Everything else,
    including non-finite entries and explicitness defects, is left to
    validate().
    """

    s: int
    alpha: np.ndarray
    beta1: np.ndarray
    beta2: np.ndarray
    beta3: np.ndarray
    beta4: np.ndarray
    A0: np.ndarray
    A1: np.ndarray
    A2: np.ndarray
    B0: np.ndarray
    B1: np.ndarray
    B2: np.ndarray
    name: str | None = None
    c0: np.ndarray = field(init=False, repr=False, default=None)
    c1v: np.ndarray = field(init=False, repr=False, default=None)
    c2v: np.ndarray = field(init=False, repr=False, default=None)

    def __post_init__(self):
        if isinstance(self.s, bool) or not isinstance(self.s, (int, np.integer)):
            raise TableauShapeError("stage count s must be an integer")
        s = int(self.s)
        if not 1 <= s <= MAX_STAGES:
            raise TableauShapeError(
                "stage count s must satisfy 1 <= s <= %d, got %d"
                % (MAX_STAGES, s))
        object.__setattr__(self, "s", s)
        for key in _VECTOR_KEYS + _MATRIX_KEYS:
            shape = (s,) if key in _VECTOR_KEYS else (s, s)
            object.__setattr__(self, key, _as_array(getattr(self, key), shape, key))
        if self.name is not None and not isinstance(self.name, str):
            raise TableauShapeError("name must be a string or None")
        e = np.ones(s)
        for node, matrix in (("c0", self.A0), ("c1v", self.A1), ("c2v", self.A2)):
            c = matrix @ e  # shape (s,)
            c.setflags(write=False)
            object.__setattr__(self, node, c)

    def __eq__(self, other):
        if not isinstance(other, CoefficientTableau):
            return NotImplemented
        if self.s != other.s or self.name != other.name:
            return False
        keys = _VECTOR_KEYS + _MATRIX_KEYS
        return all(np.array_equal(getattr(self, k), getattr(other, k))
                   for k in keys)

    def with_name(self, name):
        """Return a copy of this tableau carrying the given name."""
        return dataclasses.replace(self, name=name)


@dataclass(frozen=True)
class Violation:
    """One structural defect found by validate().

    Indices are 1-based.  For vector defects the column index j is 0.
    The array field names the offending block, e.g. "A0" or "beta3".
    """

    kind: str   # "explicitness" or "non-finite"
    array: str
    i: int
    j: int
    detail: str


@dataclass(frozen=True)
class OrderClaim:
    """Weak convergence orders attributed to a scheme.

    p_det is the order attained on deterministic problems (zero
    diffusion), p_stoch the weak order on general Ito SDEs.
    """

    p_det: int
    p_stoch: int

    def __str__(self):
        return "(%d, %d)" % (self.p_det, self.p_stoch)


def validate(t):
    """Check the structural invariants of a tableau.

    Verified invariants:
      * every entry of every array is finite,
      * all six stage matrices are strictly lower triangular.

    Args:
      t: CoefficientTableau

    Returns:
      list of Violation, empty iff the tableau is structurally valid;
      vectors come before matrices, each array in row-major order
    """
    out = []
    for key in _VECTOR_KEYS:
        vec = getattr(t, key)
        for i in np.flatnonzero(~np.isfinite(vec)).tolist():
            out.append(Violation("non-finite", key, i + 1, 0,
                                 "%s[%d] = %r" % (key, i + 1, vec[i])))
    on_or_above = ~np.tri(t.s, k=-1, dtype=bool)
    for key in _MATRIX_KEYS:
        mat = getattr(t, key)
        finite = np.isfinite(mat)
        bad = ~finite | (on_or_above & (mat != 0.0))
        for i, j in np.argwhere(bad).tolist():
            if not finite[i, j]:
                out.append(Violation(
                    "non-finite", key, i + 1, j + 1,
                    "%s[%d][%d] = %r" % (key, i + 1, j + 1, mat[i, j])))
            else:
                out.append(Violation(
                    "explicitness", key, i + 1, j + 1,
                    "%s[%d][%d] = %r must be 0 in an explicit scheme"
                    % (key, i + 1, j + 1, mat[i, j])))
    return out


def serialize(t):
    """Encode a valid tableau as a JSON document.

    Floats are written with repr precision (up to 17 significant
    digits), which guarantees that deserialize(serialize(t)) == t holds
    bit-exactly.

    Args:
      t: CoefficientTableau that passes validate()

    Returns:
      JSON text (str)

    Raises:
      TableauValueError: if the tableau has structural violations
    """
    violations = validate(t)
    if violations:
        raise TableauValueError(
            "refusing to serialize a tableau with %d structural violation(s); "
            "first: %s" % (len(violations), violations[0].detail))
    doc = {"s": t.s}
    for key in _VECTOR_KEYS + _MATRIX_KEYS:
        doc[key] = getattr(t, key).tolist()
    if t.name is not None:
        doc["name"] = t.name
    return json.dumps(doc, indent=2) + "\n"


def _reject_constant(token):
    raise TableauFormatError("non-finite number %r in tableau document" % token)


def _number(value, where):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TableauFormatError("%s must be a number, got %r" % (where, value))
    if not np.isfinite(value):
        raise TableauFormatError("%s must be finite, got %r" % (where, value))
    return float(value)


def deserialize(text):
    """Decode a JSON tableau document.

    The document must carry exactly the keys s, alpha, beta1..beta4,
    A0, A1, A2, B0, B1, B2 and optionally name; vectors must have
    length s and matrices shape s x s; every entry must be a finite
    number.  Node vectors are not part of the format, they are
    recomputed from the stage matrices.

    Note that a well-formed document may still describe a structurally
    defective scheme (for example one that is not explicit); run
    validate() on the result to check.

    Args:
      text: JSON text (str)

    Returns:
      CoefficientTableau

    Raises:
      TableauFormatError: if the document is malformed
    """
    try:
        doc = json.loads(text, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise TableauFormatError("invalid JSON: %s" % exc) from exc
    if not isinstance(doc, dict):
        raise TableauFormatError("tableau document must be a JSON object")
    required = {"s"} | set(_VECTOR_KEYS) | set(_MATRIX_KEYS)
    missing = required - set(doc)
    if missing:
        raise TableauFormatError("missing key(s): %s" % ", ".join(sorted(missing)))
    unknown = set(doc) - required - {"name"}
    if unknown:
        raise TableauFormatError("unknown key(s): %s" % ", ".join(sorted(unknown)))
    s = doc["s"]
    if isinstance(s, bool) or not isinstance(s, int):
        raise TableauFormatError("s must be an integer, got %r" % (s,))
    if not 1 <= s <= MAX_STAGES:
        raise TableauFormatError(
            "s must satisfy 1 <= s <= %d, got %d" % (MAX_STAGES, s))
    fields = {"s": s}
    for key in _VECTOR_KEYS:
        vec = doc[key]
        if not isinstance(vec, list) or len(vec) != s:
            raise TableauFormatError("%s must be a list of %d numbers" % (key, s))
        fields[key] = [_number(x, "%s[%d]" % (key, i + 1))
                       for i, x in enumerate(vec)]
    for key in _MATRIX_KEYS:
        mat = doc[key]
        if not isinstance(mat, list) or len(mat) != s:
            raise TableauFormatError("%s must be a list of %d rows" % (key, s))
        rows = []
        for i, row in enumerate(mat):
            if not isinstance(row, list) or len(row) != s:
                raise TableauFormatError(
                    "%s row %d must be a list of %d numbers" % (key, i + 1, s))
            rows.append([_number(x, "%s[%d][%d]" % (key, i + 1, j + 1))
                         for j, x in enumerate(row)])
        fields[key] = rows
    name = doc.get("name")
    if name is not None and not isinstance(name, str):
        raise TableauFormatError("name must be a string")
    return CoefficientTableau(name=name, **fields)
