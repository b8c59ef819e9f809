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
It also records, in one pass that cannot go stale as the arrays are
read-only, the structural defects (explicitness, non-finite entries, a
node sum that overflows) and the nonzero pattern the engine caches by.
validate() reports them instead of raising, so that a defective tableau
can still be inspected; serialize(), the stepping engine and
make_family refuse one by that record.
"""

from __future__ import annotations

import dataclasses
import json
import math
import sys
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

MAX_STAGES = 16

_VECTOR_KEYS = ("alpha", "beta1", "beta2", "beta3", "beta4")
_MATRIX_KEYS = ("A0", "A1", "A2", "B0", "B1", "B2")


class Error(Exception):
    """Base class for all errors raised by this package."""


def _check_int(name, value, low, error):
    """Raise error unless value is an integer >= low (a bool is not)."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) \
            or value < low:
        raise error("%s must be an integer >= %d, got %r"
                    % (name, low, value))


def _is_finite(value):
    """True for a finite int or float (a bool is not a number here)."""
    return not isinstance(value, bool) and isinstance(
        value, (int, float, np.integer, np.floating)) \
        and abs(value) <= sys.float_info.max


class TableauShapeError(Error):
    """Tableau arrays cannot be assembled into an s-stage scheme."""


class TableauValueError(Error):
    """A structurally invalid tableau was used where a valid one is required."""


class TableauFormatError(Error):
    """A serialized tableau document is malformed."""


def _as_array(value, shape, key):
    try:
        arr = np.array(value, dtype=float)
    except (TypeError, ValueError) as exc:
        raise TableauShapeError("%s must be a numeric array of shape %r: %s"
                                % (key, shape, exc)) from None
    if arr.shape != shape:
        raise TableauShapeError(
            "%s must have shape %r, got %r" % (key, shape, arr.shape))
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class CoefficientTableau:
    """Coefficient set of an explicit s-stage stochastic Runge-Kutta scheme.

    The node vectors c0, c1v and c2v are always recomputed from the
    stage matrices on construction and are read-only, like every other
    array held by the tableau.

    Construction only rejects what cannot be represented at all (wrong
    shapes or entries that are not numbers, a stage count outside
    1..MAX_STAGES, a name that is not a string).  Non-finite entries,
    explicitness defects and non-finite nodes are recorded once, for
    validate(); a node sum that overflows or meets +inf and -inf does
    not warn.
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
    # the Violations of validate() and the nonzero pattern, found
    # once by _structure
    _violations: tuple = field(init=False, repr=False, default=())
    _pattern: int = field(init=False, repr=False, default=0)

    def __post_init__(self):
        _check_int("stage count s", self.s, 1, TableauShapeError)
        s = int(self.s)
        if s > MAX_STAGES:
            raise TableauShapeError("stage count s must be at most %d, got %d"
                                    % (MAX_STAGES, s))
        object.__setattr__(self, "s", s)
        for key in _VECTOR_KEYS + _MATRIX_KEYS:
            shape = (s,) if key in _VECTOR_KEYS else (s, s)
            object.__setattr__(self, key, _as_array(getattr(self, key), shape, key))
        if self.name is not None and not isinstance(self.name, str):
            raise TableauShapeError("name must be a string or None")
        e = np.ones(s)
        with np.errstate(over="ignore", invalid="ignore"):
            for node, key in zip(("c0", "c1v", "c2v"), ("A0", "A1", "A2")):
                c = getattr(self, key) @ e  # shape (s,)
                c.setflags(write=False)
                object.__setattr__(self, node, c)
        violations, pattern = _structure(self)
        object.__setattr__(self, "_violations", violations)
        object.__setattr__(self, "_pattern", pattern)

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
    The array field names the offending block, e.g. "A0" or "beta3",
    or the node vector "c0", "c1v" or "c2v" whose entry is not finite.
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


def _structure(t):
    """(validate()'s Violations of t, as a tuple, t's nonzero pattern)
    in one plain pass over the entries as floats (x - x is 0.0 only for
    a finite x) that formats a detail only for a violating entry; j is 0
    in a vector.  When every entry passes, a node that is not finite, a
    row sum past the float range, is recorded last.  The pattern sets a
    bit per nonzero entry (a NaN is, a -0.0 is not) of alpha..beta4 and
    the s x s A0..B2, rows end to end, under a top bit that fixes s."""
    out, pattern, bit = [], 0, 1
    for key in _VECTOR_KEYS + _MATRIX_KEYS:
        matrix = key in _MATRIX_KEYS
        for i, row in enumerate(getattr(t, key).tolist(), 1):
            for j, x in enumerate(row, 1) if matrix else [(0, row)]:
                if x:
                    pattern |= bit
                bit <<= 1
                if x - x:
                    kind, note = "non-finite", ""
                elif x and j >= i:
                    kind, note = "explicitness", " must be 0 in an explicit " \
                        "scheme"
                else:
                    continue
                out.append(Violation(kind, key, i, j, "%s[%d]%s = %r%s" % (
                    key, i, "[%d]" % j if matrix else "", x, note)))
    if not out:
        for node, key in (("c0", "A0"), ("c1v", "A1"), ("c2v", "A2")):
            for i, x in enumerate(getattr(t, node).tolist(), 1):
                if x - x:
                    out.append(Violation(
                        "non-finite", node, i, 0, "%s[%d] = %r, the sum of "
                        "row %d of %s" % (node, i, x, i, key)))
    return tuple(out), pattern | bit


def validate(t):
    """Report the structural invariants that a tableau violates.

    Verified invariants:
      * every entry of every array is finite,
      * all six stage matrices are strictly lower triangular,
      * the nodes c0, c1v and c2v are finite (checked only when every
        entry passes, so a tableau refused for an entry keeps its
        record as it was).
    The tableau recorded its violations when it was built; its arrays
    are read-only, so the record cannot go stale, and this copies it.

    Args:
      t: CoefficientTableau

    Returns:
      a new list of Violation, empty iff the tableau is structurally
      valid; vectors come before matrices, each array in row-major order,
      and the nodes come last
    """
    return list(t._violations)


def _require_valid(t, action):
    """Raise TableauValueError naming the first violation of t, if any."""
    violations = t._violations
    if violations:
        raise TableauValueError(
            "refusing to %s a tableau with %d structural violation(s); "
            "first: %s" % (action, len(violations), violations[0].detail))


def _json_list(items, indent):
    """A JSON array of already encoded items, one per line, nested at
    the given indent as json.dumps(..., indent=2) lays it out."""
    pad = "\n" + " " * (indent + 2)
    return "[" + pad + ("," + pad).join(items) + "\n" + " " * indent + "]"


def serialize(t):
    """Encode a valid tableau as a JSON document.

    The text is exactly json.dumps(doc, indent=2) + "\n" of the object
    doc = {"s": s, "alpha": [...], ..., "beta4": [...], "A0": [[...],
    ...], ..., "B2": [[...], ...], "name": name}, keys in that order
    and "name" left out when the tableau has none: every number on a
    line of its own, indented by two spaces per level.  It is written
    directly, floats by repr and the name by json.dumps, because the
    pure-Python indenting encoder costs more than the rest of the call.

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
    _require_valid(t, "serialize")
    fields = ['"s": %d' % t.s]
    for key in _VECTOR_KEYS:
        fields.append('"%s": %s' % (key, _json_list(
            map(repr, getattr(t, key).tolist()), 2)))
    for key in _MATRIX_KEYS:
        fields.append('"%s": %s' % (key, _json_list(
            [_json_list(map(repr, row), 4)
             for row in getattr(t, key).tolist()], 2)))
    if t.name is not None:
        fields.append('"name": ' + json.dumps(t.name))
    return "{\n  " + ",\n  ".join(fields) + "\n}\n"


def _reject_constant(token):
    raise TableauFormatError("non-finite number %r in tableau document" % token)


def _location(where):
    """Format a location: a key, or (location of the list, 1-based index)."""
    if isinstance(where, str):
        return where
    return "%s[%d]" % (_location(where[0]), where[1])


def _numbers(value, where, depth=2):
    """Return value as floats: finite numbers in lists at most depth deep.

    where locates value for the error message; an element of a list is
    located by the pair (where of the list, index), which is formatted
    only if that element is rejected.
    """
    if isinstance(value, list) and depth > 0:
        return [_numbers(x, (where, i), depth - 1)
                for i, x in enumerate(value, 1)]
    if not _is_finite(value):
        raise TableauFormatError("%s must be a finite number, got %r"
                                 % (_location(where), value))
    return float(value)


def _plain_numbers(value, depth):
    """True if value is a list, depth deep, of int and float leaves (a
    bool is not one), all finite: what serialize writes.  One C-level
    pass over the whole key replaces the call per leaf of _numbers."""
    if type(value) is not list:
        return False
    if depth == 2:
        if not set(map(type, value)) <= {list}:
            return False
        value = list(chain.from_iterable(value))
    if not set(map(type, value)) <= {int, float}:
        return False
    # min and max compare ints exactly; the sum catches a nan
    return not value or (-sys.float_info.max <= min(value)
                         and max(value) <= sys.float_info.max
                         and math.isfinite(sum(value, 0.0)))


def deserialize(text):
    """Decode a JSON tableau document.

    The document must carry exactly the keys s, alpha, beta1..beta4,
    A0, A1, A2, B0, B1, B2 and optionally name, with finite numbers as
    array entries; CoefficientTableau checks the rest, and its
    TableauShapeError is re-raised as TableauFormatError.  Node vectors
    are not part of the format, they are recomputed from the matrices.

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
    except (json.JSONDecodeError, RecursionError) as exc:
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
    fields = {key: doc[key] if _plain_numbers(doc[key], depth)
              else _numbers(doc[key], key)
              for keys, depth in ((_VECTOR_KEYS, 1), (_MATRIX_KEYS, 2))
              for key in keys}
    try:
        return CoefficientTableau(s=doc["s"], name=doc.get("name"), **fields)
    except TableauShapeError as exc:
        raise TableauFormatError(str(exc)) from exc
