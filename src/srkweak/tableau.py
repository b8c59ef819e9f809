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

Tableaux are immutable plain data.  A tableau holds its entries in one
read-only float64 array, alpha..beta4 and A0..B2 row-major and then
the nodes, and each of the fourteen arrays is a view of it made on
access; one offset table per s, in this module only, says where each
entry sits.  Construction refuses entries that are not numbers (numpy
would read a str, bytes, bool or None as one) and recomputes the node
vectors from the stage matrices, so stored nodes can never disagree
with the matrices.  It also records, in one pass over the entries that
cannot go stale as they are read-only, the structural defects
(explicitness, non-finite entries, a node sum that overflows) and the
nonzero pattern the engine caches by.  The readers that run per
tableau or per step (the structural pass, serialize, equality and the
generated step) read the flat entries, not the views.
validate() reports them instead of raising, so that a defective tableau
can still be inspected; serialize(), the stepping engine and
make_family refuse one by that record.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
import sys
from dataclasses import dataclass
from itertools import chain, compress

import numpy as np

MAX_STAGES = 16

_VECTOR_KEYS = ("alpha", "beta1", "beta2", "beta3", "beta4")
_MATRIX_KEYS = ("A0", "A1", "A2", "B0", "B1", "B2")
_NODE_KEYS = ("c0", "c1v", "c2v")


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


#: kinds of entry that numpy reads as numbers but that are not numbers here
_NOT_NUMBERS = (str, bytes, bool, np.bool_, type(None))
#: entry types that need no closer look
_NUMBERS = frozenset((int, float, np.float64))


def _holds_non_numbers(value):
    """True if value, an array or an iterable of entries nested to any
    depth, holds a str, bytes, bool or None entry, numpy's included."""
    if isinstance(value, np.ndarray):
        if value.dtype.kind != "O":
            return value.dtype.kind in "bSU"
        value = value.ravel()
    if isinstance(value, _NOT_NUMBERS):
        return True
    return np.iterable(value) and any(map(_holds_non_numbers, value))


def _as_array(value, shape, key):
    try:
        arr = np.array(value, dtype=float)
    except (TypeError, ValueError) as exc:
        raise TableauShapeError("%s must be a numeric array of shape %r: %s"
                                % (key, shape, exc)) from None
    if arr.shape != shape:
        raise TableauShapeError(
            "%s must have shape %r, got %r" % (key, shape, arr.shape))
    return arr


def _refuse_non_numbers(s, vectors, matrices):
    """Raise TableauShapeError for the first of the inputs, of shapes
    already checked, that holds a str, bytes, bool or None entry.  One
    pass over the entries of all of them clears the common case: each is
    an int, a float or a numpy float64."""
    if set(map(type, chain(*vectors, *chain(*matrices)))) <= _NUMBERS:
        return
    for keys, values, shape in ((_VECTOR_KEYS, vectors, (s,)),
                                (_MATRIX_KEYS, matrices, (s, s))):
        for key, value in zip(keys, values):
            if _holds_non_numbers(value):
                raise TableauShapeError(
                    "%s must be a numeric array of shape %r: a str, bytes, "
                    "bool or None entry is not a number" % (key, shape))


def _offsets(s):
    """{key: (start, stop, shape)} of every array of an s-stage tableau in
    its flat entries: alpha..beta4 and A0..B2, row-major, then the nodes
    c0, c1v and c2v.  That is the bit order of the nonzero pattern and
    the key order of the serialized document."""
    out, start = {}, 0
    for key in _VECTOR_KEYS + _MATRIX_KEYS + _NODE_KEYS:
        shape = (s, s) if key in _MATRIX_KEYS else (s,)
        out[key] = (start, start + math.prod(shape), shape)
        start = out[key][1]
    return out


#: _offsets(s) at index s: the one table of where an entry sits
_OFFSETS = [None] + [_offsets(s) for s in range(1, MAX_STAGES + 1)]


def _coefficient_count(s):
    """How many coefficient entries lead the flat entries of s stages."""
    return _OFFSETS[s]["c0"][0]


def _position(s, key, i, j=0):
    """Where the 0-based entry key[i] (or key[i][j] of a stage matrix) of
    an s-stage tableau sits in its flat entries."""
    start, _, shape = _OFFSETS[s][key]
    return start + (i * s + j if len(shape) == 2 else i)


def _upper_mask(s):
    """A bit per flat position of an s-stage tableau that holds a stage
    matrix entry on or above the diagonal, which an explicit scheme
    leaves zero."""
    block = sum(((1 << s - i) - 1) << i * s + i for i in range(s))
    return sum(block << _OFFSETS[s][key][0] for key in _MATRIX_KEYS)


_UPPER = [None] + [_upper_mask(s) for s in range(1, MAX_STAGES + 1)]


def _locate(s, pos):
    """(key, 1-based i, 1-based j or 0 in a vector) of flat position pos."""
    for key, (start, stop, shape) in _OFFSETS[s].items():
        if pos < stop:
            i, j = divmod(pos - start, s)
            return (key, i + 1, j + 1) if len(shape) == 2 \
                else (key, pos - start + 1, 0)


def _view(key):
    def get(self):
        start, stop, shape = _OFFSETS[self.s][key]
        return self._flat[start:stop].reshape(shape)
    return property(get, doc="%s: a read-only view of the flat entries"
                    % key)


class CoefficientTableau:
    """Coefficient set of an explicit s-stage stochastic Runge-Kutta scheme.

    The tableau keeps one read-only float64 array, _flat: the entries of
    alpha..beta4 and A0..B2, row-major, then the nodes c0, c1v and c2v.
    Each of these fourteen names reads a read-only view of it, made on
    access; the nodes are always recomputed from the stage matrices on
    construction.  The tableau is frozen and, having a value equality,
    unhashable.

    Construction only rejects what cannot be represented at all (wrong
    shapes or entries that are not numbers, a str, bytes, bool or None
    included, a stage count outside 1..MAX_STAGES, a name that is not a
    string).  Non-finite entries, explicitness defects and non-finite
    nodes are recorded once, for validate(); a node sum that overflows
    or meets +inf and -inf does not warn.
    """

    alpha, beta1, beta2, beta3, beta4 = map(_view, _VECTOR_KEYS)
    A0, A1, A2, B0, B1, B2 = map(_view, _MATRIX_KEYS)
    c0, c1v, c2v = map(_view, _NODE_KEYS)

    def __init__(self, s, alpha, beta1, beta2, beta3, beta4, A0, A1, A2, B0,
                 B1, B2, name=None):
        _check_int("stage count s", s, 1, TableauShapeError)
        s = int(s)
        if s > MAX_STAGES:
            raise TableauShapeError("stage count s must be at most %d, got %d"
                                    % (MAX_STAGES, s))
        vectors = (alpha, beta1, beta2, beta3, beta4)
        matrices = (A0, A1, A2, B0, B1, B2)
        parts = [_as_array(value, (s,), key)
                 for key, value in zip(_VECTOR_KEYS, vectors)]
        parts += [_as_array(value, (s, s), key)
                  for key, value in zip(_MATRIX_KEYS, matrices)]
        _refuse_non_numbers(s, vectors, matrices)
        if name is not None and not isinstance(name, str):
            raise TableauShapeError("name must be a string or None")
        e = np.ones(s)
        with np.errstate(over="ignore", invalid="ignore"):
            parts += [A @ e for A in parts[5:8]]  # c0..c2v from A0..A2
        flat = np.concatenate(parts, axis=None)
        flat.setflags(write=False)
        for key, value in (("s", s), ("name", name), ("_flat", flat)):
            object.__setattr__(self, key, value)
        # the Violations of validate() and the nonzero pattern, found
        # once by _structure
        violations, pattern = _structure(self)
        object.__setattr__(self, "_violations", violations)
        object.__setattr__(self, "_pattern", pattern)

    def __setattr__(self, key, value):
        raise dataclasses.FrozenInstanceError("cannot assign to field %r"
                                              % key)

    def __delattr__(self, key):
        raise dataclasses.FrozenInstanceError("cannot delete field %r" % key)

    def __repr__(self):
        return "CoefficientTableau(%s)" % ", ".join(
            "%s=%r" % (key, getattr(self, key))
            for key in ("s",) + _VECTOR_KEYS + _MATRIX_KEYS + ("name",))

    def __eq__(self, other):
        if not isinstance(other, CoefficientTableau):
            return NotImplemented
        if self.s != other.s or self.name != other.name:
            return False
        n = _coefficient_count(self.s)
        return np.array_equal(self._flat[:n], other._flat[:n])

    def with_name(self, name):
        """Return a copy of this tableau carrying the given name."""
        return type(self)(self.s, *(getattr(self, key) for key in
                                    _VECTOR_KEYS + _MATRIX_KEYS), name=name)


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
    in one plain pass over the flat entries as floats, skipping the
    zeros, which always pass (x - x is 0.0 only for a finite x), that
    locates and formats a detail only for a violating entry; j is 0 in a
    vector.  When every entry passes, a node that is not finite, a row
    sum past the float range, is recorded last.  The pattern sets bit n
    for a nonzero flat entry n (a NaN is, a -0.0 is not) of alpha..B2,
    under a top bit that fixes s."""
    s, values = t.s, t._flat.tolist()
    n, upper = _coefficient_count(s), _UPPER[s]
    out, pattern = [], 0
    for pos in compress(range(n), values):  # the nonzero entries
        x, bit = values[pos], 1 << pos
        pattern |= bit
        if x - x or bit & upper:
            key, i, j = _locate(s, pos)
            kind, note = ("non-finite", "") if x - x else (
                "explicitness", " must be 0 in an explicit scheme")
            out.append(Violation(kind, key, i, j, "%s[%d]%s = %r%s" % (
                key, i, "[%d]" % j if j else "", x, note)))
    if not out:
        for pos, x in enumerate(values[n:], n):
            if x - x:
                node, i, _ = _locate(s, pos)
                out.append(Violation(
                    "non-finite", node, i, 0, "%s[%d] = %r, the sum of row "
                    "%d of %s" % (node, i, x, i,
                                 _MATRIX_KEYS[_NODE_KEYS.index(node)])))
    return tuple(out), pattern | 1 << n


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


@functools.cache
def _template(s):
    """The serialized document of an s-stage tableau up to its name, with
    a %r for each coefficient entry, in the order of the flat entries."""
    fields = ['"s": %d' % s]
    fields += ['"%s": %s' % (key, _json_list(["%r"] * s, 2))
               for key in _VECTOR_KEYS]
    fields += ['"%s": %s' % (key, _json_list([_json_list(["%r"] * s, 4)] * s,
                                             2)) for key in _MATRIX_KEYS]
    return "{\n  " + ",\n  ".join(fields)


def serialize(t):
    """Encode a valid tableau as a JSON document.

    The text is exactly json.dumps(doc, indent=2) + "\n" of the object
    doc = {"s": s, "alpha": [...], ..., "beta4": [...], "A0": [[...],
    ...], ..., "B2": [[...], ...], "name": name}, keys in that order
    and "name" left out when the tableau has none: every number on a
    line of its own, indented by two spaces per level.  It is written
    directly, a per-s template filled with the floats by repr and the
    name by json.dumps, because the pure-Python indenting encoder costs
    more than the rest of the call.

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
    text = _template(t.s) % tuple(
        t._flat[:_coefficient_count(t.s)].tolist())
    if t.name is not None:
        text += ',\n  "name": ' + json.dumps(t.name)
    return text + "\n}\n"


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
