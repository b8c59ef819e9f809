import json

import numpy as np
import pytest

from srkweak.families import NAMED_SCHEMES, named_scheme
from srkweak.tableau import (_MATRIX_KEYS, _VECTOR_KEYS, CoefficientTableau,
                             TableauFormatError, TableauShapeError,
                             TableauValueError, deserialize, serialize,
                             validate)


def _fields(s, **over):
    out = dict(
        s=s,
        alpha=[1.0 / s] * s,
        beta1=[1.0] + [0.0] * (s - 1),
        beta2=[0.0] * s,
        beta3=[0.0] * s,
        beta4=[0.0] * s,
        A0=np.zeros((s, s)),
        A1=np.zeros((s, s)),
        A2=np.zeros((s, s)),
        B0=np.zeros((s, s)),
        B1=np.zeros((s, s)),
        B2=np.zeros((s, s)),
    )
    out.update(over)
    return out


def test_nodes_are_row_sums():
    A0 = [[0.0, 0.0, 0.0], [0.5, 0.0, 0.0], [-1.0, 2.0, 0.0]]
    A1 = [[0.0, 0.0, 0.0], [0.25, 0.0, 0.0], [0.25, 0.25, 0.0]]
    t = CoefficientTableau(**_fields(3, A0=A0, A1=A1))
    assert np.array_equal(t.c0, [0.0, 0.5, 1.0])
    assert np.array_equal(t.c1v, [0.0, 0.25, 0.5])
    assert np.array_equal(t.c2v, [0.0, 0.0, 0.0])


def test_arrays_are_read_only_floats():
    t = CoefficientTableau(**_fields(2, alpha=[1, 0]))
    assert t.alpha.dtype == np.float64
    with pytest.raises(ValueError):
        t.alpha[0] = 2.0
    with pytest.raises(ValueError):
        t.A0[1, 0] = 2.0
    with pytest.raises(ValueError):
        t.c0[0] = 1.0


def test_input_arrays_are_copied():
    alpha = np.array([0.5, 0.5])
    t = CoefficientTableau(**_fields(2, alpha=alpha))
    alpha[0] = 99.0
    assert t.alpha[0] == 0.5


@pytest.mark.parametrize("bad", [0, -1, 17, 2.0, True, "2"])
def test_stage_count_rejected(bad):
    fields = _fields(2)
    fields["s"] = bad
    with pytest.raises(TableauShapeError):
        CoefficientTableau(**fields)


def test_shape_mismatch_rejected():
    with pytest.raises(TableauShapeError):
        CoefficientTableau(**_fields(2, alpha=[1.0, 0.0, 0.0]))
    with pytest.raises(TableauShapeError):
        CoefficientTableau(**_fields(2, B1=np.zeros((3, 3))))
    with pytest.raises(TableauShapeError):
        CoefficientTableau(**_fields(2, name=7))


def test_equality_and_naming():
    a = CoefficientTableau(**_fields(2))
    b = CoefficientTableau(**_fields(2))
    assert a == b
    assert a != b.with_name("x")
    assert a.with_name("x") == b.with_name("x")
    assert a != CoefficientTableau(**_fields(2, alpha=[0.25, 0.75]))
    assert a.__eq__(object()) is NotImplemented


@pytest.mark.parametrize("name", NAMED_SCHEMES)
def test_named_schemes_validate_clean(name):
    assert validate(named_scheme(name)) == []


def test_validate_reports_explicitness():
    t = CoefficientTableau(**_fields(2, A0=[[0.0, 0.5], [0.5, 0.0]]))
    vs = validate(t)
    assert len(vs) == 1
    v = vs[0]
    assert v.kind == "explicitness" and v.array == "A0"
    assert (v.i, v.j) == (1, 2)


def test_validate_reports_diagonal_entries():
    t = CoefficientTableau(**_fields(2, B2=[[1.0, 0.0], [0.0, 0.0]]))
    kinds = {(v.kind, v.array, v.i, v.j) for v in validate(t)}
    assert ("explicitness", "B2", 1, 1) in kinds


def test_validate_reports_non_finite():
    t = CoefficientTableau(**_fields(2, beta3=[np.nan, 0.0],
                                     A1=[[0.0, 0.0], [np.inf, 0.0]]))
    kinds = {(v.kind, v.array) for v in validate(t)}
    assert ("non-finite", "beta3") in kinds
    assert ("non-finite", "A1") in kinds


def test_validate_lists_each_defect_once_in_row_major_order():
    # a row holding a non-finite entry is reported for that entry only,
    # not a second time for its node value
    t = CoefficientTableau(**_fields(
        2, beta3=[0.0, np.inf],
        A0=[[0.5, np.nan], [1.0, -np.inf]], B1=[[0.0, 2.0], [0.0, 0.0]]))
    vs = validate(t)
    assert [(v.kind, v.array, v.i, v.j) for v in vs] == [
        ("non-finite", "beta3", 2, 0),
        ("explicitness", "A0", 1, 1),
        ("non-finite", "A0", 1, 2),
        ("non-finite", "A0", 2, 2),
        ("explicitness", "B1", 1, 2),
    ]
    assert all(type(v.i) is int and type(v.j) is int for v in vs)


def _validate_by_loops(t):
    """Entry-by-entry reference for validate()."""
    out = []
    for key in _VECTOR_KEYS:
        vec = getattr(t, key)
        for i in range(t.s):
            if not np.isfinite(vec[i]):
                out.append(("non-finite", key, i + 1, 0,
                            "%s[%d] = %r" % (key, i + 1, vec[i])))
    for key in _MATRIX_KEYS:
        mat = getattr(t, key)
        for i in range(t.s):
            for j in range(t.s):
                if not np.isfinite(mat[i, j]):
                    out.append(("non-finite", key, i + 1, j + 1,
                                "%s[%d][%d] = %r"
                                % (key, i + 1, j + 1, mat[i, j])))
                elif j >= i and mat[i, j] != 0.0:
                    out.append(("explicitness", key, i + 1, j + 1,
                                "%s[%d][%d] = %r must be 0 in an explicit "
                                "scheme" % (key, i + 1, j + 1, mat[i, j])))
    return out


def test_validate_matches_entrywise_reference():
    rng = np.random.default_rng(11)
    specials = [np.nan, np.inf, -np.inf, 0.0, -0.0]
    for _ in range(300):
        s = int(rng.integers(1, 6))
        fields = {"s": s}
        for key in _VECTOR_KEYS + _MATRIX_KEYS:
            shape = (s,) if key in _VECTOR_KEYS else (s, s)
            arr = rng.normal(size=shape)
            if key in _MATRIX_KEYS and rng.random() < 0.5:
                arr = np.tril(arr, -1)
            hit = rng.random(shape) < 0.15
            arr[hit] = rng.choice(specials, size=int(hit.sum()))
            fields[key] = arr
        with np.errstate(invalid="ignore"):  # node rows summing inf - inf
            t = CoefficientTableau(**fields)
        got = [(v.kind, v.array, v.i, v.j, v.detail) for v in validate(t)]
        assert got == _validate_by_loops(t)


@pytest.mark.parametrize("name", NAMED_SCHEMES)
def test_serialize_roundtrip_is_bit_exact(name):
    t = named_scheme(name)
    again = deserialize(serialize(t))
    assert again == t
    assert again.name == name


def test_serialize_refuses_invalid():
    t = CoefficientTableau(**_fields(2, A0=[[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(TableauValueError):
        serialize(t)


def test_serialized_document_shape():
    doc = json.loads(serialize(named_scheme("RDI2WM")))
    assert doc["s"] == 3
    assert set(doc) == {"s", "alpha", "beta1", "beta2", "beta3", "beta4",
                        "A0", "A1", "A2", "B0", "B1", "B2", "name"}
    assert len(doc["alpha"]) == 3
    assert all(len(row) == 3 for row in doc["A0"])


def _doc(**over):
    doc = json.loads(serialize(named_scheme("EM").with_name(None)))
    doc.update(over)
    return json.dumps(doc)


@pytest.mark.parametrize("text", [
    "[]",
    "not json",
    _doc(s=2),
    _doc(extra=1),
    _doc(alpha="x"),
    _doc(alpha=[True]),
    _doc(A0=[[1.0, 2.0]]),
    _doc(s=True),
    _doc(s=0),
    _doc(name=3),
    '{"s": 1}',
])
def test_deserialize_rejects_malformed(text):
    with pytest.raises(TableauFormatError):
        deserialize(text)


def test_deserialize_rejects_non_finite_tokens():
    text = _doc().replace("1.0", "NaN", 1)
    with pytest.raises(TableauFormatError):
        deserialize(text)
    text = _doc().replace("1.0", "Infinity", 1)
    with pytest.raises(TableauFormatError):
        deserialize(text)


def test_deserialize_result_not_prevalidated():
    # a well-formed document may hold a non-explicit scheme; validate()
    # finds that, deserialize() does not
    doc = json.loads(serialize(named_scheme("EM").with_name(None)))
    doc["A0"] = [[1.0]]
    t = deserialize(json.dumps(doc))
    assert [v.kind for v in validate(t)] == ["explicitness"]

