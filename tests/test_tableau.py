import dataclasses
import json
import sys

import numpy as np
import pytest

from family_sampling import draw_member
from srkweak.families import FAMILY_IDS, NAMED_SCHEMES, named_scheme
from srkweak.integrator import usage_plan
from srkweak.tableau import (_MATRIX_KEYS, _VECTOR_KEYS, MAX_STAGES,
                             CoefficientTableau, TableauFormatError,
                             TableauShapeError, TableauValueError, Violation,
                             deserialize, serialize, validate)


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


@pytest.mark.parametrize("over", [
    dict(alpha=["a", 1.0]),
    dict(alpha=[None, {}]),
    dict(A0=[[0.0, 0.0], [1.0]]),
    dict(B2=[[0.0, 0.0], [0.0, "x"]]),
])
def test_non_array_input_rejected(over):
    key = next(iter(over))
    with pytest.raises(TableauShapeError, match="%s must be a numeric array"
                       % key):
        CoefficientTableau(**_fields(2, **over))


#: entries that numpy reads as numbers: "1" and b"1" as 1.0, a bool as
#: 0.0 or 1.0, None as nan
_NON_NUMBERS = {"str": "1", "bytes": b"1", "bool": True,
                "numpy-bool": np.False_, "None": None}


@pytest.mark.parametrize("form", ["alone", "mixed", "array"])
@pytest.mark.parametrize("entry", list(_NON_NUMBERS.values()),
                         ids=list(_NON_NUMBERS))
def test_non_number_entries_rejected(entry, form):
    # in a vector and in a matrix, alone, among floats (where numpy infers
    # float64 for a bool) and as numpy's own array of such entries
    def vector(x):
        return {"alone": [x], "mixed": [0.5, x, 0.25],
                "array": np.array([x])}[form]

    s = len(vector(0.0))
    for key, value in (("alpha", vector(entry)),
                       ("beta4", vector(entry)),
                       ("A0", [vector(0.0)] * (s - 1) + [vector(entry)]),
                       ("B2", [vector(entry)] + [vector(0.0)] * (s - 1))):
        with pytest.raises(TableauShapeError, match=r"^%s must be a numeric "
                           r"array of shape \(%d," % (key, s)):
            CoefficientTableau(**_fields(s, **{key: value}))
    # ints and numpy's numeric scalars in the same places are numbers
    for number in (1, np.int64(1), np.float32(1.0), np.float64(1.0)):
        t = CoefficientTableau(**_fields(
            s, alpha=vector(number), B2=[vector(number)] + [vector(0.0)]
            * (s - 1)))
        assert t.alpha.tolist() == [float(x) for x in vector(number)]


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
                            "%s[%d] = %r" % (key, i + 1, float(vec[i]))))
    for key in _MATRIX_KEYS:
        mat = getattr(t, key)
        for i in range(t.s):
            for j in range(t.s):
                if not np.isfinite(mat[i, j]):
                    out.append(("non-finite", key, i + 1, j + 1,
                                "%s[%d][%d] = %r"
                                % (key, i + 1, j + 1, float(mat[i, j]))))
                elif j >= i and mat[i, j] != 0.0:
                    out.append(("explicitness", key, i + 1, j + 1,
                                "%s[%d][%d] = %r must be 0 in an explicit "
                                "scheme"
                                % (key, i + 1, j + 1, float(mat[i, j]))))
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


def test_validate_returns_a_fresh_copy_of_the_record():
    t = CoefficientTableau(**_fields(2, beta3=[np.nan, 0.0],
                                     A0=[[0.0, 1.0], [0.0, 0.0]]))
    first = validate(t)
    want = list(first)
    assert [(v.kind, v.array, v.i, v.j) for v in want] == [
        ("non-finite", "beta3", 1, 0), ("explicitness", "A0", 1, 2)]
    first.clear()
    again = validate(t)
    assert again == want and again is not first
    again.append(again[0])
    assert validate(t) == want
    with pytest.raises(TableauValueError, match="with 2 structural"):
        serialize(t)
    assert validate(t.with_name("copy")) == want


def test_opposite_infinities_in_one_row_build_without_a_warning():
    # row 3 of A0 sums inf + -inf to a NaN node, and row 3 of A1
    # overflows to an infinite one; warnings are errors in this suite
    t = CoefficientTableau(**_fields(
        3, A0=[[0.0] * 3, [0.0] * 3, [np.inf, -np.inf, 0.0]],
        A1=[[0.0] * 3, [1e308, 0.0, 0.0], [1e308, 1e308, 0.0]]))
    assert np.isnan(t.c0[2]) and t.c1v[2] == np.inf
    assert [v.detail for v in validate(t)] == ["A0[3][1] = inf",
                                               "A0[3][2] = -inf"]
    for call, action in ((lambda: usage_plan(t, 1), "step"),
                         (lambda: serialize(t), "serialize")):
        with pytest.raises(TableauValueError) as exc:
            call()
        assert str(exc.value) == (
            "refusing to %s a tableau with 2 structural violation(s); "
            "first: A0[3][1] = inf" % action)


def test_a_node_sum_that_overflows_is_recorded():
    # finite entries whose row sum overflows: c0[3] = 1e308 + 1e308
    rdi2 = named_scheme("RDI2WM")
    arrays = {key: getattr(rdi2, key) for key in _VECTOR_KEYS + _MATRIX_KEYS}
    arrays["A0"] = rdi2.A0.copy()
    arrays["A0"][2] = [1e308, 1e308, 0.0]
    t = CoefficientTableau(s=3, name=rdi2.name, **arrays)
    assert t.c0[2] == np.inf
    assert validate(t) == [Violation(
        "non-finite", "c0", 3, 0, "c0[3] = inf, the sum of row 3 of A0")]
    for call, action in ((lambda: usage_plan(t, 1), "step"),
                         (lambda: serialize(t), "serialize")):
        with pytest.raises(TableauValueError) as exc:
            call()
        assert str(exc.value) == (
            "refusing to %s a tableau with 1 structural violation(s); "
            "first: c0[3] = inf, the sum of row 3 of A0" % action)


def test_nodes_are_checked_after_every_entry_passes():
    # each of c1v and c2v, and one entry violation hides a node's
    over = {"A1": [[0.0] * 3, [0.0] * 3, [-1e308, -1e308, 0.0]],
            "A2": [[0.0] * 3, [1e308, 0.0, 0.0], [1e308, 1e308, 0.0]]}
    t = CoefficientTableau(**_fields(3, **over))
    assert [(v.array, v.i, v.detail) for v in validate(t)] == [
        ("c1v", 3, "c1v[3] = -inf, the sum of row 3 of A1"),
        ("c2v", 3, "c2v[3] = inf, the sum of row 3 of A2")]
    B0 = np.zeros((3, 3))
    B0[0, 0] = 0.5
    t = CoefficientTableau(**_fields(3, B0=B0, **over))
    assert [v.detail for v in validate(t)] == [
        "B0[1][1] = 0.5 must be 0 in an explicit scheme"]


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


def _json_dumps_text(t):
    """What serialize writes, through the standard encoder."""
    doc = {"s": t.s}
    for key in _VECTOR_KEYS + _MATRIX_KEYS:
        doc[key] = getattr(t, key).tolist()
    if t.name is not None:
        doc["name"] = t.name
    return json.dumps(doc, indent=2) + "\n"


def test_serialize_matches_json_dumps():
    tabs = [named_scheme(name) for name in NAMED_SCHEMES]
    rng = np.random.default_rng(8)
    tabs += [draw_member(fid, rng) for fid in FAMILY_IDS for _ in range(3)]
    rdi2 = named_scheme("RDI2WM")
    tabs += [rdi2.with_name(name) for name in (
        'say "hi"', "back\\slash", "caf\u00e9 \u6b65 \U0001f600",
        "two\nlines", "tab\tand\x00nul", "", None)]
    tabs.append(CoefficientTableau(**_fields(
        2, alpha=[-0.0, 5e-324], beta2=[1e308, 1.0 / 3.0],
        A0=[[0.0, 0.0], [1e22, 0.0]], B1=[[0.0, 0.0], [-1e-7, 0.0]])))
    for s in range(1, MAX_STAGES + 1):  # every stage count's template
        t = CoefficientTableau(s=s, **{
            key: rng.normal(size=s) if key in _VECTOR_KEYS
            else np.tril(rng.normal(size=(s, s)), -1)
            for key in _VECTOR_KEYS + _MATRIX_KEYS})
        tabs += [t, t.with_name("random s = %d" % s)]
    for t in tabs:
        assert serialize(t) == _json_dumps_text(t), t.name


def test_a_tableau_stores_one_flat_array():
    tab = draw_member("CASE_212", np.random.default_rng(33))
    arrays = [v for v in vars(tab).values() if isinstance(v, np.ndarray)]
    assert len(arrays) == 1 and arrays[0] is tab._flat
    for key in _VECTOR_KEYS + _MATRIX_KEYS + ("c0", "c1v", "c2v"):
        view = getattr(tab, key)
        assert np.shares_memory(view, tab._flat), key
        with pytest.raises(ValueError):
            view[(0,) * view.ndim] = 1.0
    for change in (lambda: setattr(tab, "name", "x"),
                   lambda: setattr(tab, "alpha", tab.beta1),
                   lambda: setattr(tab, "other", 1),
                   lambda: delattr(tab, "s")):
        with pytest.raises(dataclasses.FrozenInstanceError):
            change()
    with pytest.raises(TypeError):
        hash(tab)
    copy = tab.with_name("copy")
    assert copy.name == "copy" and copy._pattern == tab._pattern
    assert copy._flat.tobytes() == tab._flat.tobytes()
    arrays = [getattr(tab, key) for key in _VECTOR_KEYS + _MATRIX_KEYS]
    assert CoefficientTableau(tab.s, *arrays, tab.name) == tab
    assert repr(tab) == "CoefficientTableau(s=%d, %s, name=%r)" % (
        tab.s, ", ".join("%s=%r" % (key, a) for key, a in zip(
            _VECTOR_KEYS + _MATRIX_KEYS, arrays)), tab.name)


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


#: a matrix row that is a number: numpy refuses the ragged array in
#: words of its own, after srkweak's "A0 must be a numeric array ..."
_MIXED_ROW = json.dumps(dict(json.loads(serialize(named_scheme("RDI1WM"))),
                             A0=[1.0, [0.0, 0.0]]))


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
    pytest.param(_doc().replace('"alpha": [1.0]', '"alpha": [1e999]'),
                 id="overflowing-float"),
    pytest.param(_doc(alpha=[10 ** 400]), id="overflowing-int"),
    pytest.param(_doc(A0=[[0.0], []]), id="ragged-matrix"),
    pytest.param(_doc(alpha=[[1.0]]), id="nested-vector"),
    pytest.param(_doc(alpha=1.0), id="scalar-vector"),
    pytest.param(_doc(alpha=None), id="null-vector"),
    pytest.param(_doc(A0=[[[0.0]]]), id="nested-matrix"),
    pytest.param(_doc(alpha=[json.loads("[" * 900 + "]" * 900)]),
                 id="deep-nesting"),
    pytest.param("[" * 100000 + "]" * 100000, id="deep-json"),
    pytest.param(_doc(s=1.0), id="float-s"),
    pytest.param(_doc(s=17), id="s-17"),
    pytest.param(_MIXED_ROW, id="mixed-matrix-row"),
])
def test_deserialize_rejects_malformed(text):
    match = (r"^A0 must be a numeric array of shape \(2, 2\): "
             if text == _MIXED_ROW else None)
    with pytest.raises(TableauFormatError, match=match):
        deserialize(text)


@pytest.mark.parametrize("key,value,message", [
    ("alpha", [1.0, True, 0.0], "alpha[2] must be a finite number, got True"),
    ("beta3", None, "beta3 must be a finite number, got None"),
    ("A0", [[0.0, 0.0, 0.0], [0.5, 0.0, 0.0], [0.0, "1", 0.0]],
     "A0[3][2] must be a finite number, got '1'"),
    ("B2", [[0.0, 0.0, 0.0], [None, 0.0, 0.0], [0.0, 0.0, 0.0]],
     "B2[2][1] must be a finite number, got None"),
    ("B0", [[0.0, 0.0, 0.0], [[1.0], 0.0, 0.0], [0.0, 0.0, 0.0]],
     "B0[2][1] must be a finite number, got [1.0]"),
    # 7.5 stands for the token 1e999, which json reads as inf
    ("A1", [[0.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 7.5, 0.0]],
     "A1[3][2] must be a finite number, got inf"),
])
def test_deserialize_locates_a_bad_leaf(key, value, message):
    doc = json.loads(serialize(named_scheme("RDI2WM")))
    doc[key] = value
    with pytest.raises(TableauFormatError) as exc:
        deserialize(json.dumps(doc).replace("7.5", "1e999"))
    assert str(exc.value) == message


def _with_token(key, token):
    """RDI2WM's document with one leaf, beta2[2] or B1[3][1], replaced by
    a JSON token."""
    doc = json.loads(serialize(named_scheme("RDI2WM")))
    if key == "beta2":
        doc[key][1] = 7.25
    else:
        doc[key][2][0] = 7.25
    text = json.dumps(doc)
    assert text.count("7.25") == 1
    return text.replace("7.25", token)


_HUGE = "1" + "0" * 400
_ABOVE_MAX = str(int(sys.float_info.max) + 1)  # rounds to max as a float


@pytest.mark.parametrize("token,shown", [
    ("true", "True"), ('"1"', "'1'"), ("null", "None"), ("1e400", "inf"),
    (_HUGE, _HUGE), (_ABOVE_MAX, _ABOVE_MAX)],
    ids=["true", "string", "null", "1e400", "huge-int", "int-above-max"])
@pytest.mark.parametrize("key,where", [("beta2", "beta2[2]"),
                                       ("B1", "B1[3][1]")])
def test_deserialize_names_each_kind_of_bad_leaf(token, shown, key, where):
    # a bad leaf anywhere in a key makes the whole-key check fail over to
    # the leaf-by-leaf one, which names it
    with pytest.raises(TableauFormatError) as exc:
        deserialize(_with_token(key, token))
    assert str(exc.value) == "%s must be a finite number, got %s" \
        % (where, shown)


@pytest.mark.parametrize("token", [
    str(2 ** 53 + 1), str(2 ** 64 + 1), str(-2 ** 63 - 1), "-0", "1e308",
    str(int(sys.float_info.max))])
@pytest.mark.parametrize("key", ["beta2", "B1"])
def test_deserialize_reads_an_integer_as_float_does(token, key):
    t = deserialize(_with_token(key, token))
    leaf = t.beta2[1] if key == "beta2" else t.B1[2, 0]
    assert float(leaf).hex() == float(json.loads(token)).hex()


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

