import math
import re

import numpy as np
import pytest

from family_sampling import (CLASSIFIED_IDS, CLASS_ORDERS, EXCLUSIONS,
                             draw_member)
from srkweak import families
from srkweak.conditions import evaluate_all
from srkweak.families import (DEFAULT_C3, DEFAULT_C4, FAMILY_IDS,
                              ConstraintViolation, FamilyParameterError,
                              FamilyParams, UnknownFamilyError,
                              UnknownSchemeError, family_id_from_cli,
                              make_family, named_scheme)

S6 = math.sqrt(6.0)
S2 = math.sqrt(2.0)
S15 = math.sqrt(15.0)


def assert_close(got, want, tol=1e-15):
    got = np.asarray(got)
    assert got.shape == np.shape(np.asarray(want, dtype=float))
    assert np.allclose(got, want, rtol=0.0, atol=tol), (got, want)


def test_em_table():
    t = named_scheme("EM")
    assert t.s == 1 and t.name == "EM"
    assert t.alpha[0] == 1.0 and t.beta1[0] == 1.0
    for key in ("beta2", "beta3", "beta4"):
        assert getattr(t, key)[0] == 0.0
    for key in ("A0", "A1", "A2", "B0", "B1", "B2"):
        assert getattr(t, key)[0, 0] == 0.0


def test_rdi1wm_table():
    t = named_scheme("RDI1WM")
    assert t.s == 2
    assert_close(t.alpha, [0.25, 0.75])
    assert_close(t.beta1, [1.0, 0.0])
    assert_close(t.A0, [[0.0, 0.0], [2.0 / 3.0, 0.0]])
    assert_close(t.B0, [[0.0, 0.0], [2.0 / 3.0, 0.0]])
    for key in ("beta2", "beta3", "beta4"):
        assert not getattr(t, key).any()
    for key in ("A1", "A2", "B1", "B2"):
        assert not getattr(t, key).any()


def _assert_shared_three_stage(t):
    assert_close(t.beta1, [0.25, 0.375, 0.375])
    assert_close(t.beta2, [0.0, S6 / 4.0, -S6 / 4.0])
    assert_close(t.beta3, [-0.25, 0.125, 0.125])
    assert_close(t.beta4, [0.0, S2 / 4.0, -S2 / 4.0])
    c3 = math.sqrt(2.0 / 3.0)
    assert_close(t.A1, [[0, 0, 0], [2.0 / 3.0, 0, 0], [2.0 / 3.0, 0, 0]])
    assert_close(t.B1, [[0, 0, 0], [c3, 0, 0], [-c3, 0, 0]])
    assert_close(t.B2, [[0, 0, 0], [S2, 0, 0], [-S2, 0, 0]])
    assert not t.A2.any()


def test_rdi2wm_table():
    t = named_scheme("RDI2WM")
    assert t.s == 3
    assert_close(t.alpha, [0.5, 0.5, 0.0])
    assert_close(t.A0, [[0, 0, 0], [1.0, 0, 0], [0, 0, 0]])
    assert_close(t.B0, [[0, 0, 0], [1.0, 0, 0], [0, 0, 0]])
    _assert_shared_three_stage(t)


def test_pl1wm_table():
    t = named_scheme("PL1WM")
    assert_close(t.alpha, [0.5, 0.5, 0.0])
    assert_close(t.A0, [[0, 0, 0], [1.0, 0, 0], [0, 0, 0]])
    assert_close(t.B0, [[0, 0, 0], [1.0, 0, 0], [0, 0, 0]])
    assert_close(t.beta1, [0.5, 0.25, 0.25])
    assert_close(t.beta2, [0.0, 0.5, -0.5])
    assert_close(t.beta3, [-0.5, 0.25, 0.25])
    assert_close(t.beta4, [0.0, 0.5, -0.5])
    assert_close(t.A1, [[0, 0, 0], [1.0, 0, 0], [1.0, 0, 0]])
    assert_close(t.B1, [[0, 0, 0], [1.0, 0, 0], [-1.0, 0, 0]])
    assert_close(t.B2, [[0, 0, 0], [1.0, 0, 0], [-1.0, 0, 0]])


def test_rdi3wm_table():
    t = named_scheme("RDI3WM")
    assert_close(t.alpha, [2.0 / 9.0, 1.0 / 3.0, 4.0 / 9.0])
    assert_close(t.A0, [[0, 0, 0], [0.5, 0, 0], [0.0, 0.75, 0]])
    b21 = (9.0 - 2.0 * S15) / 14.0
    b31 = (18.0 + 3.0 * S15) / 28.0
    assert_close(t.B0, [[0, 0, 0], [b21, 0, 0], [b31, 0, 0]])
    _assert_shared_three_stage(t)


def test_rdi4wm_table():
    t = named_scheme("RDI4WM")
    assert_close(t.alpha, [1.0 / 6.0, 2.0 / 3.0, 1.0 / 6.0])
    assert_close(t.A0, [[0, 0, 0], [0.5, 0, 0], [-1.0, 2.0, 0]])
    b21 = (6.0 - S6) / 10.0
    b31 = (3.0 + 2.0 * S6) / 5.0
    assert_close(t.B0, [[0, 0, 0], [b21, 0, 0], [b31, 0, 0]])
    _assert_shared_three_stage(t)


def test_named_schemes_are_family_members():
    assert named_scheme("RDI3WM") \
        == make_family(FamilyParams("ORD32_221C",
                                    lam=0.75, c8=0.5)).with_name("RDI3WM")
    assert named_scheme("RDI4WM") \
        == make_family(FamilyParams("ORD32_221C",
                                    lam=1.0, c8=0.5)).with_name("RDI4WM")
    assert named_scheme("PL1WM") \
        == make_family(FamilyParams("CASE_A",
                                    c3=1.0, c4=1.0)).with_name("PL1WM")
    assert named_scheme("RDI2WM") \
        == make_family(FamilyParams("CASE_A")).with_name("RDI2WM")
    assert named_scheme("rdi1wm").name == "RDI1WM"


def test_three_stage_node_defaults():
    t = make_family(FamilyParams("CASE_A"))
    assert t.B1[1, 0] == DEFAULT_C3
    assert t.B2[1, 0] == DEFAULT_C4


def test_c1_flip():
    assert named_scheme("EM").beta1[0] == 1.0
    t = make_family(FamilyParams("ORD11", c1=-1.0))
    assert t.beta1[0] == -1.0


def test_case_221_sign_branches():
    plus = make_family(FamilyParams("CASE_221", c6=0.5, c7=0.25,
                                    sign_branch=1))
    minus = make_family(FamilyParams("CASE_221", c6=0.5, c7=0.25,
                                     sign_branch=-1))
    # kappa = 1/16, so the branches split B0 into (1/3, ...) vs (1, ...)
    assert abs(plus.B0[1, 0] - 1.0 / 3.0) < 1e-15
    assert abs(minus.B0[1, 0] - 1.0) < 1e-15
    for t in (plus, minus):
        rep = evaluate_all(t, tol=1e-9)
        assert {cid for cid in rep.failed_ids() if cid.startswith("W")} \
            == set()


@pytest.mark.parametrize("fid,kwargs,constraint", EXCLUSIONS)
def test_exclusions_raise_named_constraint(fid, kwargs, constraint):
    with pytest.raises(ConstraintViolation) as exc:
        make_family(FamilyParams(fid, **kwargs))
    assert exc.value.constraint == constraint
    assert exc.value.family == fid
    assert constraint in str(exc.value)


@pytest.mark.parametrize("fid,kwargs,message", [
    # a builder's own constraints come before the nodes c3 and c4
    ("CASE_221", dict(c3=0.0), "c6 != 0 (c6 = 0.0)"),
    ("CASE_223", dict(c4=0.0, c6=0.5), "c4 != 0 (c4 = 0.0)"),
    ("ORD32_212", dict(c3=0.0, c6=1.0),
     "9 c6^2 - 36 c6 + 24 >= 0 (discriminant = -3.0 for c6 = 1.0)"),
])
def test_first_violated_constraint_is_reported(fid, kwargs, message):
    with pytest.raises(ConstraintViolation) as exc:
        make_family(FamilyParams(fid, **kwargs))
    assert str(exc.value) == "family %s: constraint violated: %s" % (
        fid, message)


@pytest.mark.parametrize("fid,kwargs,given", [
    ("CASE_A", dict(c3=1e-200), "c3 = 1e-200"),
    ("CASE_A", dict(c4=1e200), "c4 = 1e+200"),
    ("CASE_221", dict(c6=1e-170, c7=1e-170), "c6 = 1e-170, c7 = 1e-170"),
    ("ORD32_221C", dict(c8=1e-170, lam=2e-170), "c8 = 1e-170, lam = 2e-170"),
    # overflows through * or /, to NaN B0 entries, A0[3][1] = inf and
    # alpha = (-inf, inf), and betas of c1 / (2 c3^2) = inf
    ("CASE_221", dict(c6=1e200, c7=1e200), "c6 = 1e+200, c7 = 1e+200"),
    ("CASE_223", dict(c6=1e300, c7=1e10), "c6 = 1e+300, c7 = 10000000000.0"),
    ("ORD21", dict(c2=1e-310), "c2 = 1e-310"),
    ("CASE_A", dict(c3=1e-160), "c3 = 1e-160"),
])
def test_underflow_and_overflow_are_parameter_errors(fid, kwargs, given):
    # the values are admissible, but a denominator underflows to 0, or
    # a power, a product or a quotient overflows in floating point
    with pytest.raises(FamilyParameterError) as exc:
        make_family(FamilyParams(fid, **kwargs))
    assert str(exc.value) == ("family %s: the closed forms underflow or "
                              "overflow for %s" % (fid, given))


@pytest.mark.parametrize("fid,key", [
    ("CASE_221", "c6"), ("ORD21", "c2"), ("ORD21", "c11"),
    ("CASE_A", "c3"), ("ORD32_221C", "lam"),
])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_non_finite_parameters_rejected(fid, key, value):
    with pytest.raises(FamilyParameterError,
                       match="parameter %s must be finite" % key):
        make_family(FamilyParams(fid, **{key: value}))


@pytest.mark.parametrize("c1", [math.nan, math.inf])
def test_non_finite_c1_is_a_constraint_violation(c1):
    with pytest.raises(ConstraintViolation) as exc:
        make_family(FamilyParams("ORD11", c1=c1))
    assert exc.value.constraint == "c1 in {-1, 1}"


@pytest.mark.parametrize("key,value", [
    ("c3", "1"), ("c4", True), ("c4", np.True_),
])
def test_non_number_parameters_rejected(key, value):
    with pytest.raises(FamilyParameterError,
                       match="parameter %s must be finite" % key):
        make_family(FamilyParams("CASE_A", **{key: value}))


@pytest.mark.parametrize("c1", [True, np.True_], ids=["bool", "np_bool"])
def test_bool_c1_is_a_constraint_violation(c1):
    with pytest.raises(ConstraintViolation) as exc:
        make_family(FamilyParams("CASE_A", c1=c1))
    assert exc.value.constraint == "c1 in {-1, 1}"


@pytest.mark.parametrize("sign_branch", [True, np.True_],
                         ids=["bool", "np_bool"])
def test_bool_sign_branch_is_a_constraint_violation(sign_branch):
    with pytest.raises(ConstraintViolation) as exc:
        make_family(FamilyParams("CASE_A", sign_branch=sign_branch))
    assert exc.value.constraint == "sign_branch in {-1, +1}"


#: the optional parameters of FamilyParams, in field order
PARAM_NAMES = ("c2", "c3", "c4", "c5", "c6", "c7", "c8", "c9", "c10", "c11",
               "lam")

#: each family's free parameters in PARAM_NAMES order, and whether it
#: has a sign choice (sign_branch)
FAMILY_REGISTRY = {
    "ORD11": ((), False),
    "ORD21": (("c2", "c3", "c4", "c5", "c6", "c7", "c8", "c9", "c10",
               "c11"), False),
    "CASE_A": (("c3", "c4"), False),
    "CASE_211": (("c2", "c3", "c4", "c5", "c6", "c7"), False),
    "CASE_212": (("c2", "c3", "c4", "c5", "c6", "c7", "c8"), False),
    "CASE_221": (("c3", "c4", "c6", "c7", "c8", "c9"), True),
    "CASE_222": (("c3", "c4", "c6", "c7", "c8"), False),
    "CASE_223": (("c3", "c4", "c6", "c7", "c8"), False),
    "ORD32_212": (("c2", "c3", "c4", "c5", "c6"), True),
    "ORD32_221A": (("c3", "c4", "c9"), True),
    "ORD32_221B": (("c3", "c4", "c9"), True),
    "ORD32_221C": (("c3", "c4", "c8", "lam"), True),
    "ORD32_223A": (("c3", "c4"), False),
    "ORD32_223C": (("c3", "c4", "c7"), False),
}


def _not_free(key, fid):
    free = FAMILY_REGISTRY[fid][0]
    return ("parameter %s is not free in family %s; free parameters: %s"
            % (key, fid, ", ".join(free) if free else "none (besides c1)"))


def _build(fid, **kwargs):
    """make_family, where an inadmissible value counts as accepted."""
    try:
        make_family(FamilyParams(fid, **kwargs))
    except ConstraintViolation:
        pass


def test_registry_lists_every_family():
    assert tuple(FAMILY_REGISTRY) == FAMILY_IDS


def test_docstring_family_table_matches_the_families():
    # the rows of "Families and their free parameters" in the families
    # module docstring, c2..c11 expanded
    lines = families.__doc__.split("Families and their free parameters",
                                   1)[1].splitlines()[2:]
    rows = lines[:lines.index("")]
    assert [row.split()[0] for row in rows] == list(FAMILY_IDS)
    rng = np.random.default_rng(0)
    for row in rows:
        match = re.fullmatch(r"  (\w+) +(.*?) *weak order \((\d), (\d)\), "
                             r"s = (\d)", row)
        assert match, row
        fid, params, p, q, s = match.groups()
        free = []
        for item in filter(None, params.split(", ")):
            lo, _, hi = item.partition("..")
            free += ["c%d" % k for k in range(int(lo[1:]), int(hi[1:]) + 1)] \
                if hi else [item]
        assert tuple(free) == FAMILY_REGISTRY[fid][0], fid
        assert (int(p), int(q)) == CLASS_ORDERS[fid], fid
        assert draw_member(fid, rng).s == int(s), fid


@pytest.mark.parametrize("fid", FAMILY_IDS)
def test_non_free_parameters_rejected(fid):
    free = FAMILY_REGISTRY[fid][0]
    for key in PARAM_NAMES:
        if key in free:
            _build(fid, **{key: 0.5})
            continue
        with pytest.raises(FamilyParameterError) as exc:
            make_family(FamilyParams(fid, **{key: 0.5}))
        assert str(exc.value) == _not_free(key, fid)


@pytest.mark.parametrize("fid", FAMILY_IDS)
def test_sign_branch_only_where_the_family_has_a_sign_choice(fid):
    _build(fid, sign_branch=1)
    if FAMILY_REGISTRY[fid][1]:
        _build(fid, sign_branch=-1)
        return
    with pytest.raises(FamilyParameterError) as exc:
        make_family(FamilyParams(fid, sign_branch=-1))
    assert str(exc.value) == _not_free("sign_branch", fid)
    # the sign choice is checked before the other parameters
    with pytest.raises(FamilyParameterError) as exc:
        make_family(FamilyParams(fid, sign_branch=-1, c3=math.nan,
                                 lam=0.5))
    assert str(exc.value) == _not_free("sign_branch", fid)


def test_unknown_ids():
    with pytest.raises(UnknownFamilyError):
        make_family(FamilyParams("ORD99"))
    with pytest.raises(UnknownSchemeError):
        named_scheme("SRK5")
    with pytest.raises(UnknownFamilyError):
        family_id_from_cli("ord99")


def test_family_id_from_cli():
    assert family_id_from_cli("ord32-221c") == "ORD32_221C"
    assert family_id_from_cli("case-a") == "CASE_A"
    assert family_id_from_cli("ORD21") == "ORD21"
    assert family_id_from_cli(" ord11 ") == "ORD11"


@pytest.mark.parametrize("fid", FAMILY_IDS)
def test_random_members_satisfy_classified_conditions(fid):
    # a light version of the acceptance sweep: a handful of random
    # admissible members per family must satisfy the full condition
    # set their class is sold under
    rng = np.random.default_rng(1234)
    want = set(CLASSIFIED_IDS[fid])
    p_det, p_stoch = CLASS_ORDERS[fid]
    for _ in range(10):
        t = draw_member(fid, rng)
        rep = evaluate_all(t, tol=1e-9)
        sat = {cid for cid, ok in rep.satisfied.items() if ok}
        assert want <= sat, (fid, want - sat)
        assert rep.inferred.p_det >= p_det
        assert rep.inferred.p_stoch >= p_stoch
