import math

import numpy as np
import pytest

from family_sampling import (CLASSIFIED_IDS, CLASS_ORDERS, EXCLUSIONS,
                             draw_member)
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


def test_non_free_parameters_rejected():
    with pytest.raises(FamilyParameterError) as exc:
        make_family(FamilyParams("ORD11", c2=0.5))
    assert "none (besides c1)" in str(exc.value)
    with pytest.raises(FamilyParameterError) as exc:
        make_family(FamilyParams("CASE_A", c2=1.0))
    assert "free parameters: c3, c4" in str(exc.value)
    with pytest.raises(FamilyParameterError):
        make_family(FamilyParams("ORD32_221C", c9=1.0))
    with pytest.raises(FamilyParameterError):
        make_family(FamilyParams("ORD32_223A", c7=0.5))


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
        sat = set(rep.satisfied_ids())
        assert want <= sat, (fid, want - sat)
        assert rep.inferred.p_det >= p_det
        assert rep.inferred.p_stoch >= p_stoch
