import numpy as np
import pytest

from family_sampling import draw_member
from srkweak.conditions import (CONDITIONS, DEFAULT_TOL, DET_ORDER3_IDS,
                                DET_ORDER4_IDS, NODE_IDS, UnknownConditionError,
                                WEAK_ORDER1_IDS, WEAK_ORDER2_IDS, _rewrite,
                                _shared, evaluate_all, infer_orders,
                                lhs_all)
from srkweak.families import (FAMILY_IDS, NAMED_SCHEMES, FamilyParams,
                              make_family, named_scheme)
from srkweak.tableau import CoefficientTableau

EM_FAILED_W = {"W8", "W9", "W10", "W11", "W13", "W14", "W15", "W16"}
RDI1WM_FAILED_W = {"W9", "W11", "W13", "W14", "W15", "W16"}


def test_registry_layout():
    ids = [c.cid for c in CONDITIONS]
    assert len(ids) == 57
    assert ids[:50] == ["W%d" % k for k in range(1, 51)]
    assert ids[50:] == ["D3A", "D3B", "D4A", "D4B", "D4C", "T1", "T2"]
    assert WEAK_ORDER1_IDS == tuple("W%d" % k for k in range(1, 8))
    assert WEAK_ORDER2_IDS == tuple("W%d" % k for k in range(8, 51))
    assert DET_ORDER3_IDS == ("D3A", "D3B")
    assert DET_ORDER4_IDS == ("D4A", "D4B", "D4C")
    assert NODE_IDS == ("T1", "T2")
    assert len({c.cid for c in CONDITIONS}) == 57


def test_single_residual_values():
    rdi1 = evaluate_all(named_scheme("RDI1WM")).residuals
    assert rdi1["W1"] == 0.0
    assert rdi1["W13"] == -1.0
    assert abs(evaluate_all(named_scheme("RDI2WM")).residuals["W13"]) < 1e-15
    assert "W51" not in rdi1


@pytest.mark.parametrize("name,orders", [
    ("EM", (1, 1)),
    ("RDI1WM", (2, 1)),
    ("PL1WM", (2, 2)),
    ("RDI2WM", (2, 2)),
    ("RDI3WM", (3, 2)),
    ("RDI4WM", (3, 2)),
])
def test_inferred_orders_of_named_schemes(name, orders):
    rep = evaluate_all(named_scheme(name))
    assert (rep.inferred.p_det, rep.inferred.p_stoch) == orders


def test_em_failed_set_is_exact():
    rep = evaluate_all(named_scheme("EM"))
    failed_w = {cid for cid in rep.failed_ids() if cid.startswith("W")}
    assert failed_w == EM_FAILED_W


def test_rdi1wm_failed_set_is_exact():
    rep = evaluate_all(named_scheme("RDI1WM"))
    failed_w = {cid for cid in rep.failed_ids() if cid.startswith("W")}
    assert failed_w == RDI1WM_FAILED_W
    # second-order deterministic part holds, third-order does not
    assert rep.satisfied["D3A"]
    assert not rep.satisfied["D3B"]


def test_default_nodes_settle_node_conditions():
    # the default nodes of the three-stage families satisfy the two
    # extra conditions, the nodes of PL1WM do not
    rep = evaluate_all(named_scheme("RDI2WM"))
    assert rep.satisfied["T1"] and rep.satisfied["T2"]
    rep = evaluate_all(named_scheme("PL1WM"))
    assert not rep.satisfied["T1"] and not rep.satisfied["T2"]


def test_fourth_order_leftovers():
    rep3 = evaluate_all(named_scheme("RDI3WM"))
    rep4 = evaluate_all(named_scheme("RDI4WM"))
    assert rep3.failed_ids(group="det4") == ["D4C"]
    assert rep4.failed_ids(group="det4") == ["D4B"]


def test_order_inference_structure():
    assert str(infer_orders(set())) == "(0, 0)"
    w17 = set(WEAK_ORDER1_IDS)
    assert str(infer_orders(w17)) == "(1, 1)"
    assert str(infer_orders(w17 | {"W8"})) == "(2, 1)"
    assert str(infer_orders(w17 | {"W8", "D3A", "D3B"})) == "(3, 1)"
    full = w17 | set(WEAK_ORDER2_IDS)
    assert str(infer_orders(full)) == "(2, 2)"
    assert str(infer_orders(full | {"D3A", "D3B"})) == "(3, 2)"
    # deterministic order is capped by the registry at three
    assert str(infer_orders(full | set(DET_ORDER3_IDS)
                            | set(DET_ORDER4_IDS))) == "(3, 2)"


def test_exact_zeros_on_rational_member():
    residuals = evaluate_all(
        make_family(FamilyParams("ORD21", c2=0.5, c3=0.5))).residuals
    for cid in ("W1", "W2", "W3", "W4", "W5", "W8", "W10"):
        assert residuals[cid] == 0.0


def test_every_coefficient_is_constrained():
    # perturbing any nonzero entry of a fully satisfying scheme must
    # move some residual by a comparable amount
    base = named_scheme("RDI2WM")
    delta = 1e-3
    keys = ("alpha", "beta1", "beta2", "beta3", "beta4",
            "A0", "A1", "A2", "B0", "B1", "B2")
    for key in keys:
        arr = getattr(base, key)
        for idx in np.argwhere(arr != 0.0):
            bumped = {k: getattr(base, k).copy() for k in keys}
            bumped[key][tuple(idx)] += delta
            t = CoefficientTableau(s=base.s, name=None, **bumped)
            rep = evaluate_all(t)
            worst = max(abs(r) for r in rep.residuals.values())
            assert worst >= delta / 8.0, (key, idx, worst)


@pytest.mark.parametrize("kwargs", [
    {"c1": -1.0},
    {"c3": -np.sqrt(2.0 / 3.0)},
    {"c4": -np.sqrt(2.0)},
])
def test_sign_flips_leave_residuals_unchanged(kwargs):
    # flipping c1, c3 or c4 negates whole coefficient groups at once;
    # the conditions only see them through even combinations, so each
    # residual keeps its exact magnitude (roundoff may change sign)
    base = evaluate_all(make_family(FamilyParams("CASE_A")))
    flipped = evaluate_all(make_family(FamilyParams("CASE_A", **kwargs)))
    for cid, res in base.residuals.items():
        assert abs(flipped.residuals[cid]) == abs(res), cid


def test_report_text_format():
    text = evaluate_all(named_scheme("RDI1WM")).as_text()
    lines = text.splitlines()
    assert lines[0] == "condition residuals for RDI1WM (tol 1.0E-12)"
    assert lines[-1] == "inferred order: p_det=2, p_stoch=1"
    assert any(line.startswith("  W13  FAIL") for line in lines)
    assert sum(1 for line in lines if " pass " in line or " FAIL " in line) \
        == 57


def test_report_csv_format():
    rep = evaluate_all(named_scheme("EM"))
    lines = rep.as_csv().splitlines()
    assert lines[0] == "id,residual,satisfied"
    assert len(lines) == 58
    assert lines[1] == "W1,0.00000E+00,true"
    byid = dict(line.split(",", 1) for line in lines[1:])
    assert byid["W13"] == "-1.00000E+00,false"


def test_report_id_lists():
    rep = evaluate_all(named_scheme("EM"))
    assert set(rep.failed_ids()) \
        == {cid for cid, ok in rep.satisfied.items() if not ok}
    assert list(rep.satisfied) == [c.cid for c in CONDITIONS]
    assert rep.failed_ids(group="weak1") == []
    assert set(rep.failed_ids(group="weak2")) == EM_FAILED_W


def test_tolerance_validation():
    t = named_scheme("EM")
    with pytest.raises(ValueError):
        evaluate_all(t, tol=-1.0)
    with pytest.raises(ValueError):
        evaluate_all(t, tol=float("nan"))
    for bad in ("x", True, None):
        with pytest.raises(ValueError, match="tol must be a finite"):
            evaluate_all(t, tol=bad)
    # a huge tolerance blesses everything
    rep = evaluate_all(t, tol=10.0)
    assert rep.failed_ids() == []


def _q(x):
    return np.asarray(x) ** 2


#: The 57 conditions as they were written by hand before they were
#: compiled from their printed text, kept frozen: cid -> (r, L).
_REFERENCE = {
    "W1": (1, lambda t, e: t.alpha @ e),
    "W2": (0, lambda t, e: t.beta4 @ e),
    "W3": (0, lambda t, e: t.beta3 @ e),
    "W4": (1, lambda t, e: (t.beta1 @ e) ** 2),
    "W5": (0, lambda t, e: t.beta2 @ e),
    "W6": (0, lambda t, e: t.beta1 @ (t.B1 @ e)),
    "W7": (0, lambda t, e: t.beta3 @ (t.B2 @ e)),
    "W8": (0.5, lambda t, e: t.alpha @ (t.A0 @ e)),
    "W9": (0.5, lambda t, e: t.alpha @ _q(t.B0 @ e)),
    "W10": (0.5, lambda t, e: (t.beta1 @ e) * (t.alpha @ (t.B0 @ e))),
    "W11": (0.5, lambda t, e: (t.beta1 @ e) * (t.beta1 @ (t.A1 @ e))),
    "W12": (0, lambda t, e: t.beta3 @ (t.A2 @ e)),
    "W13": (1, lambda t, e: t.beta2 @ (t.B1 @ e)),
    "W14": (1, lambda t, e: t.beta4 @ (t.B2 @ e)),
    "W15": (0.5, lambda t, e: (t.beta1 @ e) * (t.beta1 @ _q(t.B1 @ e))),
    "W16": (0.5, lambda t, e: (t.beta1 @ e) * (t.beta3 @ _q(t.B2 @ e))),
    "W17": (0, lambda t, e: t.beta1 @ (t.B1 @ (t.B1 @ e))),
    "W18": (0, lambda t, e: t.beta3 @ (t.B2 @ (t.B1 @ e))),
    "W19": (0, lambda t, e: t.beta3 @ (t.A2 @ (t.B0 @ e))),
    "W20": (0, lambda t, e: t.beta1 @ (t.A1 @ (t.B0 @ e))),
    "W21": (0, lambda t, e: t.alpha @ (t.B0 @ (t.B1 @ e))),
    "W22": (0, lambda t, e: t.beta2 @ (t.A1 @ e)),
    "W23": (0, lambda t, e: t.beta4 @ (t.A2 @ e)),
    "W24": (0, lambda t, e: t.beta1 @ ((t.A1 @ e) * (t.B1 @ e))),
    "W25": (0, lambda t, e: t.beta3 @ ((t.A2 @ e) * (t.B2 @ e))),
    "W26": (0, lambda t, e: t.beta4 @ (t.A2 @ (t.B0 @ e))),
    "W27": (0, lambda t, e: t.beta2 @ (t.A1 @ (t.B0 @ e))),
    "W28": (0, lambda t, e: t.beta2 @ (t.A1 @ _q(t.B0 @ e))),
    "W29": (0, lambda t, e: t.beta4 @ (t.A2 @ _q(t.B0 @ e))),
    "W30": (0, lambda t, e: t.beta3 @ (t.B2 @ (t.A1 @ e))),
    "W31": (0, lambda t, e: t.beta1 @ (t.B1 @ (t.A1 @ e))),
    "W32": (0, lambda t, e: t.beta2 @ _q(t.B1 @ e)),
    "W33": (0, lambda t, e: t.beta4 @ _q(t.B2 @ e)),
    "W34": (0, lambda t, e: t.beta4 @ (t.B2 @ (t.B1 @ e))),
    "W35": (0, lambda t, e: t.beta2 @ (t.B1 @ (t.B1 @ e))),
    "W36": (0, lambda t, e: t.beta1 @ (t.B1 @ e) ** 3),
    "W37": (0, lambda t, e: t.beta3 @ (t.B2 @ e) ** 3),
    "W38": (0, lambda t, e: t.beta1 @ (t.B1 @ _q(t.B1 @ e))),
    "W39": (0, lambda t, e: t.beta3 @ (t.B2 @ _q(t.B1 @ e))),
    "W40": (0, lambda t, e: t.alpha @ ((t.B0 @ e) * (t.B0 @ (t.B1 @ e)))),
    "W41": (0, lambda t, e: t.beta1 @ ((t.A1 @ (t.B0 @ e)) * (t.B1 @ e))),
    "W42": (0, lambda t, e: t.beta3 @ ((t.A2 @ (t.B0 @ e)) * (t.B2 @ e))),
    "W43": (0, lambda t, e: t.beta1 @ (t.A1 @ (t.B0 @ (t.B1 @ e)))),
    "W44": (0, lambda t, e: t.beta3 @ (t.A2 @ (t.B0 @ (t.B1 @ e)))),
    "W45": (0, lambda t, e: t.beta1 @ (t.B1 @ (t.A1 @ (t.B0 @ e)))),
    "W46": (0, lambda t, e: t.beta3 @ (t.B2 @ (t.A1 @ (t.B0 @ e)))),
    "W47": (0, lambda t, e: t.beta1 @ ((t.B1 @ e) * (t.B1 @ (t.B1 @ e)))),
    "W48": (0, lambda t, e: t.beta3 @ ((t.B2 @ e) * (t.B2 @ (t.B1 @ e)))),
    "W49": (0, lambda t, e: t.beta1 @ (t.B1 @ (t.B1 @ (t.B1 @ e)))),
    "W50": (0, lambda t, e: t.beta3 @ (t.B2 @ (t.B1 @ (t.B1 @ e)))),
    "D3A": (1.0 / 3.0, lambda t, e: t.alpha @ _q(t.A0 @ e)),
    "D3B": (1.0 / 6.0, lambda t, e: t.alpha @ (t.A0 @ (t.A0 @ e))),
    "D4A": (1.0 / 12.0, lambda t, e: t.alpha @ (t.A0 @ _q(t.A0 @ e))),
    "D4B": (1.0 / 8.0,
            lambda t, e: t.alpha @ ((t.A0 @ e) * (t.A0 @ (t.A0 @ e)))),
    "D4C": (0.25, lambda t, e: t.alpha @ (t.A0 @ e) ** 3),
    "T1": (2.0 / 3.0, lambda t, e: (t.beta2 @ ((t.A1 @ e) * (t.B1 @ e)))
           * (t.beta1 @ e) ** 2),
    "T2": (1, lambda t, e: (t.beta1 @ e) * (t.beta3 @ (t.B2 @ e) ** 4)),
}


def _reference_tableaux():
    tabs = [named_scheme(name) for name in NAMED_SCHEMES]
    rng = np.random.default_rng(606)
    tabs += [draw_member(fid, rng) for fid in FAMILY_IDS for _ in range(5)]
    # dense matrices make every product and nesting count
    for s in range(1, 6):
        for _ in range(8):
            tabs.append(CoefficientTableau(
                s=s, name=None,
                **{key: rng.standard_normal(s) for key in
                   ("alpha", "beta1", "beta2", "beta3", "beta4")},
                **{key: rng.standard_normal((s, s)) for key in
                   ("A0", "A1", "A2", "B0", "B1", "B2")}))
    return tabs


def test_compiled_conditions_match_frozen_reference():
    assert list(_REFERENCE) == [c.cid for c in CONDITIONS]
    for spec in CONDITIONS:
        assert spec.rhs == float(_REFERENCE[spec.cid][0]), spec.cid
    for t in _reference_tableaux():
        e = np.ones(t.s)
        shared = lhs_all(t, e)
        assert len(shared) == len(CONDITIONS)
        want = {}
        for spec, got in zip(CONDITIONS, shared):
            got = np.float64(got)
            ref = np.float64(_REFERENCE[spec.cid][1](t, e))
            assert got.tobytes() == ref.tobytes(), (spec.cid, got, ref)
            want[spec.cid] = float(ref) - spec.rhs
        # evaluate_all reports L - r with L bit for bit as written
        got = evaluate_all(t).residuals
        assert list(got) == list(want)
        assert np.array(list(got.values())).tobytes() \
            == np.array(list(want.values())).tobytes()


@pytest.mark.parametrize("text", [
    "alpha^T (C1 e) = 1",       # no such array
    "gamma^T e = 1",
    "alpha^T (A0 x) = 1",       # only e may be multiplied
    "alpha^T (A0 e)^-1 = 1",    # powers are single digits
    "alpha^T e + 1 = 1",        # no sums
    "alpha^T (A0.T e) = 0",     # no attribute access
])
def test_unreadable_condition_text_is_rejected(text):
    with pytest.raises(ValueError, match="condition X1: "):
        _rewrite("X1", text)


def test_compile_reads_both_sides():
    lhs, rhs = _rewrite("X1", "alpha^T (A0 (A0 e))^2 = 1/3")
    both = _shared([lhs, "t.alpha @ e"])
    t = named_scheme("RDI4WM")
    e = np.ones(t.s)
    assert rhs == 1.0 / 3.0
    assert both(t, e) == (t.alpha @ (t.A0 @ (t.A0 @ e)) ** 2, t.alpha @ e)


def test_unknown_group_is_rejected():
    rep = evaluate_all(named_scheme("EM"))
    with pytest.raises(UnknownConditionError,
                       match="known groups are weak1, weak2, det3, det4, "
                             "node"):
        rep.failed_ids(group="weak3")
