"""The module attributes that bench/spans.py replaces to trace a run.

The tracer wraps integrator.draw, integrator.srk_step,
estimator.terminal_values and conditions.evaluate_all in place, so the
library must look each of them up through its module's globals at
call time, the support trees of the exact expectations included.  A
library that imported them under another name would run untraced, and
the per-layer metrics would silently read zero.
"""

from collections import defaultdict

from srkweak import conditions, estimator, exact, integrator
from srkweak.cli import main
from srkweak.families import named_scheme
from srkweak.increments import substream
from srkweak.integrator import StepContext
from srkweak.problems import problem_linear


def test_library_calls_hooks_through_module_globals(monkeypatch, capsys):
    calls = defaultdict(list)

    def count(module, name):
        orig = getattr(module, name)

        def counted(*args, **kwargs):
            calls[name].append(args)
            return orig(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)

    count(integrator, "draw")
    count(integrator, "srk_step")
    count(estimator, "terminal_values")
    count(conditions, "evaluate_all")

    prob = problem_linear(t_end=0.75)
    integrator.terminal_values(named_scheme("EM"), prob, 3, 4, substream(0))
    assert len(calls["draw"]) == 3
    assert len(calls["srk_step"]) == 3
    for _, _, ctx in calls["srk_step"]:
        assert isinstance(ctx, StepContext) and ctx.y.shape == (4, 1)

    estimator.estimate("EM", prob, 0.25, 4, seed=0, batches=2)
    assert len(calls["terminal_values"]) == 2
    assert len(calls["srk_step"]) == 3 + 2 * 3

    # every level of a support tree is one step through the hook
    integrator.exact_one_step_expectation(named_scheme("EM"), prob, prob.f,
                                          0.25)
    assert len(calls["srk_step"]) == 9 + 1
    exact.exact_expectation(named_scheme("EM"), prob, prob.f, 0.25, 2)
    assert len(calls["srk_step"]) == 10 + 2
    for _, _, ctx in calls["srk_step"][9:]:
        assert isinstance(ctx, StepContext)
    assert "srk_step" not in vars(exact)  # the tree binds no step of its own

    assert main(["check", "--scheme", "em"]) == 0
    capsys.readouterr()
    assert len(calls["evaluate_all"]) == 1
