"""Span tracing of srkweak from the outside, and the per-layer metrics.

The traced run replaces module attributes of srkweak (and of the
workload module) with wrappers that record one span per call: name,
start, end, parent span and group.  Spans of one (scheme, h) study cell
or one sweep member share a group, the id of the span that opened it.
Nothing under src/ changes; the wrappers are removed after each traced
repetition.

Spans are kept in memory and analysed after the repetition.  A span's
self time is its duration minus the part of that interval its child
spans cover; children from worker threads may overlap, so the covered
part is the length of the union of their intervals.
"""

import dataclasses
import itertools
import math
import statistics
import threading
from collections import defaultdict, namedtuple
from contextlib import contextmanager
from time import perf_counter

from srkweak import cli, conditions, estimator, families, integrator, tableau
from srkweak.increments import CountingStream

Span = namedtuple("Span", "sid name start end parent group info")


class Tracer:
    """Collects spans from wrapped callables, thread-safely."""

    def __init__(self):
        self.spans = []
        self._ids = itertools.count()
        self._local = threading.local()
        # (span id, group) adopted by threads that have no open span,
        # e.g. estimator worker threads inside a study cell
        self._root = (None, None)

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name, fn, info=None, group=False):
        """Return fn recording a span per call.

        info(args, kwargs) gives the span's info dict; group=True makes
        the span open a new group that worker threads attach to.
        """
        def traced(*args, **kwargs):
            stack = self._stack()
            parent, grp = stack[-1][:2] if stack else self._root
            sid = next(self._ids)
            if group:
                grp = sid
                saved_root, self._root = self._root, (sid, grp)
            data = info(args, kwargs) if info else {}
            stack.append((sid, grp, data))
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                data["raised"] = type(exc).__name__
                raise
            finally:
                end = perf_counter()
                stack.pop()
                if group:
                    self._root = saved_root
                self.spans.append(Span(sid, name, start, end, parent, grp,
                                       data))
        return traced

    def note(self, key, value):
        """Attach a value to the innermost open span of this thread."""
        self._stack()[-1][2][key] = value


def traced_problem(tracer, prob):
    """Return prob with span-recording drift, diffusion and f."""
    return dataclasses.replace(
        prob,
        drift=tracer.wrap("problems.drift", prob.drift),
        diffusion_column=tracer.wrap("problems.diffusion_column",
                                     prob.diffusion_column),
        f=tracer.wrap("problems.f", prob.f))


@contextmanager
def instrumented(tracer, workloads, sweep=None):
    """Install the span wrappers for the duration of the block.

    workloads is the benchmark's workload module (its member function
    opens one group per sweep member); sweep, if given, is the running
    sweep, whose target problems get traced callbacks.
    """
    import family_sampling

    orig_draw = integrator.draw

    def draw_counted(m, h, stream, size=None, with_offdiag=True):
        counter = CountingStream(stream)
        batch = orig_draw(m, h, counter, size=size,
                          with_offdiag=with_offdiag)
        tracer.note("uniforms", counter.count)
        return batch

    orig_problem_from_cli = cli.problem_from_cli

    def problem_from_cli(token):
        return traced_problem(tracer, orig_problem_from_cli(token))

    w = tracer.wrap
    make_family = w("families.make_family", families.make_family)
    patches = [
        (integrator, "draw", w("increments.draw", draw_counted)),
        (integrator, "srk_step", w(
            "integrator.srk_step", integrator.srk_step,
            lambda a, k: {"tab": a[0], "m": a[1].m, "rows": math.prod(a[2].y.shape[:-1])})),
        (integrator, "evaluation_cost", w("integrator.evaluation_cost",
                                          integrator.evaluation_cost)),
        (integrator, "exact_one_step_expectation",
         w("integrator.exact_one_step_expectation",
           integrator.exact_one_step_expectation)),
        (estimator, "estimate", w("estimator.estimate", estimator.estimate,
                                  group=True)),
        (estimator, "terminal_values", w(
            "integrator.terminal_values", estimator.terminal_values,
            lambda a, k: {"tab": a[0], "m": a[1].m, "steps": a[2],
                          "paths": a[3]})),
        (cli, "main", w("cli.main", cli.main)),
        (cli, "problem_from_cli", w("cli.problem_from_cli",
                                    problem_from_cli)),
        (cli, "run_study", w("estimator.run_study", cli.run_study)),
        (cli, "write_errors_csv", w("cli.write_csv", cli.write_errors_csv)),
        (cli, "write_orders_csv", w("cli.write_csv", cli.write_orders_csv)),
        (conditions, "evaluate_all", w("conditions.evaluate_all",
                                       conditions.evaluate_all)),
        (families, "make_family", make_family),
        (family_sampling, "make_family", make_family),
        (tableau, "serialize", w("tableau.serialize", tableau.serialize)),
        (tableau, "deserialize", w("tableau.deserialize",
                                   tableau.deserialize)),
        (workloads, "member", w("sweep.member", workloads.member,
                                group=True)),
    ]
    if sweep is not None:
        patches.append((sweep, "targets", [
            (traced_problem(tracer, prob), h) for prob, h in sweep.targets]))
    saved = [(obj, attr, getattr(obj, attr)) for obj, attr, _ in patches]
    try:
        for obj, attr, new in patches:
            setattr(obj, attr, new)
        yield tracer
    finally:
        for obj, attr, old in reversed(saved):
            setattr(obj, attr, old)


def _union_length(intervals):
    total = 0.0
    end = None
    for a, b in sorted(intervals):
        if end is None or a > end:
            total += b - a
            end = b
        elif b > end:
            total += b - end
            end = b
    return total


def self_times(spans):
    """Map span id to self time: duration minus the union of children."""
    kids = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            kids[s.parent].append(s)
    return {s.sid: (s.end - s.start)
            - _union_length([(c.start, c.end) for c in kids[s.sid]])
            for s in spans}


def _cost_model():
    """Return evaluation_cost memoised per (tableau, m).

    Keys use the tableau's identity, which is safe while the spans that
    hold the tableaux are alive, so use one memo per analysis.
    """
    memo = {}

    def cost(tab, m):
        key = (id(tab), m)
        if key not in memo:
            memo[key] = integrator.evaluation_cost(tab, m)
        return memo[key]
    return cost


def cost_model_check(spans):
    """Compare measured call and draw counts with evaluation_cost.

    For every study cell (group of an estimator.estimate span) the
    drift calls, diffusion-column calls and uniforms drawn must equal
    the model times steps times paths of each terminal_values call.
    Returns a list of (ok, message).
    """
    cost = _cost_model()
    measured = defaultdict(lambda: [0, 0, 0])
    model = defaultdict(lambda: [0, 0, 0])
    label = {}
    for s in spans:
        if s.name == "estimator.estimate":
            label[s.group] = s.sid
        elif s.name == "problems.drift":
            measured[s.group][0] += 1
        elif s.name == "problems.diffusion_column":
            measured[s.group][1] += 1
        elif s.name == "increments.draw":
            measured[s.group][2] += s.info["uniforms"]
        elif s.name == "integrator.terminal_values":
            i = s.info
            c = cost(i["tab"], i["m"])
            model[s.group][0] += c.drift_evals * i["steps"]
            model[s.group][1] += c.diffusion_column_evals * i["steps"]
            model[s.group][2] += c.random_draws * i["steps"] * i["paths"]
    checks = []
    for grp in sorted(label):
        got, want = tuple(measured[grp]), tuple(model[grp])
        checks.append((got == want,
                       "cell %d: measured (drift, diffusion, uniforms) %s, "
                       "evaluation_cost model %s" % (grp, got, want)))
    return checks


def _per(total, count, scale):
    return total / count * scale if count else 0.0


def layer_metrics(spans, threads):
    """Per-layer metrics of one traced repetition.

    A metric of a layer the workload does not exercise reads 0.
    """
    selfs = self_times(spans)
    calls = defaultdict(int)
    self_s = defaultdict(float)
    dur = defaultdict(float)
    for s in spans:
        calls[s.name] += 1
        self_s[s.name] += selfs[s.sid]
        dur[s.name] += s.end - s.start
    uniforms = sum(s.info["uniforms"] for s in spans
                   if s.name == "increments.draw")
    rows = sum(s.info["rows"] for s in spans
               if s.name == "integrator.srk_step")
    cost = _cost_model()
    model_calls = 0
    for s in spans:
        if s.name == "integrator.srk_step":
            c = cost(s.info["tab"], s.info["m"])
            model_calls += c.drift_evals + c.diffusion_column_evals
    callback_calls = calls["problems.drift"] \
        + calls["problems.diffusion_column"]
    made = calls["families.make_family"]
    rejected = sum(1 for s in spans if s.name == "families.make_family"
                   and s.info.get("raised") == "ConstraintViolation")
    return {
        "increments.draw.calls": calls["increments.draw"],
        "increments.draw.uniforms": uniforms,
        "increments.draw.self_s": self_s["increments.draw"],
        "increments.draw.ns_per_uniform":
            _per(self_s["increments.draw"], uniforms, 1e9),
        "integrator.srk_step.calls": calls["integrator.srk_step"],
        "integrator.srk_step.self_s": self_s["integrator.srk_step"],
        "integrator.srk_step.ns_per_path_step":
            _per(self_s["integrator.srk_step"], rows, 1e9),
        "integrator.terminal_values.self_s":
            self_s["integrator.terminal_values"],
        "integrator.exact_one_step_expectation.us_per_call":
            _per(dur["integrator.exact_one_step_expectation"],
                 calls["integrator.exact_one_step_expectation"], 1e6),
        "integrator.evaluation_cost.us_per_call":
            _per(dur["integrator.evaluation_cost"],
                 calls["integrator.evaluation_cost"], 1e6),
        "problems.drift.calls": calls["problems.drift"],
        "problems.diffusion_column.calls": calls["problems.diffusion_column"],
        "problems.callbacks.self_s": self_s["problems.drift"]
            + self_s["problems.diffusion_column"],
        "problems.f.self_s": self_s["problems.f"],
        "problems.calls_over_model": _per(callback_calls, model_calls, 1.0),
        "estimator.estimate.self_s": self_s["estimator.estimate"],
        "estimator.thread_busy_frac": _per(
            dur["integrator.terminal_values"],
            dur["estimator.estimate"] * threads, 1.0),
        "conditions.evaluate_all.us_per_call":
            _per(dur["conditions.evaluate_all"],
                 calls["conditions.evaluate_all"], 1e6),
        "families.make_family.us_per_call":
            _per(dur["families.make_family"], made, 1e6),
        "families.make_family.rejected": rejected,
        "families.accept_ratio": _per(made - rejected, made, 1.0),
        "tableau.serialize.us_per_call":
            _per(dur["tableau.serialize"], calls["tableau.serialize"], 1e6),
        "tableau.deserialize.us_per_call":
            _per(dur["tableau.deserialize"], calls["tableau.deserialize"],
                 1e6),
        "cli.overhead_s": dur["cli.main"] - dur["estimator.run_study"],
        "cli.csv_write_s": dur["cli.write_csv"],
    }


def median_metrics(per_rep):
    """Median (the lower one for an even count) of each metric."""
    return {k: statistics.median_low(r[k] for r in per_rep)
            for k in per_rep[0]}
