"""Benchmark of srkweak: one workload per invocation.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; srkweak is imported from its
src/ directory and the family sampler from tests/.  With --trace 0 the
repetitions run untraced and the last line of standard output is a JSON
object holding the end-to-end metrics.  With --trace 1, untraced and
traced repetitions alternate and the JSON object holds the per-layer
metrics, taken from the traced ones.  The lines before it repeat the
metrics for people, with the host record and the failed checks.  Times
are scaled to a reference host speed by a probe (SpeedProbe).  The
spans of the last traced repetition go to
.bench_out/trace-<workload>-<seed>.json.  See bench/README.md.
"""

import argparse
import json
import os
import re
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TESTS = ROOT / "tests"
OUT = ROOT / ".bench_out"

#: repetitions made even when one takes longer than --seconds / 3
MIN_REPS = 3
#: fresh interpreters timed for setup_s, and for the import times
SETUP_RUNS = 5
IMPORT_RUNS = 3
SUBPROCESS_TIMEOUT = 60

END_TO_END_UNITS = {"wall_s": "s", "work_per_s": "1/s", "setup_s": "s",
                    "peak_rss_mb": "MB"}
MODULES = ("srkweak", "srkweak.tableau", "srkweak.conditions",
           "srkweak.families", "srkweak.increments", "srkweak.integrator",
           "srkweak.problems", "srkweak.estimator", "srkweak.cli")


def per_layer_unit(name):
    """Unit of a per-layer metric, read off its name."""
    if name.endswith("_s"):
        return "s"
    if name.endswith(".ns_per_uniform") or name.endswith(".ns_per_path_step"):
        return "ns"
    if name.endswith(".us_per_call"):
        return "us"
    if name.endswith("_ms_p50") or name.endswith("_ms_p99"):
        return "ms"
    if name.endswith("_frac") or name.endswith("_ratio") \
            or name.endswith("over_model"):
        return "ratio"
    return "count"


def fail(msg):
    print("error: %s" % msg, file=sys.stderr)
    return 2


class SpeedProbe:
    """A fixed job that does not use srkweak, timed between repetitions.

    The host flips between a fast and a slow state every few seconds
    and drifts over minutes, and a Python loop over 3x3 arrays plus
    elementwise work on a 25,000-element array slows down with the
    workloads.  Every time a run reports is scaled by REFERENCE_S /
    (mean probe time of the run).  Means, not medians, follow the share
    of time spent in each state.  The probe times are also the host
    record's noise probe.
    """

    #: typical probe time on the reference host (2 cores, Xeon, 2 MiB L2)
    REFERENCE_S = 0.035

    def __init__(self):
        rng = np.random.default_rng(0)
        self.small = rng.random((3, 3))
        self.x = rng.random(25_000)
        self.times = []

    def _once(self):
        start = perf_counter()
        ones = np.ones(3)
        acc = 0.0
        for i in range(3000):
            acc += float(np.asarray(self.small) * 0.5 @ ones @ ones)
            acc += {"k": i}["k"]
        x = self.x
        for _ in range(200):
            y = np.sqrt(x * x + 1.0)
            y = 0.5 * y + x
            np.isfinite(y).all()
        return perf_counter() - start

    def __call__(self):
        """Time the probe (median of 3) and record it."""
        self.times.append(statistics.median(self._once() for _ in range(3)))

    def scale(self):
        return self.REFERENCE_S / statistics.mean(self.times)


def git_commit():
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True,
                             timeout=SUBPROCESS_TIMEOUT)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def getconf(name):
    try:
        out = subprocess.run(["getconf", name], capture_output=True,
                             text=True, timeout=SUBPROCESS_TIMEOUT)
        return int(out.stdout)
    except (OSError, subprocess.TimeoutExpired, ValueError):
        return None


def host_record():
    import numpy
    import scipy
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "l2_bytes": getconf("LEVEL2_CACHE_SIZE"),
        "l3_bytes": getconf("LEVEL3_CACHE_SIZE"),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": git_commit(),
        "loadavg_start": os.getloadavg(),
    }


def _child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(TESTS)])
    return env


def setup_seconds(setup_code):
    """Median, over fresh interpreters, of importing srkweak and building
    the workload's problems and schemes."""
    code = ("import time\n"
            "start = time.perf_counter()\n"
            "import srkweak\n"
            + setup_code +
            "elapsed = time.perf_counter() - start\n"
            "assert srkweak.__file__.startswith(%r)\n"
            "print(repr(elapsed))\n" % str(SRC))
    times = []
    for _ in range(SETUP_RUNS):
        out = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                             env=_child_env(), capture_output=True, text=True,
                             timeout=SUBPROCESS_TIMEOUT, check=True)
        times.append(float(out.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


_IMPORTTIME = re.compile(r"import time:\s*\d+ \|\s*(\d+) \|\s*(\S+)")


def import_seconds():
    """Median cumulative import time of each srkweak module, from
    `python -X importtime`; a module's time includes the third-party
    modules it was first to import (scipy.stats under the estimator)."""
    samples = {m: [] for m in MODULES}
    for _ in range(IMPORT_RUNS):
        out = subprocess.run(
            [sys.executable, "-X", "importtime", "-c",
             "import srkweak, srkweak.cli"], cwd=ROOT, env=_child_env(),
            capture_output=True, text=True, timeout=SUBPROCESS_TIMEOUT,
            check=True)
        for line in out.stderr.splitlines():
            match = _IMPORTTIME.match(line)
            if match and match.group(2) in samples:
                samples[match.group(2)].append(int(match.group(1)) * 1e-6)
    return {"%s.import_s" % m: statistics.median(v)
            for m, v in samples.items()}


def latency_ms(latencies):
    """Median and 99th percentile of per-member latencies, in ms."""
    if not latencies:
        return 0.0, 0.0
    p99 = statistics.quantiles(latencies, n=100, method="inclusive")[98]
    return statistics.median(latencies) * 1e3, p99 * 1e3


def timed(wl):
    start = perf_counter()
    result = wl.run()
    return perf_counter() - start, result


def write_trace(path, spans_mod, spans):
    selfs = spans_mod.self_times(spans)
    rows = [{"id": s.sid, "name": s.name, "start": s.start, "end": s.end,
             "parent": s.parent, "group": s.group, "self": selfs[s.sid],
             "info": {k: v for k, v in s.info.items() if k != "tab"}}
            for s in spans]
    with open(path, "w") as fh:
        json.dump(rows, fh)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, for bench/smoke.py")
    args = parser.parse_args(argv)

    if not (SRC / "srkweak" / "__init__.py").is_file():
        return fail("no srkweak sources under %s" % SRC)
    if not (TESTS / "family_sampling.py").is_file():
        return fail("no family sampler under %s" % TESTS)
    sys.path[:0] = [str(SRC), str(TESTS)]
    import srkweak
    if not srkweak.__file__.startswith(str(SRC)):
        return fail("srkweak imported from %s, not %s"
                    % (srkweak.__file__, SRC))
    import spans as spans_mod
    import workloads

    if args.workload not in workloads.NAMES:
        return fail("unknown workload %r; known: %s"
                    % (args.workload, ", ".join(workloads.NAMES)))

    host = host_record()
    wl = workloads.make(args.workload, smoke=args.smoke)
    probe = SpeedProbe()
    probe()
    if args.trace:
        import_s = import_seconds()
    else:
        setup_s = setup_seconds(wl.setup_code)
    out_dir = OUT / ("%s-%d-%d" % (args.workload, args.seed, os.getpid()))
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        warm = workloads.make(args.workload, smoke=True)
        warm.prepare(args.seed, str(out_dir))
        warm.run()
        wl.prepare(args.seed, str(out_dir))

        walls, traced_walls, latencies = [], [], []
        layer_runs, checks = [], []
        first = None

        def keep(result):
            nonlocal first
            checks.extend(wl.check(result, first))
            if first is None:
                first = result

        deadline = perf_counter() + args.seconds
        probe()
        while True:
            wall, result = timed(wl)
            probe()
            walls.append(wall)
            keep(result)
            if isinstance(wl, workloads.Sweep):
                latencies += result[0]
            del result
            if args.trace:
                tracer = spans_mod.Tracer()
                with spans_mod.instrumented(
                        tracer, workloads,
                        wl if isinstance(wl, workloads.Sweep) else None):
                    wall, result = timed(wl)
                traced_walls.append(wall)
                keep(result)
                del result
                probe()
                layer_runs.append(spans_mod.layer_metrics(tracer.spans,
                                                          wl.threads))
                checks += spans_mod.cost_model_check(tracer.spans)
                checks.append((layer_runs[-1]["problems.calls_over_model"]
                               == 1.0, "problems.calls_over_model is not 1"))
            step = statistics.median(walls) + (
                statistics.median(traced_walls) if args.trace else 0.0)
            if len(walls) >= MIN_REPS and perf_counter() + step > deadline:
                break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss \
            / 1024.0
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    host["noise_probe_s"] = probe.times
    wall_s = statistics.mean(walls) * probe.scale()
    diverged_frac = wl.diverged(first) / wl.paths if wl.paths else 0.0
    failed = [msg for ok, msg in checks if not ok]

    if args.trace:
        metrics = spans_mod.median_metrics(layer_runs)
        metrics.update(import_s)
        metrics["estimator.diverged_frac"] = diverged_frac
        metrics["sweep.member_ms_p50"], metrics["sweep.member_ms_p99"] = \
            latency_ms(latencies)
        metrics["sweep.member_samples"] = len(latencies)
        metrics["trace.overhead_frac"] = \
            statistics.median(traced_walls) / statistics.median(walls) - 1.0
        metrics["host.noise_probe_s"] = statistics.median(probe.times)
        units = {k: per_layer_unit(k) for k in metrics}
        OUT.mkdir(exist_ok=True)
        write_trace(OUT / ("trace-%s-%d.json" % (args.workload, args.seed)),
                    spans_mod, tracer.spans)
    else:
        metrics = {"wall_s": wall_s, "work_per_s": wl.work / wall_s,
                   "setup_s": setup_s * probe.scale(),
                   "peak_rss_mb": peak_rss_mb}
        units = END_TO_END_UNITS

    print("%s seed=%d trace=%d repetitions=%d"
          % (args.workload, args.seed, args.trace, len(walls)))
    print("host %s" % json.dumps(host))
    print("repetition_walls_s %s" % json.dumps(walls))
    work_name = "tableaux_per_s" if isinstance(wl, workloads.Sweep) \
        else "path_steps_per_s"
    print("%s = %r 1/s" % (work_name, wl.work / wall_s))
    if latencies:
        print("member_ms_p50 = %r ms, member_ms_p99 = %r ms (%d members)"
              % (latency_ms(latencies) + (len(latencies),)))
    print("failed_frac = %r (%d of %d checks)"
          % (len(failed) / len(checks), len(failed), len(checks)))
    print("diverged_frac = %r" % diverged_frac)
    for name, value in metrics.items():
        print("%s = %r %s" % (name, value, units[name]))
    for msg in failed:
        print("check failed: %s" % msg, file=sys.stderr)
    print(json.dumps({
        "correct": not failed, "attempted": len(checks),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
