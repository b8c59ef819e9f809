"""Smoke test of the benchmark at tiny sizes.

    python3 bench/smoke.py

Runs every workload of BENCHMARK.json with --smoke, untraced and
traced, and checks that

  - the last output line holds exactly correct, attempted, failed and
    metrics, with every check passed;
  - the metrics are exactly the end_to_end (untraced) or per_layer
    (traced) metrics of BENCHMARK.json, each with its unit;
  - in the span tree of the traced run every child lies inside its
    parent, and each span's self time plus the time its children cover
    equals its duration; on one thread children never overlap, so the
    time they cover is the sum of their durations.

Prints each problem found and exits 1 if there is any.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
EPS = 1e-9


def covered(intervals):
    """Length of the union of intervals."""
    total, end = 0.0, float("-inf")
    for a, b in sorted(intervals):
        total += max(0.0, b - max(a, end))
        end = max(end, b)
    return total


def span_problems(path, threads):
    with open(path) as fh:
        spans = json.load(fh)
    problems = []
    if not spans:
        return ["%s holds no spans" % path.name]
    kids = {}
    for s in spans:
        kids.setdefault(s["parent"], []).append(s)
    for s in spans:
        dur = s["end"] - s["start"]
        children = kids.get(s["id"], [])
        for c in children:
            if c["start"] < s["start"] - EPS or c["end"] > s["end"] + EPS:
                problems.append("%s span %d outside its parent %s %d"
                                % (c["name"], c["id"], s["name"], s["id"]))
        union = covered([(c["start"], c["end"]) for c in children])
        total = sum(c["end"] - c["start"] for c in children)
        if threads == 1 and abs(total - union) > EPS:
            problems.append("children of %s span %d overlap on one thread"
                            % (s["name"], s["id"]))
        if s["self"] < -EPS or abs(s["self"] + union - dur) > EPS:
            problems.append("%s span %d: self %r + children %r != %r"
                            % (s["name"], s["id"], s["self"], union, dur))
    return problems


def main():
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"),
                    str(ROOT / "bench")]
    import workloads

    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    problems = []
    seed = 3
    for wl in spec["workloads"]:
        name = wl["name"]
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            where = "%s --trace %d" % (name, trace)
            out = subprocess.run(
                [sys.executable, "bench/run.py", "--workload", name,
                 "--seed", str(seed), "--seconds", "1", "--trace",
                 str(trace), "--smoke"], cwd=ROOT, capture_output=True,
                text=True, timeout=180)
            if out.returncode != 0:
                problems.append("%s exited %d: %s"
                                % (where, out.returncode, out.stderr))
                continue
            result = json.loads(out.stdout.strip().splitlines()[-1])
            if sorted(result) != ["attempted", "correct", "failed",
                                  "metrics"]:
                problems.append("%s result keys %s" % (where, sorted(result)))
            if not (result["correct"] and result["failed"] == 0
                    and result["attempted"] >= 1):
                problems.append("%s failed checks: %s" % (where, out.stderr))
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != want:
                problems.append("%s metrics differ from BENCHMARK.json: "
                                "missing %s, extra %s, units %s"
                                % (where, sorted(set(want) - set(got)),
                                   sorted(set(got) - set(want)),
                                   {k: (got[k], want[k]) for k in got
                                    if k in want and got[k] != want[k]}))
            if trace:
                problems += span_problems(
                    ROOT / ".bench_out" / ("trace-%s-%d.json" % (name, seed)),
                    workloads.make(name).threads)
    for p in problems:
        print("smoke: %s" % p)
    print("smoke: %s" % ("FAIL" if problems else "ok"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
