"""Pair benchmark runs of two commits and write a BENCH_<n>.json record.

    python tools/paired_bench.py --parent REV --change REV \\
        --workload nl16-serial --pairs 10 --seconds 30 --seed0 1801 \\
        --claim wall_s --out BENCH_18.json

Each side is exported with `git archive` into its own temporary
directory, so both run from the committed files only, as a fresh
checkout would.  Pair i runs bench/run.py, unchanged, once on each side
with seed seed0 + i, parent first when i is even and change first when
it is odd, so a drift of the host is shared out evenly.  With --trace,
one more pair runs with --trace 1 and its per-layer metrics go under
"traced_runs".

--aa pairs the parent with a second export of itself: its spread is the
noise floor that a claimed gain has to clear.

The record follows BENCH_14.json: per workload the quartiles of every
end-to-end metric on both sides, the pairs the change won, the raw
(unscaled) repetition medians, the speed-probe means, the minor page
faults of each run and every run.
--claim METRIC is judged by the rule "the change is better on at least
9 of 10 pairs (90% of them) and its median gain exceeds the parent's
quartile distance".  Next to that verdict the record states whether the
metric's unscaled values (the raw repetition medians for wall_s and
work_per_s, setup_s_unscaled for setup_s; peak_rss_mb is never scaled),
judged by the same rule, agree with it, and which pairs they call for
the other side: the scaled times depend on the speed probe, and one
slow probe phase can flip a pair.  The record also says whether every
line that tools/identity_hashes.py prints on the parent side recurs on
the change side (a hash recipe new in the change has no parent line).  Each invocation runs one workload;
writing to a file that already holds the same parent and change keeps
its other workloads.
"""

import argparse
import io
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
END_TO_END = ("wall_s", "work_per_s", "setup_s", "peak_rss_mb")
#: share of the pairs a claimed metric must win
CLAIM_WIN_SHARE = 0.9
RULE = ("change better on at least %d%% of the pairs (9 of 10) and the "
        "median gain larger than the parent's quartile distance"
        % round(100 * CLAIM_WIN_SHARE))
NOTES = {
    "scaling": "every *_s metric is scaled by probe_scale = wall_s / "
               "mean(repetition_walls_s) of its run, which bench/run.py "
               "takes from its speed probe; repetition_walls_s are raw",
    "setup_s_unscaled": "setup_s / probe_scale: the median of the fresh "
                        "interpreters as measured",
    "raw_repetition_median_s": "median of one run's raw repetition walls; "
                               "quartiles over the runs of a side",
    "probes": "mean_probe_s and first_probe_s are the mean and the first "
              "of a run's speed-probe times; the probe also reads heap "
              "state, so a change in memory use can move it and with it "
              "every scaled time",
    "quartiles": "statistics.quantiles(n=4, method='inclusive') over the "
                 "runs of a side",
    "raw_verdict": "the claim rule applied to the claimed metric's "
                   "unscaled values: raw_repetition_median_s for wall_s "
                   "and work_per_s, setup_s_unscaled for setup_s, and "
                   "peak_rss_mb itself, which is never scaled",
    "minor_faults": "the ru_minflt of RUSAGE_CHILDREN gained over one "
                    "bench/run.py run: the run itself and every process it "
                    "waited for, the 5 set-up interpreters that time "
                    "setup_s included",
}


def quartiles(values):
    """Return {q1, median, q3} of values (inclusive method)."""
    if len(values) == 1:
        return {"q1": values[0], "median": values[0], "q3": values[0]}
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": med, "q3": q3}


def compare(parent, change, better, bound=None):
    """Summarise one metric over paired runs.

    parent[i] and change[i] come from pair i; better is "lower" or
    "higher".  beyond_parent_iqr says whether the change's median is
    better than the parent's by more than the parent's quartile
    distance; within_bound whether it is worse by at most bound, a
    fraction of the parent's median.
    """
    if len(parent) != len(change) or not parent:
        raise ValueError("need the same number (> 0) of runs on each side")
    sign = 1.0 if better == "lower" else -1.0
    p, c = quartiles(parent), quartiles(change)
    gain = sign * (p["median"] - c["median"])
    out = {"better": better, "bound": bound, "parent": p, "change": c,
           "change_wins": sum(sign * (a - b) > 0
                              for a, b in zip(parent, change)),
           "pairs": len(parent),
           "median_change_rel": (c["median"] / p["median"] - 1.0
                                 if p["median"] else math.nan),
           "beyond_parent_iqr": gain > p["q3"] - p["q1"]}
    if bound is not None:
        out["within_bound"] = -gain <= bound * abs(p["median"])
    return out


def claim_verdict(summary):
    """PASS or FAIL of a claimed gain under RULE, from compare()."""
    wins_needed = math.ceil(CLAIM_WIN_SHARE * summary["pairs"] - 1e-9)
    ok = summary["change_wins"] >= wins_needed and \
        summary["beyond_parent_iqr"]
    return "PASS" if ok else "FAIL"


def _raw_value(run, metric):
    """The unscaled value of an end-to-end metric in one run, lower
    being better: the raw repetition median for wall_s and work_per_s,
    setup_s_unscaled for setup_s, and peak_rss_mb itself, which is not
    probe-scaled."""
    if metric == "peak_rss_mb":
        return run["metrics"][metric]
    return run["setup_s_unscaled" if metric == "setup_s"
               else "raw_repetition_median_s"]


def raw_agreement(block, metric):
    """Judge the unscaled values of a metric (_raw_value) in a workload
    block (from summarize()) by the claim rule, as the metric itself is
    judged; say whether the two verdicts agree and list the seeds of the
    pairs where the two pick different winners."""
    runs = {(r["seed"], r["side"]): r for r in block["runs"]}
    sign = 1.0 if block["metrics"][metric]["better"] == "lower" else -1.0
    raw = {"parent": [], "change": []}
    flipped = []
    for seed in block["seeds"]:
        p, c = runs[seed, "parent"], runs[seed, "change"]
        raw["parent"].append(_raw_value(p, metric))
        raw["change"].append(_raw_value(c, metric))
        won = sign * (p["metrics"][metric] - c["metrics"][metric]) > 0
        if won != (raw["parent"][-1] > raw["change"][-1]):
            flipped.append(seed)
    verdict = claim_verdict(block["metrics"][metric])
    raw_verdict = claim_verdict(compare(raw["parent"], raw["change"],
                                        "lower"))
    return {"raw_verdict": raw_verdict, "raw_agrees": raw_verdict == verdict,
            "raw_other_winner_seeds": flipped}


def parse_run(text):
    """Read the stdout of one bench/run.py run: the host record, the raw
    repetition walls and the closing JSON object."""
    host, walls, last = None, None, None
    for line in text.splitlines():
        if line.startswith("host "):
            host = json.loads(line[len("host "):])
        elif line.startswith("repetition_walls_s "):
            walls = json.loads(line[len("repetition_walls_s "):])
        elif line.startswith("{"):
            last = json.loads(line)
    if host is None or walls is None or last is None:
        raise ValueError("not the output of bench/run.py:\n%s" % text)
    return host, walls, last


def run_record(text, seed, side, minor_faults):
    """One run as stored in the record (end-to-end runs); minor_faults
    is what _bench counted for it."""
    host, walls, out = parse_run(text)
    metrics = {k: v["value"] for k, v in out["metrics"].items()}
    probes = host["noise_probe_s"]
    scale = metrics["wall_s"] / statistics.mean(walls)
    return {"seed": seed, "side": side, "correct": out["correct"],
            "checks": out["attempted"], "failed": out["failed"],
            "metrics": {k: metrics[k] for k in END_TO_END},
            "probe_scale": scale, "repetition_walls_s": walls,
            "raw_repetition_median_s": statistics.median(walls),
            "setup_s_unscaled": metrics["setup_s"] / scale,
            "first_probe_s": probes[0],
            "mean_probe_s": statistics.mean(probes),
            "minor_faults": minor_faults}


def summarize(runs, bounds):
    """The per-workload block of the record from its paired runs;
    bounds maps each end-to-end metric to (better, bound)."""
    side = {s: [r for r in runs if r["side"] == s]
            for s in ("parent", "change")}
    if [r["seed"] for r in side["parent"]] != \
            [r["seed"] for r in side["change"]]:
        raise ValueError("the runs are not paired by seed")
    metrics = {}
    for name in END_TO_END:
        better, bound = bounds[name]
        metrics[name] = compare(
            [r["metrics"][name] for r in side["parent"]],
            [r["metrics"][name] for r in side["change"]], better, bound)
    out = {"seeds": [r["seed"] for r in side["parent"]],
           "all_runs_correct": all(r["correct"] for r in runs),
           "metrics": metrics}
    for key in ("raw_repetition_median_s", "mean_probe_s", "first_probe_s",
                "setup_s_unscaled", "minor_faults"):
        out[key] = {s: quartiles([r[key] for r in side[s]]) for s in side}
    raw = compare([r["raw_repetition_median_s"] for r in side["parent"]],
                  [r["raw_repetition_median_s"] for r in side["change"]],
                  "lower")
    out["raw_repetition_median_s"]["change_wins"] = raw["change_wins"]
    out["runs"] = runs
    return out


def _rounded(obj, digits=6):
    """obj with every float rounded to digits significant digits."""
    if isinstance(obj, float):
        return float("%.*g" % (digits, obj)) if math.isfinite(obj) else obj
    if isinstance(obj, dict):
        return {k: _rounded(v, digits) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_rounded(v, digits) for v in obj]
    return obj


def _git(*args, **kw):
    return subprocess.run(["git", *args], cwd=ROOT, check=True,
                          capture_output=True, **kw).stdout


def export(rev, dest):
    """Write the committed files of rev into dest; return the commit."""
    commit = _git("rev-parse", "--verify", rev + "^{commit}",
                  text=True).strip()
    with tarfile.open(fileobj=io.BytesIO(_git("archive", commit))) as tar:
        tar.extractall(dest, filter="data")
    return commit


def _bench(tree, workload, seed, seconds, trace):
    """Run bench/run.py once in tree; return its standard output and the
    minor page faults of the run and of the processes it waited for."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", repr(seconds),
           "--trace", str(trace)]
    before = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt
    out = subprocess.run(cmd, cwd=tree, capture_output=True, text=True,
                         timeout=10 * seconds + 600)
    faults = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt - before
    if out.returncode != 0:
        raise SystemExit("%s failed in %s:\n%s" % (" ".join(cmd), tree,
                                                    out.stderr))
    return out.stdout, faults


def _identity(tree):
    out = subprocess.run([sys.executable, "tools/identity_hashes.py"],
                         cwd=tree, capture_output=True, text=True,
                         timeout=1800)
    return out.stdout.splitlines() if out.returncode == 0 else None


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True)
    ap.add_argument("--change")
    ap.add_argument("--aa", action="store_true",
                    help="pair the parent with a second copy of itself")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--seed0", type=int, required=True)
    ap.add_argument("--claim", help="end-to-end metric claimed better")
    ap.add_argument("--trace", action="store_true",
                    help="add one traced pair for the per-layer metrics")
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    if args.aa == bool(args.change):
        ap.error("give exactly one of --change and --aa")
    if args.claim is not None and args.claim not in END_TO_END:
        ap.error("--claim must be one of %s" % ", ".join(END_TO_END))
    if args.pairs < 1:
        ap.error("--pairs must be >= 1")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: (m["better"], m["bound"])
              for m in spec["end_to_end"]}

    with tempfile.TemporaryDirectory(prefix="paired-bench-") as tmp:
        trees = {s: os.path.join(tmp, s) for s in ("parent", "change")}
        revs = {"parent": export(args.parent, trees["parent"]),
                "change": export(args.parent if args.aa else args.change,
                                 trees["change"])}
        out_path = Path(args.out)
        record = json.loads(out_path.read_text()) \
            if out_path.exists() else {}
        if record.get("revs") not in (None, revs) or \
                record.get("aa", args.aa) != args.aa:
            raise SystemExit("%s holds other commits; choose another --out"
                             % out_path)
        record.update({
            "what": "paired end-to-end runs of %s (parent) and %s (%s)"
                    % (revs["parent"][:7], revs["change"][:7],
                       "a second copy of it" if args.aa else "change"),
            "revs": revs, "aa": args.aa,
            "command": "python3 bench/run.py --workload <name> --seed "
                       "<seed> --seconds %g --trace 0" % args.seconds,
            "seconds": args.seconds, "trace": 0,
            "pairing": "one parent run and one change run per seed, each "
                       "from its own git-archive export, alternating which "
                       "side runs first (first pair: parent first); pairs "
                       "run back to back",
            "notes": NOTES})
        record.setdefault("workloads", {})

        def save():
            out_path.write_text(json.dumps(_rounded(record), indent=1)
                                + "\n")

        wl, order = args.workload, (("parent", "change"), ("change", "parent"))
        runs = []
        for i in range(args.pairs):
            seed = args.seed0 + i
            for side in order[i % 2]:
                text, faults = _bench(trees[side], wl, seed, args.seconds, 0)
                runs.append(run_record(text, seed, side, faults))
                record.setdefault("host", {
                    k: v for k, v in parse_run(text)[0].items()
                    if k not in ("git_commit", "loadavg_start",
                                 "noise_probe_s")})
            print("%s pair %d/%d done" % (wl, i + 1, args.pairs),
                  file=sys.stderr, flush=True)
        record["workloads"][wl] = summarize(runs, bounds)
        save()
        if args.trace:
            seed = args.seed0 + args.pairs
            record["traced_runs"] = {
                "command": "python3 bench/run.py --workload %s --seed %d "
                           "--seconds %g --trace 1" % (wl, seed, args.seconds)}
            for side in order[0]:
                out = parse_run(_bench(trees[side], wl, seed, args.seconds,
                                       1)[0])[2]
                record["traced_runs"][side] = {
                    k: v["value"] for k, v in out["metrics"].items()}
        if args.claim is not None:
            summary = record["workloads"][wl]["metrics"][args.claim]
            record["claim"] = {
                "workload": wl, "metric": args.claim, "rule": RULE,
                "change_wins": summary["change_wins"],
                "pairs": summary["pairs"],
                "median_change_rel": summary["median_change_rel"],
                "verdict": claim_verdict(summary),
                **raw_agreement(record["workloads"][wl], args.claim)}
        hashes = {s: _identity(trees[s]) for s in trees}
        record["identity_hashes"] = {
            "parent": hashes["parent"], "change": hashes["change"],
            # every parent line recurs; a recipe the parent lacks is new
            "equal": None not in hashes.values()
            and set(hashes["parent"]) <= set(hashes["change"])}
        save()
    return 0


if __name__ == "__main__":
    sys.exit(main())
