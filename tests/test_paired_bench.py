"""The summary and claim functions of tools/paired_bench.py, on made-up
numbers; nothing here starts a process or a benchmark run."""

import importlib.util
import json
import math
from pathlib import Path

import pytest

_SCRIPT = Path(__file__).resolve().parents[1] / "tools" / "paired_bench.py"
_spec = importlib.util.spec_from_file_location("paired_bench", _SCRIPT)
paired_bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(paired_bench)

BOUNDS = {"wall_s": ("lower", 0.25), "work_per_s": ("higher", 0.25),
          "setup_s": ("lower", 0.25), "peak_rss_mb": ("lower", 0.1)}


def test_quartiles_inclusive():
    got = paired_bench.quartiles([4.0, 1.0, 3.0, 2.0, 5.0])
    assert got == {"q1": 2.0, "median": 3.0, "q3": 4.0}
    assert paired_bench.quartiles([7.0]) == {"q1": 7.0, "median": 7.0,
                                             "q3": 7.0}


def test_compare_lower_is_better():
    parent = [10.0, 10.5, 9.5, 10.2, 9.8, 10.1, 9.9, 10.3, 9.7, 10.0]
    change = [p - 1.0 for p in parent]
    change[3] = 10.4  # one pair lost
    got = paired_bench.compare(parent, change, "lower", 0.25)
    assert got["pairs"] == 10 and got["change_wins"] == 9
    assert got["parent"]["median"] == 10.0
    assert got["beyond_parent_iqr"] and got["within_bound"]
    assert math.isclose(got["median_change_rel"],
                        got["change"]["median"] / 10.0 - 1.0)


def test_compare_higher_is_better_and_the_bound():
    parent = [100.0, 101.0, 99.0, 100.0]
    worse = [70.0, 71.0, 69.0, 70.0]  # 30% lower throughput
    got = paired_bench.compare(parent, worse, "higher", 0.25)
    assert got["change_wins"] == 0
    assert not got["beyond_parent_iqr"] and not got["within_bound"]
    better = [110.0, 111.0, 109.0, 110.0]
    got = paired_bench.compare(parent, better, "higher", 0.25)
    assert got["change_wins"] == 4 and got["beyond_parent_iqr"]
    assert got["within_bound"]
    # ties are not wins, and no bound gives no within_bound entry
    got = paired_bench.compare(parent, parent, "higher")
    assert got["change_wins"] == 0 and "within_bound" not in got


def test_compare_needs_paired_runs():
    with pytest.raises(ValueError):
        paired_bench.compare([1.0, 2.0], [1.0], "lower")
    with pytest.raises(ValueError):
        paired_bench.compare([], [], "lower")


@pytest.mark.parametrize("wins, pairs, beyond, verdict", [
    (9, 10, True, "PASS"), (10, 10, True, "PASS"), (8, 10, True, "FAIL"),
    (10, 10, False, "FAIL"), (4, 4, True, "PASS"), (3, 4, True, "FAIL"),
    (18, 20, True, "PASS"), (17, 20, True, "FAIL")])
def test_claim_verdict(wins, pairs, beyond, verdict):
    summary = {"change_wins": wins, "pairs": pairs,
               "beyond_parent_iqr": beyond}
    assert paired_bench.claim_verdict(summary) == verdict


def _run_text(wall, walls, probes, setup=0.2, rss=60.0, correct=True):
    host = {"nproc": 2, "python": "3.11.7", "noise_probe_s": probes}
    out = {"correct": correct, "attempted": 30, "failed": 0 if correct else 1,
           "metrics": {"wall_s": {"value": wall, "unit": "s"},
                       "work_per_s": {"value": 1e6 / wall, "unit": "1/s"},
                       "setup_s": {"value": setup, "unit": "s"},
                       "peak_rss_mb": {"value": rss, "unit": "MB"}}}
    return "\n".join([
        "nl16-serial seed=1 trace=0 repetitions=%d" % len(walls),
        "host %s" % json.dumps(host),
        "repetition_walls_s %s" % json.dumps(walls),
        "wall_s = %r s" % wall,
        json.dumps(out)])


def test_run_record_reads_a_run():
    text = _run_text(3.0, [2.0, 2.5, 3.5], [0.03, 0.05, 0.04], setup=0.3)
    rec = paired_bench.run_record(text, 7, "change", 1234)
    assert rec["seed"] == 7 and rec["side"] == "change" and rec["correct"]
    assert rec["minor_faults"] == 1234
    assert rec["metrics"]["wall_s"] == 3.0
    assert rec["raw_repetition_median_s"] == 2.5
    assert math.isclose(rec["probe_scale"], 3.0 / (8.0 / 3.0))
    assert math.isclose(rec["setup_s_unscaled"], 0.3 / rec["probe_scale"])
    assert rec["first_probe_s"] == 0.03
    assert math.isclose(rec["mean_probe_s"], 0.04)
    with pytest.raises(ValueError):
        paired_bench.run_record("wall_s = 3.0 s\n", 7, "change", 0)


def test_summarize_pairs_runs_by_seed():
    runs = []
    for i, seed in enumerate((11, 12, 13, 14)):
        for side, wall in (("parent", 3.0 + 0.01 * i),
                           ("change", 2.7 + 0.01 * i)):
            runs.append(paired_bench.run_record(
                _run_text(wall, [wall, wall], [0.035, 0.035]), seed, side,
                0))
    got = paired_bench.summarize(runs, BOUNDS)
    assert got["seeds"] == [11, 12, 13, 14] and got["all_runs_correct"]
    assert got["metrics"]["wall_s"]["change_wins"] == 4
    assert got["metrics"]["work_per_s"]["change_wins"] == 4
    assert got["metrics"]["setup_s"]["change_wins"] == 0
    assert got["raw_repetition_median_s"]["change_wins"] == 4
    assert set(got["mean_probe_s"]) == {"parent", "change"}
    assert len(got["runs"]) == 8
    with pytest.raises(ValueError):
        paired_bench.summarize(runs[:-1], BOUNDS)


def test_summarize_gives_quartiles_of_the_minor_faults():
    # the parent faulted its step arrays back in, the change did not
    runs = []
    for seed, faults in zip((1, 2, 3, 4, 5), (4, 1, 3, 5, 2)):
        for side, count in (("parent", 1_000_000 * faults),
                            ("change", 50_000 + faults)):
            runs.append(paired_bench.run_record(
                _run_text(3.0, [3.0, 3.0], [0.035, 0.035]), seed, side,
                count))
    got = paired_bench.summarize(runs, BOUNDS)["minor_faults"]
    assert got == {"parent": {"q1": 2e6, "median": 3e6, "q3": 4e6},
                   "change": {"q1": 50_002, "median": 50_003, "q3": 50_004}}


def test_rounded_keeps_six_significant_digits():
    got = paired_bench._rounded({"a": [1.23456789, math.inf], "b": 3,
                                 "c": (2.0000004e-5,)})
    assert got == {"a": [1.23457, math.inf], "b": 3, "c": [2e-5]}


def _paired_block(pairs):
    """A summarize() block from (seed, side, wall_s, raw walls[, setup_s,
    peak_rss_mb]) runs."""
    runs = [paired_bench.run_record(_run_text(wall, walls, [0.04, 0.04],
                                              *rest), seed, side, 0)
            for seed, side, wall, walls, *rest in pairs]
    return paired_bench.summarize(runs, BOUNDS)


def test_raw_agreement_names_the_pair_a_probe_flipped():
    # as in seed 1803 of BENCH_18.json: a slow probe phase scales the
    # change's wall_s far down although its raw repetitions were slower
    pairs = []
    for i, seed in enumerate(range(1801, 1811)):
        change = (1.96, [4.43] * 3) if seed == 1803 else \
            (3.1 + 0.01 * i, [3.76 + 0.01 * i] * 3)
        pairs += [(seed, "parent", 3.5 + 0.01 * i, [4.21 + 0.01 * i] * 3),
                  (seed, "change") + change]
    block = _paired_block(pairs)
    assert paired_bench.claim_verdict(block["metrics"]["wall_s"]) == "PASS"
    got = paired_bench.raw_agreement(block, "wall_s")
    assert got == {"raw_verdict": "PASS", "raw_agrees": True,
                   "raw_other_winner_seeds": [1803]}
    # a higher-is-better metric is read with its own sign
    got = paired_bench.raw_agreement(block, "work_per_s")
    assert got["raw_agrees"] and got["raw_other_winner_seeds"] == [1803]


def test_raw_agreement_when_the_raw_medians_do_not_back_the_claim():
    # the scaled wall_s wins every pair, the raw medians only half
    pairs = []
    for i, seed in enumerate(range(1, 11)):
        raw = 4.0 + (0.1 if i % 2 else -0.1)
        pairs += [(seed, "parent", 3.5, [4.0] * 3),
                  (seed, "change", 3.0 - 0.01 * i, [raw] * 3)]
    block = _paired_block(pairs)
    assert paired_bench.claim_verdict(block["metrics"]["wall_s"]) == "PASS"
    got = paired_bench.raw_agreement(block, "wall_s")
    assert got == {"raw_verdict": "FAIL", "raw_agrees": False,
                   "raw_other_winner_seeds": [2, 4, 6, 8, 10]}


@pytest.mark.parametrize("parent_faster", [
    lambda i: True, lambda i: i % 2 == 0], ids=["every", "alternate"])
def test_raw_agreement_takes_peak_rss_as_its_own_raw_value(parent_faster):
    # RSS is never probe-scaled, so the repetition walls, whichever side
    # they favour, neither back nor contradict an RSS claim
    pairs = []
    for i, seed in enumerate(range(1, 11)):
        raw = 3.0 + (0.1 if parent_faster(i) else -0.1)
        pairs += [(seed, "parent", 3.0, [3.0] * 3, 0.2, 61.2 + 0.01 * i),
                  (seed, "change", raw, [raw] * 3, 0.2, 44.6 + 0.01 * i)]
    block = _paired_block(pairs)
    assert paired_bench.claim_verdict(
        block["metrics"]["peak_rss_mb"]) == "PASS"
    got = paired_bench.raw_agreement(block, "peak_rss_mb")
    assert got == {"raw_verdict": "PASS", "raw_agrees": True,
                   "raw_other_winner_seeds": []}


def test_raw_agreement_judges_setup_by_its_unscaled_times():
    # the change's probe read fast (scale 0.8), so its scaled setup_s wins
    # every pair, but as measured it was slower in seeds 2, 4, ..., 10; the
    # raw repetition medians favour the change throughout
    pairs = []
    for i, seed in enumerate(range(1, 11)):
        setup = 0.2 * (0.82 if i % 2 else 0.78) * (1.0 - 0.001 * i)
        pairs += [(seed, "parent", 3.0, [3.0] * 3, 0.2),
                  (seed, "change", 2.32, [2.9] * 3, setup)]
    block = _paired_block(pairs)
    assert block["metrics"]["setup_s"]["change_wins"] == 10
    assert paired_bench.claim_verdict(block["metrics"]["setup_s"]) == "PASS"
    got = paired_bench.raw_agreement(block, "setup_s")
    assert got == {"raw_verdict": "FAIL", "raw_agrees": False,
                   "raw_other_winner_seeds": [2, 4, 6, 8, 10]}


def test_self_s_per_probe_divides_each_run_by_its_own_probe():
    # host phases slow the parent's runs 1x, 2x and 3x, layers and probe
    # alike; the step's own time per probe is 16, 12 and 20 probes.
    # Dividing by a probe time common to the runs would give 12
    def run(seed, side, scale, step):
        return {"seed": seed, "side": side, "metrics": {
            "integrator.srk_step.self_s": scale * step,
            "increments.draw.self_s": scale * 0.5,
            "integrator.srk_step.calls": 2800,
            "host.noise_probe_s": scale * 0.025}}
    runs = [run(1, "parent", 1.0, 0.4), run(1, "change", 1.0, 0.3),
            run(2, "change", 1.0, 0.3), run(2, "parent", 2.0, 0.3),
            run(3, "parent", 3.0, 0.5), run(3, "change", 1.0, 0.3)]
    got = paired_bench.self_s_per_probe(runs)
    assert set(got) == {"parent", "change"}
    assert set(got["parent"]) == {"integrator.srk_step.self_s",
                                  "increments.draw.self_s"}
    assert math.isclose(got["parent"]["integrator.srk_step.self_s"], 16.0)
    assert math.isclose(got["parent"]["increments.draw.self_s"], 20.0)
    assert math.isclose(got["change"]["integrator.srk_step.self_s"], 12.0)
