"""``tools/bench_summary.py`` on hand-made result files."""

import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_summary.py"
spec = importlib.util.spec_from_file_location("bench_summary", TOOL)
bench_summary = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_summary)


def write_result(directory, seed, jobs_per_s, failed=0, attempted=10):
    directory.mkdir(exist_ok=True)
    doc = {
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {"jobs_per_s": {"value": jobs_per_s, "unit": "1/s"},
                    "job_ms_p50": {"value": 1000 / jobs_per_s, "unit": "ms"}},
        "details": {"workload": "recovery_sweep", "seed": seed, "trace": 0,
                    "seconds": 28.0, "environment": {"numpy": "x"}},
    }
    (directory / f"result_recovery_sweep_seed{seed}_trace0.json").write_text(json.dumps(doc))


def test_medians_iqr_and_pair_wins(tmp_path):
    parent, change = tmp_path / "parent", tmp_path / "change"
    for seed, (p, c) in enumerate([(2.0, 5.0), (3.0, 6.0), (4.0, 3.0), (5.0, 8.0)]):
        write_result(parent, seed, p)
        write_result(change, seed, c, failed=int(seed == 0))
    out = tmp_path / "BENCH.json"
    assert bench_summary.main([str(parent), str(change), "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["environment"] == {"numpy": "x"}
    run = doc["workloads"]["recovery_sweep"]["trace0"]
    assert run["failed"] == {"parent": 0, "change": 1}
    assert run["attempted"] == {"parent": 40, "change": 40}
    jobs = run["metrics"]["jobs_per_s"]
    assert jobs["parent"] == {"median": 3.5, "iqr": 1.5, "n": 4}
    assert jobs["change"]["median"] == 5.5
    assert (jobs["pairs"], jobs["change_wins"], jobs["better"]) == (4, 3, "higher")
    assert jobs["median_ratio"] == 5.5 / 3.5
    # lower is better for a latency: the same three pairs win
    assert run["metrics"]["job_ms_p50"]["change_wins"] == 3


def test_source_size_of_each_checkout(tmp_path):
    # the parent checkout has src/tera, the change's bench directory stands alone
    parent, change = tmp_path / "parent" / ".bench_out", tmp_path / "change"
    (tmp_path / "parent").mkdir()
    package = tmp_path / "parent" / "src" / "tera"
    package.mkdir(parents=True)
    # 8 lines, 4 of them code: a docstring, a blank line and a comment are not
    (package / "a.py").write_bytes(b'"""A\nmodule."""\n\n# note\nx = (1 +  # one\n'
                                   b'     2)\ny = """two\nlines"""\n')
    (package / "b.py").write_bytes(b"z = 3\n")
    (package / "notes.txt").write_bytes(b"not counted\n")
    write_result(parent, 0, 2.0)
    write_result(change, 0, 2.0)
    out = tmp_path / "BENCH.json"
    assert bench_summary.main([str(parent), str(change), "--out", str(out)]) == 0
    assert json.loads(out.read_text())["source_size"] == {
        "parent": {"lines": 9, "bytes": 74, "code_lines": 5}}


def entry(parent, change, better="higher"):
    """A summary entry as ``summarize`` builds it, pairing runs by index."""
    sign = 1 if better == "higher" else -1
    return {"better": better, "pairs": len(parent),
            "change_wins": sum(sign * (c - p) > 0 for p, c in zip(parent, change)),
            "parent": bench_summary.spread(parent), "change": bench_summary.spread(change)}


PARENT = [10.0, 10.1, 9.9, 10.0, 10.2, 9.8, 10.0, 10.1, 9.9, 10.0]
NONE_FAILED = {"parent": 0, "change": 0}


@pytest.mark.parametrize("change, better, bound, want", [
    # every pair won, median 10% up against an IQR of 0.15: a gain
    ([x * 1.1 for x in PARENT], "higher", 0.25, "gain"),
    # 8 of 10 pairs won: not a gain, but within the bound
    ([x * 1.1 for x in PARENT[:8]] + [x * 0.99 for x in PARENT[8:]], "higher", 0.25,
     "no_worse"),
    # every pair won but the medians 0.1 apart, inside the parent's IQR
    ([x + 0.01 for x in PARENT], "higher", 0.25, "no_worse"),
    # 30% down on a 25% bound
    ([x * 0.7 for x in PARENT], "higher", 0.25, "worse"),
    # a latency 30% up is worse, 30% down a gain
    ([x * 1.3 for x in PARENT], "lower", 0.25, "worse"),
    ([x * 0.7 for x in PARENT], "lower", 0.25, "gain"),
    # a spread wider than a 1% bound, the runs interleaved: unresolved
    ([x + (0.5 if i % 2 else -0.5) for i, x in enumerate(PARENT)], "higher", 0.01,
     "unresolved"),
    # ... but every change run above every parent run: resolved
    ([x + 0.5 for x in PARENT], "lower", 0.01, "worse"),
    ([9.0, 8.5, 9.5, 9.0, 8.6, 9.4, 9.0, 8.7, 9.3, 9.0], "lower", 0.01, "gain"),
])
def test_verdicts(change, better, bound, want):
    assert bench_summary.verdict(entry(PARENT, change, better), PARENT, change, bound,
                                 NONE_FAILED) == want


def test_no_gain_when_the_change_failed_a_larger_share():
    change = [x * 1.1 for x in PARENT]
    e = entry(PARENT, change)
    assert bench_summary.verdict(e, PARENT, change, 0.25, {"parent": 0, "change": 0.1}) \
        == "no_worse"
    assert bench_summary.verdict(e, PARENT, change, 0.25, {"parent": 0.2, "change": 0.2}) \
        == "gain"


def test_a_change_above_every_parent_run_is_resolved():
    # a wide parent spread and a change just above its best run: every pair
    # won, but the medians are closer than the parent's IQR
    parent = [1.0, 9.0, 9.5, 9.6, 9.7, 9.8, 9.9, 9.9, 10.0, 10.0]
    change = [10.1] * 10
    e = entry(parent, change)
    assert e["change"]["median"] - e["parent"]["median"] < e["parent"]["iqr"]
    assert bench_summary.verdict(e, parent, change, 0.01, NONE_FAILED) == "no_worse"
    below = [10.1] * 9 + [9.95]
    assert bench_summary.verdict(entry(parent, below), parent, below, 0.01,
                                 NONE_FAILED) == "unresolved"


def test_every_end_to_end_metric_gets_a_verdict(tmp_path):
    parent, change = tmp_path / "parent", tmp_path / "change"
    for seed in range(10):
        write_result(parent, seed, 2.0 + 0.01 * seed)
        write_result(change, seed, 2.4 + 0.01 * seed)
    out = tmp_path / "BENCH.json"
    bench_summary.main([str(parent), str(change), "--out", str(out)])
    metrics = json.loads(out.read_text())["workloads"]["recovery_sweep"]["trace0"]["metrics"]
    assert metrics["jobs_per_s"]["verdict"] == "gain"
    assert metrics["job_ms_p50"]["verdict"] == "gain"
    # one failed job on the change's side takes the gain away
    write_result(change, 0, 2.4, failed=1)
    bench_summary.main([str(parent), str(change), "--out", str(out)])
    metrics = json.loads(out.read_text())["workloads"]["recovery_sweep"]["trace0"]["metrics"]
    assert metrics["jobs_per_s"]["verdict"] == "no_worse"


def test_the_same_failed_share_of_more_jobs_keeps_the_gain(tmp_path):
    # a faster change attempts twice the jobs: 2 of 200 failed is the
    # parent's 1 of 100, though the count doubled; a third failure is not
    parent, change = tmp_path / "parent", tmp_path / "change"
    for seed in range(10):
        write_result(parent, seed, 2.0 + 0.01 * seed, failed=int(seed == 0))
        write_result(change, seed, 2.4 + 0.01 * seed, failed=2 * int(seed == 0), attempted=20)
    out = tmp_path / "BENCH.json"

    def summary():
        bench_summary.main([str(parent), str(change), "--out", str(out)])
        return json.loads(out.read_text())["workloads"]["recovery_sweep"]["trace0"]

    run = summary()
    assert (run["failed"], run["attempted"]) == ({"parent": 1, "change": 2},
                                                 {"parent": 100, "change": 200})
    assert run["metrics"]["jobs_per_s"]["verdict"] == "gain"
    write_result(change, 1, 2.41, failed=1, attempted=20)
    assert summary()["metrics"]["jobs_per_s"]["verdict"] == "no_worse"
