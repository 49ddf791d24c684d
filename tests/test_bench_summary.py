"""``tools/bench_summary.py`` on hand-made result files."""

import importlib.util
import json
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_summary.py"
spec = importlib.util.spec_from_file_location("bench_summary", TOOL)
bench_summary = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_summary)


def write_result(directory, seed, jobs_per_s, failed=0):
    directory.mkdir(exist_ok=True)
    doc = {
        "correct": failed == 0, "attempted": 10, "failed": failed,
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
    jobs = run["metrics"]["jobs_per_s"]
    assert jobs["parent"] == {"median": 3.5, "iqr": 1.5, "n": 4}
    assert jobs["change"]["median"] == 5.5
    assert (jobs["pairs"], jobs["change_wins"], jobs["better"]) == (4, 3, "higher")
    assert jobs["median_ratio"] == 5.5 / 3.5
    # lower is better for a latency: the same three pairs win
    assert run["metrics"]["job_ms_p50"]["change_wins"] == 3
