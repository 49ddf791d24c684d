"""The benchmark's self-test as part of the suite.

``perfbench/tracing.py`` wraps package functions and methods by name (for
example ``_Optimizer.step``, ``FrozenFactorStore.tera_entry`` and
``tera.training.tera_gradient``), and the workloads check their outputs on the
``kron`` materialization path. Renaming any of these breaks the benchmark
without failing a unit test, so the self-test runs here: tiny traced and
untraced runs of every workload, writing only to ``.bench_out/``.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_selftest():
    result = subprocess.run(
        [sys.executable, "perfbench/selftest.py"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert result.returncode == 0, result.stdout[-3000:] + result.stderr[-3000:]
