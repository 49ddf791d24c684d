"""Summarize paired benchmark runs of two checkouts into one JSON file.

Each checkout runs ``perfbench/run.py`` with the same seeds, which leaves one
``result_<workload>_seed<N>_trace<T>.json`` per run in its ``.bench_out/``.
Given the two directories, this writes, per workload, each side's counts of
attempted and failed jobs and, per metric, the median, the interquartile
range and the count of each side, and for the end-to-end metrics the seeds
both sides ran: how many of those pairs the change won, the ratio of the
medians and a ``verdict`` (see ``verdict``). The
environment block of the runs is copied in as recorded, and ``source_size``
holds the line, byte and code-line counts of ``src/tera/*.py`` in each
checkout that has one (the directory holding its ``.bench_out/``). Usage,
from the root of a checkout:

    python3 tools/bench_summary.py PARENT/.bench_out CHANGE/.bench_out --out BENCH.json
"""

import argparse
import ast
import io
import json
import statistics
import sys
import tokenize
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load_runs(directory):
    """``{(workload, trace): {seed: result}}`` from one ``.bench_out/``."""
    runs = {}
    for path in sorted(Path(directory).glob("result_*_seed*_trace*.json")):
        doc = json.loads(path.read_text())
        d = doc["details"]
        runs.setdefault((d["workload"], d["trace"]), {})[d["seed"]] = doc
    if not runs:
        raise SystemExit(f"error: no result files in {directory}")
    return runs


def code_lines(source):
    """The lines of Python ``source`` that hold code: not blank, and not
    only a comment or a string statement (a docstring)."""
    strings = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Expr) and isinstance(getattr(node.value, "value", None), str):
            strings.update(range(node.lineno, node.end_lineno + 1))
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in (tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
                            tokenize.DEDENT, tokenize.ENDMARKER):
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(code - strings)


def source_size(directory):
    """``{"lines", "bytes", "code_lines"}`` of ``src/tera/*.py`` in the
    checkout that holds the ``.bench_out/`` ``directory``, or None when it
    has no such files."""
    files = list((Path(directory).resolve().parent / "src" / "tera").glob("*.py"))
    if not files:
        return None
    texts = [p.read_bytes() for p in files]
    return {"lines": sum(t.count(b"\n") for t in texts), "bytes": sum(map(len, texts)),
            "code_lines": sum(code_lines(t.decode()) for t in texts)}


def spread(values):
    """Median, interquartile range and count."""
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    else:
        q1 = q3 = values[0]
    return {"median": statistics.median(values), "iqr": q3 - q1, "n": len(values)}


def verdict(entry, parent, change, bound, failed):
    """``gain``, ``worse``, ``unresolved`` or ``no_worse`` for one
    end-to-end metric, from its summary ``entry``, each side's runs and
    each side's share of its attempted jobs that failed (``failed``).

    ``gain``: the change failed no larger a share of its jobs than the
    parent (a faster change attempts more), won at least
    nine tenths of the pairs (ties count for neither) and its median is
    better than the parent's by more than the parent's interquartile
    range. ``worse``: its median is worse than
    the parent's by more than ``bound`` times the parent's median.
    ``unresolved``: either side's interquartile range is wider than that
    bound, unless every run of the change is better than every run of the
    parent. ``no_worse`` otherwise.
    """
    sign = 1 if entry["better"] == "higher" else -1
    base = entry["parent"]["median"]
    gap = sign * (entry["change"]["median"] - base)
    limit = bound * abs(base)
    if (entry["change_wins"] >= 0.9 * entry["pairs"] > 0 and gap > entry["parent"]["iqr"]
            and failed["change"] <= failed["parent"]):
        return "gain"
    if -gap > limit:
        return "worse"
    spread = max(entry["parent"]["iqr"], entry["change"]["iqr"])
    separated = min(sign * c for c in change) > max(sign * p for p in parent)
    if spread > limit and not separated:
        return "unresolved"
    return "no_worse"


def summarize(parent, change, better):
    """One workload and trace: every metric both sides report; ``better``
    maps the end-to-end metrics to their ``BENCHMARK.json`` entries."""
    names = sorted(set.intersection(*(set(doc["metrics"]) for side in (parent, change)
                                      for doc in side.values())))
    sides = {"parent": parent, "change": change}
    out = {key: {side: sum(d[key] for d in runs.values()) for side, runs in sides.items()}
           for key in ("attempted", "failed")}
    out["metrics"] = {}
    shares = {side: out["failed"][side] / max(out["attempted"][side], 1) for side in sides}
    for name in names:
        values = [{seed: d["metrics"][name]["value"] for seed, d in side.items()}
                  for side in (parent, change)]
        entry = {"unit": next(iter(parent.values()))["metrics"][name]["unit"],
                 "parent": spread(list(values[0].values())),
                 "change": spread(list(values[1].values()))}
        if name in better:
            sign = 1 if better[name]["better"] == "higher" else -1
            seeds = sorted(set(parent) & set(change))
            entry["better"] = better[name]["better"]
            entry["pairs"] = len(seeds)
            entry["change_wins"] = sum(
                sign * (values[1][s] - values[0][s]) > 0 for s in seeds)
            base = entry["parent"]["median"]
            entry["median_ratio"] = entry["change"]["median"] / base if base else None
            entry["verdict"] = verdict(entry, list(values[0].values()),
                                       list(values[1].values()), better[name]["bound"],
                                       shares)
        out["metrics"][name] = entry
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", help=".bench_out/ of the parent checkout")
    parser.add_argument("change", help=".bench_out/ of the changed checkout")
    parser.add_argument("--out", required=True, help="JSON file to write")
    args = parser.parse_args(argv)
    better = {m["name"]: m for m in json.loads(BENCHMARK.read_text())["end_to_end"]}
    parent, change = load_runs(args.parent), load_runs(args.change)
    first = next(iter(next(iter(change.values())).values()))
    doc = {
        "command": "python3 perfbench/run.py --workload W --seed N "
                   f"--seconds {first['details']['seconds']:g} --trace T",
        "environment": first["details"]["environment"],
        "workloads": {},
    }
    sizes = {side: source_size(getattr(args, side)) for side in ("parent", "change")}
    doc["source_size"] = {side: size for side, size in sizes.items() if size}
    for key in sorted(set(parent) & set(change)):
        workload, trace = key
        doc["workloads"].setdefault(workload, {})[f"trace{trace}"] = summarize(
            parent[key], change[key], better if trace == 0 else {})
    with open(args.out, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True, allow_nan=False)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
