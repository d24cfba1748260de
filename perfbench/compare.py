"""Spread of one set of benchmark runs, and comparison of two sets.

    python3 perfbench/compare.py spread RUNS_DIR
    python3 perfbench/compare.py compare PARENT_DIR CHANGE_DIR

A runs directory holds the captured standard output of ``run.py``, one file
per run.  Runs are grouped by the workload named in their header line and
ordered by file name; ``compare`` pairs the i-th parent run of a workload
with its i-th change run, so name the files in the order the pairs ran
(alternating which side runs first).  Traced runs are ignored.

``spread`` prints, per workload and end-to-end metric, the median, the
quartiles and the distance between the quartiles as a share of the median,
against the metric's bound in ``BENCHMARK.json``.

``compare`` prints one row per workload and metric:

* ``gain``: at least 10 pairs, the change wins at least nine tenths of them
  (ties count for neither side), and the medians differ, in the change's
  favour, by more than the parent's interquartile distance;
* ``unresolved``: either side's interquartile distance exceeds the bound and
  not every change run beats every parent run;
* ``regressed``: the change's median is worse than the parent's by more
  than the bound;
* ``no regression`` otherwise.

The exit code is 1 when any row regressed.
"""

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MIN_PAIRS = 10
WIN_SHARE = 0.9


def load_runs(directory) -> dict:
    """{workload: [metrics, ...]} of the untraced runs, in file-name order."""
    runs = {}
    for path in sorted(Path(directory).iterdir()):
        if not path.is_file():
            continue
        lines = path.read_text().strip().splitlines()
        header = next((line for line in lines
                       if line.startswith("perfbench workload=")), None)
        if header is None:
            continue
        fields = dict(part.split("=", 1) for part in header.split()[1:])
        if fields.get("trace") != "0":
            continue
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            print(f"skipping {path}: no result line", file=sys.stderr)
            continue
        values = {name: entry["value"]
                  for name, entry in result["metrics"].items()}
        runs.setdefault(fields["workload"], []).append(values)
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def relative_spread(values) -> float:
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else float("inf")


def classify_pair(parent, change, better: str, bound: float):
    """(status, change wins, pairs) for one workload and metric."""
    sign = 1 if better == "lower" else -1
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (p - c) > 0)
    p1, pmed, p3 = quartiles(parent)
    _, cmed, _ = quartiles(change)
    gap = sign * (pmed - cmed)  # positive when the change is better
    if len(pairs) >= MIN_PAIRS and wins >= WIN_SHARE * len(pairs) \
            and gap > p3 - p1:
        return "gain", wins, len(pairs)
    all_better = all(sign * (p - c) > 0 for p in parent for c in change)
    if max(relative_spread(parent), relative_spread(change)) > bound \
            and not all_better:
        return "unresolved", wins, len(pairs)
    if -gap > bound * abs(pmed):
        return "regressed", wins, len(pairs)
    return "no regression", wins, len(pairs)


def _fmt(values):
    q1, q2, q3 = quartiles(values)
    return f"{q2:.6g} [{q1:.6g}, {q3:.6g}]"


def spread(directory, metrics) -> int:
    runs = load_runs(directory)
    print(f"{'workload':10} {'metric':16} {'n':>3} {'median [q1, q3]':38} "
          f"{'spread':>8} {'bound':>6}  status")
    for workload, values in sorted(runs.items()):
        for metric in metrics:
            series = [v[metric["name"]] for v in values]
            share = relative_spread(series)
            bound = metric["bound"]
            status = ("steady" if share <= bound / 3 else
                      "within bound" if share <= bound else "too wide")
            print(f"{workload:10} {metric['name']:16} {len(series):>3} "
                  f"{_fmt(series):38} {share:8.4f} {bound:6.3f}  {status}")
    return 0


def compare(parent_dir, change_dir, metrics) -> int:
    parent_runs, change_runs = load_runs(parent_dir), load_runs(change_dir)
    regressed = False
    print(f"{'workload':10} {'metric':16} {'parent median [q1, q3]':38} "
          f"{'change median [q1, q3]':38} {'wins':>7}  status")
    for workload in sorted(set(parent_runs) | set(change_runs)):
        parent = parent_runs.get(workload, [])
        change = change_runs.get(workload, [])
        if not parent or not change:
            print(f"{workload:10} missing runs: parent {len(parent)}, "
                  f"change {len(change)}")
            continue
        for metric in metrics:
            name = metric["name"]
            p = [v[name] for v in parent]
            c = [v[name] for v in change]
            status, wins, pairs = classify_pair(p, c, metric["better"],
                                                metric["bound"])
            regressed |= status == "regressed"
            print(f"{workload:10} {name:16} {_fmt(p):38} {_fmt(c):38} "
                  f"{wins:>3}/{pairs:<3}  {status}")
    return 1 if regressed else 0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    with open(ROOT / "BENCHMARK.json") as fh:
        metrics = json.load(fh)["end_to_end"]
    if len(argv) == 2 and argv[0] == "spread":
        return spread(argv[1], metrics)
    if len(argv) == 3 and argv[0] == "compare":
        return compare(argv[1], argv[2], metrics)
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())
