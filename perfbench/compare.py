"""Compare the end-to-end results of two benchmark result files.

    python3 perfbench/compare.py BASE.jsonl CHANGE.jsonl

Each file holds the records that ``run.py`` appends to
``perfbench/out/results.jsonl``; only untraced runs are read.  For every
workload and end-to-end metric it prints both sides' median and quartiles,
the ratio change/base, and a verdict under the bounds in BENCHMARK.json:

* ``worse``: the change's median is worse than the base's by more than the
  bound, or every change run is worse than every base run by that much.
* ``better``: every change run beats every base run, or the medians differ
  by more than the base's own quartile spread.
* ``unresolved``: either side's quartile spread exceeds the bound.
* ``unchanged``: none of the above.

Runs are not paired here, so ``better`` is necessary, not sufficient, for
claiming a gain: the claim also needs the change to win nine runs in ten
when base and change runs alternate.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(path):
    runs = {}
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            record = json.loads(line)
            if record["trace"] == 0:
                runs.setdefault(record["workload"], []).append(record["metrics"])
    return runs


def summary(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(base, change, bound, lower_is_better):
    sign = 1 if lower_is_better else -1
    b_q1, b_med, b_q3 = summary(base)
    c_q1, c_med, c_q3 = summary(change)
    loss = sign * (c_med - b_med) / b_med  # > 0: the change is worse
    if all(sign * (c - b) > bound * abs(b) for c in change for b in base):
        return "worse"
    if all(sign * (c - b) < 0 for c in change for b in base):
        return "better"
    if max((b_q3 - b_q1) / b_med, (c_q3 - c_q1) / c_med) > bound:
        return "unresolved"
    if loss > bound:
        return "worse"
    if -loss > (b_q3 - b_q1) / b_med:
        return "better"
    return "unchanged"


def main(argv=None):
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 1
    base, change = load(args[0]), load(args[1])
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["end_to_end"]
    print(f"{'workload':<15} {'metric':<13} {'base median [q1 q3]':>30} "
          f"{'change median [q1 q3]':>30} {'ratio':>7}  verdict")
    for workload in sorted(set(base) | set(change)):
        if workload not in base or workload not in change:
            print(f"{workload:<15} only in {'base' if workload in base else 'change'}")
            continue
        for m in declared:
            name = m["name"]
            b = [run[name]["value"] for run in base[workload]]
            c = [run[name]["value"] for run in change[workload]]
            b_q1, b_med, b_q3 = summary(b)
            c_q1, c_med, c_q3 = summary(c)
            result = verdict(b, c, m["bound"], m["better"] == "lower")
            base_col = f"{b_med:.5g} [{b_q1:.5g} {b_q3:.5g}]"
            change_col = f"{c_med:.5g} [{c_q1:.5g} {c_q3:.5g}]"
            print(
                f"{workload:<15} {name:<13} {base_col:>30} {change_col:>30} "
                f"{c_med / b_med:>7.3f}  {result} (n={len(b)}/{len(c)}, bound {m['bound']})"
            )
    return 0


if __name__ == "__main__":
    sys.exit(main())
