"""Compare two sets of benchmark results, workload by workload.

    python3 perfbench/compare.py BEFORE_DIR AFTER_DIR

Each directory holds the result files ``run.py`` writes
(``<workload>-seed<N>-trace0.json``, normally copied out of
``.perfbench/results``): runs of the parent commit in BEFORE_DIR and of
the change in AFTER_DIR, with the same seeds.  Runs are paired by seed.
For every end-to-end metric of ``BENCHMARK.json`` and every workload the
pairing is reported as:

``better``
    the change wins at least 9 of 10 pairs (ties count for neither) and
    the medians differ by more than the parent's own interquartile range;
``worse``
    the change's median is worse than the parent's by more than the
    metric's bound (a share of the parent's median);
``unresolved``
    the parent's own spread is wider than the bound, so "no worse than
    the bound" cannot be shown, and the change did not beat every parent
    run;
``same``
    none of the above: no gain shown and no regression beyond the bound.

The exit code is 1 when any pairing is ``worse``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WIN_SHARE = 0.9
MIN_PAIRS = 10


def load(folder: Path) -> dict[str, dict[int, dict]]:
    """``{workload: {seed: metrics}}`` of the untraced results in *folder*."""
    runs: dict[str, dict[int, dict]] = {}
    for path in sorted(folder.glob("*-trace0.json")):
        result = json.loads(path.read_text())
        runs.setdefault(result["workload"], {})[result["seed"]] = result["metrics"]
    return runs


def iqr(values: list[float]) -> float:
    if len(values) < 2:
        return float("inf")
    low, _, high = statistics.quantiles(values, n=4)
    return high - low


def classify(before: list[float], after: list[float], bound: float,
             higher_is_better: bool) -> tuple[str, dict]:
    """Label one workload x metric pairing; *before*/*after* are paired."""
    sign = 1.0 if higher_is_better else -1.0
    wins = sum(1 for b, a in zip(before, after) if sign * (a - b) > 0)
    base, new = statistics.median(before), statistics.median(after)
    spread = iqr(before)
    detail = {
        "pairs": len(before), "wins": wins, "before": base, "after": new,
        "change": (new - base) / base if base else float("nan"),
        "parent_spread": spread / base if base else float("nan"),
    }
    if wins >= WIN_SHARE * len(before) and sign * (new - base) > spread:
        return "better", detail
    if base and sign * (new - base) < -bound * abs(base):
        return "worse", detail
    if base and spread > bound * abs(base):
        beats_all = (min(after) > max(before) if higher_is_better
                     else max(after) < min(before))
        return ("better" if beats_all else "unresolved"), detail
    return "same", detail


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("before", type=Path)
    parser.add_argument("after", type=Path)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    before, after = load(args.before), load(args.after)
    worse = False
    for workload in sorted(set(before) | set(after)):
        seeds = sorted(set(before.get(workload, {})) & set(after.get(workload, {})))
        note = "" if len(seeds) >= MIN_PAIRS else f"  (only {len(seeds)} pairs)"
        print(f"== {workload}{note}")
        if not seeds:
            continue
        for metric in spec["end_to_end"]:
            name = metric["name"]
            b = [before[workload][s][name]["value"] for s in seeds]
            a = [after[workload][s][name]["value"] for s in seeds]
            label, d = classify(b, a, metric["bound"], metric["better"] == "higher")
            worse |= label == "worse"
            print(f"  {name:<22} {label:<10} {d['before']:>12.5g} -> "
                  f"{d['after']:<12.5g} {d['change']:+7.1%}  "
                  f"wins {d['wins']}/{d['pairs']}  parent IQR "
                  f"{d['parent_spread']:.1%}  bound {metric['bound']:.0%}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
