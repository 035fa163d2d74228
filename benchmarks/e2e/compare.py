"""Compare two sets of end-to-end benchmark reports.

Usage, parent reports before ``--`` and the change's after::

    python benchmarks/e2e/compare.py A1.json [A2.json ...] -- B1.json [B2.json ...]

Each report is a ``run.py --out`` file.  One row per workload and
end-to-end metric shows both sides' medians with their quartiles (or
min-max below four reports), the change's relative delta, the pairs it
won, and a verdict.  Pairs are taken in the order given, so alternate
which side runs first when producing them.  Directions and bounds come
from ``BENCHMARK.json``:

* ``worse``: the change's median is worse than the parent's by more than
  the metric's bound;
* ``better``: the change wins at least 9 of 10 pairs (ties count for
  neither side, and at least 10 pairs are needed) and the medians differ
  by more than the parent's interquartile range;
* ``unresolved``: neither, and the parent's own spread is wider than the
  bound, unless every run of the change reads better than every run of
  the parent;
* ``unchanged``: neither, within a spread the bound resolves.

The exit code is 1 when any row is ``worse``.
"""

from __future__ import annotations

import json
import statistics
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parents[2]
MIN_PAIRS = 10
WIN_SHARE = 0.9


@dataclass
class Row:
    """The comparison of one metric on one workload."""

    workload: str
    metric: str
    unit: str
    a: List[float]
    b: List[float]
    wins: int
    pairs: int
    delta: float
    verdict: str


def spread(values: Sequence[float]) -> Tuple[float, float]:
    """First and third quartile, or min and max below four values."""
    if len(values) >= 4:
        q1, _, q3 = statistics.quantiles(values, n=4)
        return q1, q3
    return min(values), max(values)


def verdict(a: Sequence[float], b: Sequence[float], lower_is_better: bool,
            bound: float) -> Tuple[str, int, int, float]:
    """``(verdict, wins, pairs, delta)``; ``delta`` > 0 means worse."""
    sign = 1.0 if lower_is_better else -1.0
    med_a, med_b = statistics.median(a), statistics.median(b)
    delta = sign * (med_b - med_a) / abs(med_a) if med_a else \
        sign * (med_b - med_a)
    gains = [sign * (y - x) for x, y in zip(a, b)]
    wins = sum(g < 0 for g in gains)
    pairs = len(gains)
    q1, q3 = spread(a)
    if delta > bound:
        return "worse", wins, pairs, delta
    if (pairs >= MIN_PAIRS and wins >= WIN_SHARE * pairs and delta < 0
            and abs(med_b - med_a) > q3 - q1):
        return "better", wins, pairs, delta
    dominates = (max(b) < min(a)) if lower_is_better else (min(b) > max(a))
    if med_a and (q3 - q1) / abs(med_a) > bound and not dominates:
        return "unresolved", wins, pairs, delta
    return "unchanged", wins, pairs, delta


def compare(a_reports: Sequence[Dict[str, Any]],
            b_reports: Sequence[Dict[str, Any]],
            spec: Dict[str, Any]) -> List[Row]:
    """One :class:`Row` per workload x end-to-end metric both sides
    measured."""
    rows: List[Row] = []
    for w in (x["name"] for x in spec["workloads"]):
        for m in spec["end_to_end"]:
            a = _values(a_reports, w, m["name"])
            b = _values(b_reports, w, m["name"])
            if not a or not b:
                continue
            v, wins, pairs, delta = verdict(
                a, b, m["better"] == "lower", m["bound"])
            rows.append(Row(w, m["name"], m["unit"], a, b, wins, pairs,
                            delta, v))
    return rows


def _values(reports: Sequence[Dict[str, Any]], workload: str,
            metric: str) -> List[float]:
    out = []
    for r in reports:
        e2e = r.get("workloads", {}).get(workload, {}).get("e2e", {})
        if metric in e2e:
            out.append(float(e2e[metric]))
    return out


def _fmt(values: Sequence[float]) -> str:
    lo, hi = spread(values)
    return f"{statistics.median(values):10.4f} [{lo:.4f}-{hi:.4f}]"


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    split = argv.index("--") if "--" in argv else 0
    if not 0 < split < len(argv) - 1:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    a, b = ([json.loads(Path(p).read_text()) for p in paths]
            for paths in (argv[:split], argv[split + 1:]))
    rows = compare(a, b, spec)
    print(f"{'workload':11s} {'metric':12s} {'A median [spread]':>30s} "
          f"{'B median [spread]':>30s} {'delta':>8s} {'wins':>6s}  verdict")
    for r in rows:
        print(f"{r.workload:11s} {r.metric:12s} {_fmt(r.a):>30s} "
              f"{_fmt(r.b):>30s} {r.delta:+8.1%} "
              f"{r.wins:>3d}/{r.pairs:<2d}  {r.verdict}")
    return 1 if any(r.verdict == "worse" for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
