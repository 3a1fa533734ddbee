"""Compare benchmark results of a parent commit and a change.

Usage::

    python3 bench/compare.py --parent DIR_OR_FILE... --change DIR_OR_FILE...

Inputs are the result files ``bench/run.py`` writes to its ``--out``
directory.  Runs of the two sides are paired by (workload, traced, seed),
in file-name order when a seed repeats; run them alternately, parent first
on even pairs, so that drift in the machine does not favour one side.

For every (workload, metric) the table gives each side's median and
quartiles, the pairs the change won (ties count for neither side) and a
verdict:

* ``worse``: the change's median is worse than the parent's by more than
  the metric's bound in ``BENCHMARK.json``;
* ``better``: at least 10 pairs, the change won at least 9 in 10 of them,
  and the medians differ by more than the parent's own quartile spread;
* ``unresolved``: neither, and the parent's quartile spread is wider than
  the bound, unless every change run reads better than every parent run;
* ``unchanged``: none of the above.

Per-layer metrics have no bound, so they are only ever ``better`` or
``unchanged``.  Each workload also gets a ``failed`` row, the calls that
failed over all pairs: it is ``worse`` when the change failed more calls
than the parent or any change run was not correct, and then no metric of
that workload is ``better`` (it reads ``unresolved``).  Exit status 1 when
any verdict is ``worse``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent
MIN_PAIRS = 10
WIN_SHARE = 0.9


def load(paths: List[Path]) -> Dict[Tuple, List[dict]]:
    """Results grouped by (workload, traced, seed), in file-name order."""
    files: List[Path] = []
    for path in paths:
        files += sorted(path.glob("*.json")) if path.is_dir() else [path]
    groups: Dict[Tuple, List[dict]] = defaultdict(list)
    for path in sorted(files, key=lambda p: p.name):
        record = json.loads(path.read_text())
        groups[record["workload"], record["trace"], record["seed"]].append(
            record)
    return groups


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(parent: List[float], change: List[float], wins: int,
            higher_is_better: bool, bound: Optional[float]) -> str:
    sign = 1.0 if higher_is_better else -1.0
    p1, pmed, p3 = quartiles(parent)
    _c1, cmed, _c3 = quartiles(change)
    gain = sign * (cmed - pmed)          # > 0 when the change is better
    if bound is not None and -gain > bound * abs(pmed):
        return "worse"
    if (len(parent) >= MIN_PAIRS and wins >= WIN_SHARE * len(parent)
            and gain > p3 - p1):
        return "better"
    if bound is not None and p3 - p1 > bound * abs(pmed):
        if min(sign * c for c in change) <= max(sign * p for p in parent):
            return "unresolved"
    return "unchanged"


def compare(parent: Dict[Tuple, List[dict]], change: Dict[Tuple, List[dict]],
            catalogue: dict) -> List[dict]:
    specs = {m["name"]: m for m in catalogue["end_to_end"]
             + catalogue["per_layer"]}
    pairs: Dict[Tuple, List[Tuple[dict, dict]]] = defaultdict(list)
    for key, runs in parent.items():
        for a, b in zip(runs, change.get(key, [])):
            pairs[key[:2]].append((a, b))
    rows = []
    for (workload, traced), matched in sorted(pairs.items()):
        # A change that fails more calls than the parent, or gives any
        # wrong result, is worse whatever its timings, and none of its
        # gains count.
        p_failed = sum(a["failed"] for a, _ in matched)
        c_failed = sum(b["failed"] for _, b in matched)
        failing = c_failed > p_failed or not all(b["correct"]
                                                  for _, b in matched)
        rows.append({
            "workload": workload, "traced": traced, "metric": "failed",
            "unit": "calls", "parent": (p_failed,) * 3,
            "change": (c_failed,) * 3, "wins": 0, "pairs": len(matched),
            "verdict": "worse" if failing else "unchanged",
        })
        for name, spec in specs.items():
            if not all(name in a["metrics"] and name in b["metrics"]
                       for a, b in matched):
                continue
            ps = [a["metrics"][name]["value"] for a, _ in matched]
            cs = [b["metrics"][name]["value"] for _, b in matched]
            higher = spec["better"] == "higher"
            wins = sum((c > p) if higher else (c < p) for p, c in zip(ps, cs))
            result = verdict(ps, cs, wins, higher, spec.get("bound"))
            if failing and result == "better":
                result = "unresolved"
            rows.append({
                "workload": workload, "traced": traced, "metric": name,
                "unit": spec["unit"], "parent": quartiles(ps),
                "change": quartiles(cs), "wins": wins, "pairs": len(matched),
                "verdict": result,
            })
    return rows


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", type=Path, nargs="+", required=True)
    parser.add_argument("--change", type=Path, nargs="+", required=True)
    args = parser.parse_args(argv)
    catalogue = json.loads((ROOT / "BENCHMARK.json").read_text())
    rows = compare(load(args.parent), load(args.change), catalogue)
    if not rows:
        print("compare.py: no (workload, seed) runs appear on both sides",
              file=sys.stderr)
        return 2
    print(f"{'workload':18s} {'metric':40s} {'parent q1/median/q3':>32s}  "
          f"{'change q1/median/q3':>32s}  wins   verdict")
    for r in rows:
        p = "/".join(f"{v:.4g}" for v in r["parent"])
        c = "/".join(f"{v:.4g}" for v in r["change"])
        print(f"{r['workload']:18s} {r['metric']:40s} {p:>32s}  {c:>32s}  "
              f"{r['wins']:2d}/{r['pairs']:<2d}  {r['verdict']}  ({r['unit']})")
    return 1 if any(r["verdict"] == "worse" for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
