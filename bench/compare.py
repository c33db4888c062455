"""``python3 bench/run.py compare --parent A.json... --change B.json...``

Applies the rule of section 8 of the choosing-metrics guide to result
files written with ``--out``: for every (workload, metric) it prints each
side's median and quartiles and the share of pairs the change won.

* **gain** — the change won at least 90% of the pairs (ties count for
  neither) and the medians differ by more than the parent's
  interquartile range;
* **regressed** — the change's median is worse than the parent's by more
  than the metric's bound in BENCHMARK.json;
* **unresolved** — the parent's own spread exceeds the bound, unless
  every change run beats every parent run.

Pairs are matched by seed when both sides ran the same seeds, otherwise
by position.  A rise in the share of wrong outputs is flagged.  Exits 1
on any regression or error-rate rise.
"""

from __future__ import annotations

import argparse
import json
import statistics
from typing import Dict, List, Optional, Sequence, Tuple

GAIN_SHARE = 0.9


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def _records(paths: Sequence[str]) -> List[dict]:
    out: List[dict] = []
    for path in paths:
        with open(path) as fh:
            out.extend(json.load(fh))
    return out


def _pairs(parent: List[dict], change: List[dict]) -> List[Tuple[dict, dict]]:
    by_seed = {r["seed"]: r for r in change}
    if len(by_seed) == len(change) and {r["seed"] for r in parent} == set(by_seed):
        return [(p, by_seed[p["seed"]]) for p in parent]
    return list(zip(parent, change))


def verdict(
    parent: Sequence[float], change: Sequence[float],
    pairs: Sequence[Tuple[float, float]], higher: bool,
    bound: Optional[float],
) -> Tuple[str, float]:
    """(verdict, share of pairs the change won) for one metric."""
    sign = 1.0 if higher else -1.0
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    won = wins / len(pairs) if pairs else 0.0
    p1, pm, p3 = quartiles(parent)
    cm = statistics.median(change)
    if bound is not None and pm:
        spread = (p3 - p1) / abs(pm)
        worse = sign * (pm - cm) / abs(pm)
        beats_all = (
            min(change) > max(parent) if higher else max(change) < min(parent)
        )
        if spread > bound and not beats_all:
            return "unresolved", won
        if worse > bound:
            return "regressed", won
    if won >= GAIN_SHARE and abs(cm - pm) > (p3 - p1):
        return "gain", won
    return "-", won


def main(argv: Sequence[str], spec_path: str) -> int:
    parser = argparse.ArgumentParser(prog="run.py compare")
    parser.add_argument("--parent", nargs="+", required=True, metavar="FILE")
    parser.add_argument("--change", nargs="+", required=True, metavar="FILE")
    args = parser.parse_args(argv)
    with open(spec_path) as fh:
        spec = json.load(fh)
    declared: Dict[str, dict] = {
        m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]
    }
    parent, change = _records(args.parent), _records(args.change)
    status = 0
    print(f"{'workload':<18} {'metric':<30} {'parent median [q1, q3]':>30} "
          f"{'change median [q1, q3]':>30} {'won':>5}  verdict")
    for workload in sorted({r["workload"] for r in parent}):
        for trace in (0, 1):
            ps = [r for r in parent if r["workload"] == workload and r["trace"] == trace]
            cs = [r for r in change if r["workload"] == workload and r["trace"] == trace]
            if not ps or not cs:
                continue
            pairs = _pairs(ps, cs)
            for name in ps[0]["metrics"]:
                meta = declared.get(name)
                if meta is None:
                    continue
                pv = [r["metrics"][name]["value"] for r in ps]
                cv = [r["metrics"][name]["value"] for r in cs]
                pp = [(p["metrics"][name]["value"], c["metrics"][name]["value"])
                      for p, c in pairs]
                what, won = verdict(
                    pv, cv, pp, meta["better"] == "higher", meta.get("bound")
                )
                if what == "regressed":
                    status = 1
                p1, pm, p3 = quartiles(pv)
                c1, cm, c3 = quartiles(cv)
                print(f"{workload:<18} {name:<30} "
                      f"{f'{pm:.4g} [{p1:.4g}, {p3:.4g}]':>30} "
                      f"{f'{cm:.4g} [{c1:.4g}, {c3:.4g}]':>30} "
                      f"{won:>5.0%}  {what}")
            rate = [sum(r["failed"] for r in rs) / max(1, sum(r["attempted"] for r in rs))
                    for rs in (ps, cs)]
            if rate[1] > rate[0]:
                status = 1
                print(f"{workload:<18} error_rate rose from {rate[0]:.4g} "
                      f"to {rate[1]:.4g}")
    return status
