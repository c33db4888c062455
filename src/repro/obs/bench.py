"""Benchmark snapshots: canonical ``BENCH_<tag>.json`` files.

A snapshot rolls one or more pytest-benchmark ``--benchmark-json``
outputs into a single schema-versioned file: a flat ``metrics`` map of
named measurement points plus machine/environment provenance.  Checked
in next to the code (``BENCH_seed.json`` is the first baseline), the
snapshots give the repo a perf trajectory that
:mod:`repro.obs.regress` can diff and gate on.

Every metric point carries its *kind*, which decides how the regression
check treats it:

* ``count`` — deterministic pipeline outputs (simulated cycles,
  placement attempts, copies inserted).  Identical on every machine;
  regressions are gated by default.
* ``ratio`` — machine-relative ratios (speedups, hit rates).  Roughly
  portable; gated only with ``--include-ratios``.
* ``time`` — wall-clock (seconds, cycles/sec).  Machine-dependent;
  gated only with ``--include-times`` (same-machine comparisons).
* ``info`` — context (cpu count, job counts); never gated.

Snapshot schema (``BENCH_SCHEMA = 1``)::

    {"schema": 1, "tag": "seed", "created_utc": "...",
     "provenance": {"hostname": ..., "platform": ..., "python": ...,
                    "cpu_count": ..., "git_rev": ...},
     "metrics": {"<name>": {"value": 1.23, "unit": "seconds",
                            "direction": "lower", "kind": "time"}},
     "sources": ["bench_sim_throughput", ...]}

See docs/observability.md ("Benchmark snapshots").
"""

from __future__ import annotations

import json
import os
import platform
import socket
import subprocess
import sys
import time
from typing import Any, Dict, Iterable, List, Optional, Tuple

__all__ = [
    "BENCH_SCHEMA",
    "environment_provenance",
    "metrics_from_benchmark_json",
    "build_snapshot",
    "load_snapshot",
    "write_snapshot",
    "is_snapshot",
]

#: bump when the snapshot layout or metric-point fields change shape
BENCH_SCHEMA = 1

#: numeric ``extra_info`` keys that are context, not measurements
_INFO_KEYS = frozenset(
    {"cpu_count", "parallel_jobs", "rounds", "iterations"}
)

#: ``obs.internals`` scalars that are deterministic pipeline counts
_INTERNAL_COUNT_KEYS = (
    "copies_inserted",
    "placement_attempts",
    "placement_accepted",
    "sim_cycles",
)


def environment_provenance() -> Dict[str, Any]:
    """Where a snapshot was measured: host, platform, python, git rev."""
    try:
        git_rev: Optional[str] = (
            subprocess.run(
                ["git", "rev-parse", "--short", "HEAD"],
                capture_output=True,
                text=True,
                timeout=10,
                check=True,
            ).stdout.strip()
            or None
        )
    except (OSError, subprocess.SubprocessError):
        git_rev = None
    return {
        "hostname": socket.gethostname(),
        "platform": platform.platform(),
        "python": sys.version.split()[0],
        "cpu_count": os.cpu_count(),
        "git_rev": git_rev,
    }


def _point(value: float, unit: str, direction: Optional[str], kind: str) -> Dict[str, Any]:
    return {"value": value, "unit": unit, "direction": direction, "kind": kind}


def classify_metric(name: str) -> Tuple[str, Optional[str], str]:
    """``(unit, direction, kind)`` inferred from a metric's short name."""
    short = name.rsplit(".", 1)[-1]
    if short in _INFO_KEYS:
        return ("", None, "info")
    if "cycles_per_sec" in short or short.endswith("_per_sec"):
        return ("per_sec", "higher", "time")
    if short.endswith("seconds") or short.endswith("_ms"):
        return ("seconds" if not short.endswith("_ms") else "ms", "lower", "time")
    if "speedup" in short or "hit_rate" in short or "fraction" in short:
        return ("ratio", "higher", "ratio")
    if "cycles" in short or "contexts" in short or short in _INTERNAL_COUNT_KEYS:
        return ("count", "lower", "count")
    return ("", None, "info")


def _source_name(data: Dict[str, Any], fallback: str) -> str:
    """A stable short name for one benchmark-JSON input file."""
    benches = data.get("benchmarks") or []
    if benches:
        # "benchmarks/bench_sim_throughput.py::test_x" -> module stem
        fullname = benches[0].get("fullname", "")
        module = fullname.split("::", 1)[0]
        stem = os.path.splitext(os.path.basename(module))[0]
        if stem:
            return stem
    return fallback


def metrics_from_benchmark_json(
    data: Dict[str, Any], *, source: str
) -> Dict[str, Dict[str, Any]]:
    """Flatten one pytest-benchmark JSON into namespaced metric points.

    Per benchmark: the timing stats (``<source>.<test>.mean_seconds`` /
    ``min_seconds``) and every numeric ``extra_info`` entry.  Per file:
    the deterministic ``obs.internals`` counters attached by
    ``benchmarks/conftest.py``, namespaced ``<source>.obs.<key>`` so a
    partial re-run (the CI smoke subset) still matches the baseline
    keys it produces.
    """
    metrics: Dict[str, Dict[str, Any]] = {}
    for bench in data.get("benchmarks", []):
        test = bench.get("name", "?").split("[", 1)[0]
        base = f"{source}.{test}"
        stats = bench.get("stats") or {}
        for stat in ("mean", "min"):
            if isinstance(stats.get(stat), (int, float)):
                metrics[f"{base}.{stat}_seconds"] = _point(
                    stats[stat], "seconds", "lower", "time"
                )
        for key, value in sorted((bench.get("extra_info") or {}).items()):
            if key == "obs_internals" or not isinstance(value, (int, float)):
                continue
            unit, direction, kind = classify_metric(key)
            metrics[f"{base}.{key}"] = _point(value, unit, direction, kind)
    internals = (data.get("obs") or {}).get("internals") or {}
    for key in _INTERNAL_COUNT_KEYS:
        value = internals.get(key)
        if isinstance(value, (int, float)):
            metrics[f"{source}.obs.{key}"] = _point(
                value, "count", "lower", "count"
            )
    return metrics


def build_snapshot(
    tag: str,
    inputs: Iterable[Tuple[str, Dict[str, Any]]],
    *,
    note: Optional[str] = None,
) -> Dict[str, Any]:
    """A snapshot dict from ``(path, parsed benchmark JSON)`` pairs."""
    metrics: Dict[str, Dict[str, Any]] = {}
    sources: List[str] = []
    for path, data in inputs:
        fallback = os.path.splitext(os.path.basename(path))[0]
        source = _source_name(data, fallback)
        sources.append(source)
        for name, point in metrics_from_benchmark_json(data, source=source).items():
            metrics[name] = point
    snapshot: Dict[str, Any] = {
        "schema": BENCH_SCHEMA,
        "tag": tag,
        "created_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "provenance": environment_provenance(),
        "metrics": dict(sorted(metrics.items())),
        "sources": sources,
    }
    if note:
        snapshot["note"] = note
    return snapshot


def is_snapshot(data: Dict[str, Any]) -> bool:
    """Whether a parsed JSON file is a ``BENCH_*`` snapshot (vs a raw
    pytest-benchmark output)."""
    return isinstance(data, dict) and "metrics" in data and "tag" in data


def load_snapshot(path: str) -> Dict[str, Any]:
    """Parse ``path`` as a snapshot; raw benchmark JSON is converted
    on the fly (tagged with its filename)."""
    with open(path) as fh:
        data = json.load(fh)
    if is_snapshot(data):
        if data.get("schema") != BENCH_SCHEMA:
            raise ValueError(
                f"{path}: snapshot schema {data.get('schema')!r}, "
                f"expected {BENCH_SCHEMA}"
            )
        return data
    tag = os.path.splitext(os.path.basename(path))[0]
    return build_snapshot(tag, [(path, data)])


def write_snapshot(path: str, snapshot: Dict[str, Any]) -> None:
    with open(path, "w") as fh:
        json.dump(snapshot, fh, indent=2, sort_keys=True)
        fh.write("\n")
