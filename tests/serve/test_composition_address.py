"""Compositions are addressed by content, never by their ``name`` alone.

Two JSON files may carry the same ``name`` with different content.  They
are different scheduling problems, so they must never share a job
fingerprint, a schedule-cache entry or a server memo entry, and a file
edited between two requests must be seen by the second one.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.arch.library import resolve_composition
from repro.perf.fingerprint import schedule_cache_key
from repro.serve.client import connect
from repro.serve.jobs import JobSpec, resolve_workload
from repro.serve.server import serve_in_thread

MESH4 = os.path.join(
    os.path.dirname(__file__), "..", "..", "compositions", "mesh4.json"
)


def _write(path, context_size):
    with open(MESH4) as fh:
        data = json.load(fh)
    data["Context_memory_length"] = context_size
    with open(path, "w") as fh:
        json.dump(data, fh)
    return str(path)


@pytest.fixture
def twins(tmp_path):
    """Two files named ``mesh4`` that differ only in context size."""
    return _write(tmp_path / "a.json", 256), _write(tmp_path / "b.json", 64)


def test_twins_share_a_name_but_not_an_address(twins):
    a, b = (resolve_composition(path) for path in twins)
    assert a.name == b.name == "mesh4"
    assert (a.context_size, b.context_size) == (256, 64)
    spec_a = JobSpec(workload="gcd", composition=a)
    spec_b = JobSpec(workload="gcd", composition=b)
    assert spec_a.fingerprint() != spec_b.fingerprint()
    kernel = resolve_workload(spec_a).kernel
    assert schedule_cache_key(kernel, a) != schedule_cache_key(kernel, b)


def test_server_keeps_twins_apart_and_sees_edits(tmp_path, twins):
    a, b = twins
    with serve_in_thread(workers=0) as handle:
        with connect(handle.address) as client:
            first = client.run("gcd", a)
            second = client.run("gcd", b)
            again = client.run("gcd", a)
            # rewrite ``a`` in place: the next request must see it
            _write(a, 128)
            edited = client.run("gcd", a)
        server = handle.server
        fingerprints = [
            r["meta"]["fingerprint"] for r in (first, second, again, edited)
        ]
        assert len(set(fingerprints)) == 3
        assert fingerprints[0] == fingerprints[2]
        assert [r["meta"]["dedupe"] for r in (first, second, again, edited)] == [
            "none", "none", "memo", "none",
        ]
        assert server.counters["memo_hits"] == 1
        assert len(server._results) == 3
    for response in (first, second, edited):
        assert response["ok"] is True
        assert response["result"]["results"] == first["result"]["results"]
