"""Helpers for tests of the forked worker pools (infwidth._fork_map).

A worker's calls and values are invisible to the test process, so workers
report through files.
"""

from concurrent.futures import ProcessPoolExecutor
import json
import os

from ntkuq import infwidth


def _pool_workers(monkeypatch, cores):
    """Let the library see `cores` usable cores; returns the worker counts of its pools.

    Only the os attribute is patched: the process's real affinity is unchanged.
    """
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cores)), raising=False)
    made = []

    def pool(max_workers, mp_context):
        assert mp_context.get_start_method() == "fork"
        made.append(max_workers)
        return ProcessPoolExecutor(max_workers, mp_context)

    monkeypatch.setattr(infwidth, "ProcessPoolExecutor", pool)
    return made


def _log(path, value):
    """Append value as one JSON line; calls in worker processes report through files."""
    with open(path, "a") as f:
        f.write(json.dumps(value) + "\n")


def _logged(path):
    """The values _log appended to path, in the order they were written."""
    return [json.loads(line) for line in path.read_text().splitlines()] if path.exists() else []
