"""Shared fixtures: the seeded regime runs are expensive, so run them once.

The j=3 regime streams 1.6e8 increments (~20 s); it is opt-in via
LEVY_GIBBS_RUN_SLOW=1 so the default suite stays fast.
"""

import concurrent.futures
import math
import os
from concurrent.futures import ProcessPoolExecutor
from types import SimpleNamespace

import numpy as np
import pytest

import levygibbs.processes as processes
from levygibbs.experiment import RegimeSpec, run_regime

MASTER_SEED = 0


def slow_enabled() -> bool:
    return os.environ.get("LEVY_GIBBS_RUN_SLOW", "") == "1"


@pytest.fixture(scope="session")
def regime_reports():
    """Reports for j=1 and j=2 under the master seed, shared by all tests."""
    return {j: run_regime(RegimeSpec.from_j(j), seed=MASTER_SEED) for j in (1, 2)}


@pytest.fixture(scope="session")
def regime_report_j3():
    if not slow_enabled():
        pytest.skip("j=3 streams 1.6e8 increments; set LEVY_GIBBS_RUN_SLOW=1 to include it")
    return run_regime(RegimeSpec.from_j(3), seed=MASTER_SEED)


def trig_closed_form(window, K, x, dtype=float):
    """f_1..f_K on `window` at x, each row its own cos/sin call, in `dtype` on the double u = (x-a)/(b-a)."""
    a, b, width = window.a, window.b, window.length
    inside = (x >= a) & (x <= b)
    u = np.where(inside, (x - a) / width, 0.0).astype(dtype)
    pi, s = np.arccos(dtype(-1.0)), dtype(math.sqrt(2.0 / width))
    out = np.zeros((K, len(x)), dtype=dtype)
    out[0, inside] = 1.0 / np.sqrt(dtype(width))
    for k in range(2, K + 1):
        vals = s * (np.sin if k % 2 else np.cos)((k - k % 2) * pi * u)
        out[k - 1, inside] = vals[inside]
    return out


def reference_write_increments(path, series, header=True):
    """The per-value f-string text writer, kept as an oracle and as the writer of text fixtures."""
    with open(path, "w", encoding="ascii") as fh:
        if header:
            seed = series.seed if series.seed is not None else ""
            fh.write(f"# delta={series.scheme.delta:.17g} n={series.scheme.n} seed={seed}\n")
        for chunk in series.iter_chunks():
            fh.write("\n".join(f"{v:.17g}" for v in chunk))
            fh.write("\n")


@pytest.fixture
def pooled_io(monkeypatch):
    """Two forked workers for every pool (forked workers see the patches).

    Returns a record of the pools started and the worker count of each.
    """
    record = SimpleNamespace(pools=0, workers=[])

    class SpyPool(ProcessPoolExecutor):
        def __init__(self, max_workers, *args, **kwargs):
            super().__init__(max_workers, *args, **kwargs)
            record.pools += 1
            record.workers.append(max_workers)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SpyPool)
    monkeypatch.setattr(processes, "_io_workers", lambda: 2)
    return record
