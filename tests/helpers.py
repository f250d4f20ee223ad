"""Shared cached study runs so acceptance criteria can reuse heavy solves."""

from __future__ import annotations

import time
from functools import lru_cache

from veclap.analysis import ConvergenceRecord, StudyConfig, convergence_study


@lru_cache(maxsize=None)
def run_level(k: int, kg: int, level: int, fields: tuple = ("z",),
              num_eigs: int = 6, jitter: float = 0.3, certify: bool = False):
    """One level of the default-config study; returns (record, seconds)."""
    cfg = StudyConfig(k=k, k_g=kg, levels=(level,), num_eigs=num_eigs,
                      fields=fields, jitter=jitter, certify=certify)
    t0 = time.perf_counter()
    rec = convergence_study(cfg)[0]
    return rec, time.perf_counter() - t0


def records_for(k: int, kg: int, levels, **kw) -> list[ConvergenceRecord]:
    return [run_level(k, kg, lvl, **kw)[0] for lvl in levels]


def level_seconds(k: int, kg: int, level: int, **kw) -> float:
    return run_level(k, kg, level, **kw)[1]
