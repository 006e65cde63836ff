"""Small shared helpers: thread budget, deterministic parallel map, fits."""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Iterable, Sequence, TypeVar

import numpy as np

T = TypeVar("T")
R = TypeVar("R")

THREADS_ENV = "PSF_MATFUNC_THREADS"


def worker_count() -> int:
    """Thread budget for batch drivers; defaults to 1 (fully serial)."""
    raw = os.environ.get(THREADS_ENV, "1")
    try:
        n = int(raw)
    except ValueError:
        return 1
    return max(1, n)


def ordered_map(fn: Callable[[T], R], items: Iterable[T]) -> list[R]:
    """Map `fn` over `items`, possibly in threads, preserving input order.

    Results are collected in submission order regardless of completion
    order, so reductions over the output are bitwise deterministic.
    """
    items = list(items)
    n = worker_count()
    if n <= 1 or len(items) <= 1:
        return [fn(it) for it in items]
    with ThreadPoolExecutor(max_workers=n) as ex:
        return list(ex.map(fn, items))


def fit_loglog_slope(x: Sequence[float], y: Sequence[float],
                     floor: float = 0.0) -> float:
    """Least-squares slope of log10(y) against log10(x), ignoring y <= floor."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    keep = y > floor
    if keep.sum() < 2:
        raise ValueError("need at least two points above the floor to fit")
    return float(np.polyfit(np.log10(x[keep]), np.log10(y[keep]), 1)[0])
