"""Small shared helpers: thread budget and deterministic parallel map."""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Iterable, TypeVar

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
