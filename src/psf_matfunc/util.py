"""Small shared helpers: a worker count and an in-order map."""

from __future__ import annotations

from typing import Callable, Iterable, TypeVar

T = TypeVar("T")
R = TypeVar("R")


def worker_count() -> int:
    """Workers of a batch run: every run is serial."""
    return 1


def ordered_map(fn: Callable[[T], R], items: Iterable[T]) -> list[R]:
    """`fn` over `items` in input order, so reductions over the output are
    bitwise deterministic."""
    return [fn(it) for it in items]
