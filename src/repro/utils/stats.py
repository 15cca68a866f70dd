"""Small order-statistics helpers shared by the engine and the load generator."""

from __future__ import annotations

import math
from typing import Iterable, Sequence

from ..exceptions import ConfigurationError

__all__ = ["percentile", "p50_p95_max"]


def percentile(sorted_values: Sequence[float], q: float) -> float:
    """The q-quantile (0..1) of an ascending sequence (nearest-rank)."""
    if not sorted_values:
        return float("nan")
    if not (0.0 <= q <= 1.0):
        raise ConfigurationError(f"quantile must be in [0, 1], got {q}")
    rank = min(len(sorted_values), max(1, math.ceil(q * len(sorted_values))))
    return sorted_values[rank - 1]


def p50_p95_max(values: Iterable[float]) -> dict[str, float] | None:
    """The ``{"p50", "p95", "max"}`` summary of ``values`` (None when empty)."""
    ordered = sorted(values)
    if not ordered:
        return None
    return {
        "p50": percentile(ordered, 0.50),
        "p95": percentile(ordered, 0.95),
        "max": ordered[-1],
    }
