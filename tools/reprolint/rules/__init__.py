"""The reprolint rule pack; importing this package registers every rule."""

from __future__ import annotations

from . import (  # noqa: F401
    asyncsafety,
    counts,
    defaults,
    feasibility,
    floats,
    layers,
    registry_conformance,
    rng,
    state,
    wal,
)
