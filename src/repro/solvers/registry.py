"""Solver registry: names → factories, used by the CLI and the harness."""

from __future__ import annotations

from typing import Any, Callable

from ..embedding.base import Embedder
from ..exceptions import ConfigurationError
from .bbe import BbeEmbedder
from .chain_dp import ChainDpEmbedder
from .exact import ExactEmbedder
from .ilp import IlpEmbedder
from .local_search import RefinedEmbedder
from .mbbe import MbbeEmbedder
from .mbbe_s import MbbeSteinerEmbedder
from .minv import MinvEmbedder
from .ranv import RanvEmbedder
from .sa import SaEmbedder

__all__ = ["available_solvers", "make_solver"]

_REGISTRY: dict[str, Callable[..., Embedder]] = {
    "BBE": BbeEmbedder,
    "MBBE": MbbeEmbedder,
    "MBBE-S": MbbeSteinerEmbedder,
    "RANV": RanvEmbedder,
    "MINV": MinvEmbedder,
    "EXACT": ExactEmbedder,
    "CHAIN-DP": ChainDpEmbedder,
    "MINV+LS": lambda **kw: RefinedEmbedder(MinvEmbedder(), **kw),
    "SA": SaEmbedder,
    "ILP": IlpEmbedder,
}


def available_solvers() -> tuple[str, ...]:
    """Registered solver names."""
    return tuple(sorted(_REGISTRY))


def make_solver(name: str, **kwargs: Any) -> Embedder:
    """Instantiate a solver by (case-insensitive) name."""
    key = name.upper()
    try:
        factory = _REGISTRY[key]
    except KeyError:
        raise ConfigurationError(
            f"unknown solver {name!r}; available: {', '.join(available_solvers())}"
        ) from None
    return factory(**kwargs)

