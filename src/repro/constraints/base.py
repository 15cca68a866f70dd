"""The pluggable-constraint protocol and the immutable constraint set.

The paper's feasibility model (eq. 2–6) is only one member of a family:
operators also want end-to-end delay budgets, anti-affinity placement
rules, zone-aware pricing, and whatever the next scenario brings. Instead
of re-teaching every layer (solvers, referee, engine, service) about each
new rule, this module defines one protocol every rule speaks:

* **per-placement prune** — :meth:`Constraint.admit_placement` vetoes a
  (node, VNF-type) pair before the solver ever builds a candidate on it;
* **per-solution prune** — :meth:`Constraint.admit_counts` vetoes a
  partial solution from its cumulative instance-use counts (the chain
  state both BBE and MBBE already maintain), which is where contextual
  rules like anti-affinity bite during the search;
* **per-path prune / price** — :meth:`Constraint.admit_path` rejects a
  candidate real-path outright, and :meth:`Constraint.link_surcharge`
  adds a Lagrangian-style surcharge on top of a link's rental price so
  shortest-path instantiation steers around expensive-under-the-rule
  links (the LARAC idea, arXiv 2010.04418) without touching the paper's
  eq. 1 objective;
* **whole-embedding verify** — :meth:`Constraint.verify` is the referee
  hook: it raises :class:`~repro.exceptions.ConstraintViolationError`
  when a complete embedding violates the rule;
* **reprice** — :meth:`Constraint.repriced` lets a violated constraint
  return a more aggressively priced copy of itself, driving the bounded
  solve → verify → reprice loop in :meth:`Embedder.embed`;
* **serialized spec** — :meth:`Constraint.spec` /
  :meth:`Constraint.from_spec` round-trip a constraint through the JSON
  wire protocol and the WAL.

Constraints are **frozen dataclasses**: hashable, comparable, and safe to
embed in :class:`~repro.engine.request.EmbeddingRequest`. A
:class:`ConstraintSet` is the immutable bundle every consumer passes
around; the empty set is falsy and every hook short-circuits on it, so
the fault-free, constraint-free decision path stays bit-identical to the
goldens.
"""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING, Any, Callable, Iterable, Iterator, Mapping

from ..exceptions import ConfigurationError, ConstraintViolationError

if TYPE_CHECKING:  # pragma: no cover - type-only imports
    from ..config import FlowConfig
    from ..embedding.mapping import Embedding
    from ..network.cloud import CloudNetwork
    from ..network.graph import Link
    from ..network.paths import Path
    from ..types import NodeId, VnfTypeId

__all__ = ["Constraint", "ConstraintSet", "ConstraintViolationError"]


class Constraint(abc.ABC):
    """One pluggable embedding rule; see the module docstring for the hooks.

    Subclasses are frozen dataclasses registered under a unique ``kind``
    with :func:`repro.constraints.registry.register_constraint`. Every
    hook except :meth:`verify` and the spec round-trip has a permissive
    default, so a plugin only overrides the dimensions it prunes on.
    """

    #: the registry kind; also the default display name.
    kind: str = "abstract"

    @property
    def name(self) -> str:
        """Display name used in violation messages and solver stats."""
        return self.kind

    # -- solver-side hooks (pruning and pricing) ---------------------------------------

    def admit_placement(
        self, network: "CloudNetwork", node: "NodeId", vnf_type: "VnfTypeId"
    ) -> bool:
        """May ``vnf_type`` be placed on ``node`` at all?"""
        return True

    def admit_counts(
        self,
        network: "CloudNetwork",
        vnf_counts: Mapping[tuple["NodeId", "VnfTypeId"], int],
    ) -> bool:
        """Is a partial solution's cumulative placement state acceptable?

        ``vnf_counts`` maps (node, vnf_type) to the number of uses the
        candidate chain has accumulated so far — exactly the eq. 7 state
        the solvers maintain, which is what contextual placement rules
        (anti-affinity, spread) need.
        """
        return True

    def admit_path(self, network: "CloudNetwork", flow: "FlowConfig", path: "Path") -> bool:
        """May this real-path appear in a solution at all?"""
        return True

    def admit_link(self, network: "CloudNetwork", link: "Link") -> bool:
        """May this link appear in *any* path of a solution?

        A hard per-link veto composed into the solvers' residual link
        filters (so searches route around banned links instead of dying
        when the min-cost path happens to use one). Override together
        with :attr:`filters_links`.
        """
        return True

    @property
    def filters_links(self) -> bool:
        """True when :meth:`admit_link` is non-trivial (enables link-filter
        composition in the solvers)."""
        return False

    def link_surcharge(self, link: "Link") -> float:
        """Extra search-time weight (on top of ``link.price``) for one link.

        The surcharge steers shortest-path instantiation only; the eq. 1
        objective keeps charging real rental prices.
        """
        return 0.0

    @property
    def prices_links(self) -> bool:
        """True when :meth:`link_surcharge` is non-trivial (enables the
        weighted Dijkstra path in the solvers)."""
        return False

    # -- referee-side hook --------------------------------------------------------------

    @abc.abstractmethod
    def verify(
        self, network: "CloudNetwork", embedding: "Embedding", flow: "FlowConfig"
    ) -> None:
        """Raise :class:`ConstraintViolationError` unless the rule holds."""

    # -- search escalation --------------------------------------------------------------

    def repriced(
        self, network: "CloudNetwork", embedding: "Embedding", flow: "FlowConfig"
    ) -> "Constraint | None":
        """A more aggressively priced copy after a violation, or None.

        Called when :meth:`verify` rejected ``embedding``. Returning a new
        constraint re-runs the solve with it (bounded by
        :attr:`ConstraintSet.MAX_REPRICE_ROUNDS`); returning None accepts
        the failure.
        """
        return None

    # -- wire format --------------------------------------------------------------------

    @abc.abstractmethod
    def spec(self) -> dict[str, Any]:
        """The JSON-safe dict form; must include ``{"kind": self.kind}``."""

    @classmethod
    @abc.abstractmethod
    def from_spec(cls, spec: Mapping[str, Any]) -> "Constraint":
        """Rebuild from :meth:`spec` output; raise
        :class:`~repro.exceptions.ConfigurationError` on malformed input."""

    def violation(self, constraint: str, message: str) -> ConstraintViolationError:
        """Convenience constructor for a typed violation."""
        return ConstraintViolationError(constraint, message)


class ConstraintSet:
    """An immutable, hashable bundle of constraints.

    The empty set is falsy, compares equal to every other empty set, and
    every hook short-circuits on it — the contract that keeps the
    constraint-free hot path bit-identical to the pre-refactor solvers.

    The veto hooks (:meth:`admit_placement`, :meth:`admit_path`,
    :meth:`admit_counts`) ask only the members that override them: the
    others inherit :class:`Constraint`'s permissive default, so skipping
    them changes no verdict. :attr:`vetoes_placements`,
    :attr:`vetoes_paths` and :attr:`vetoes_counts` say whether any member
    does, the way :attr:`filters_links` does for :meth:`admit_link`.
    """

    __slots__ = (
        "_items", "_placement_vetoes", "_path_vetoes", "_count_vetoes", "link_vetoes"
    )

    #: bound on solve → verify → reprice rounds in ``Embedder.embed``.
    MAX_REPRICE_ROUNDS = 4

    #: the canonical empty set (assigned after the class body).
    EMPTY: "ConstraintSet"

    def __init__(self, items: Iterable[Constraint] = ()) -> None:
        object.__setattr__(self, "_items", tuple(items))
        for item in self._items:
            if not isinstance(item, Constraint):
                raise ConfigurationError(
                    f"ConstraintSet items must be Constraint instances, got {item!r}"
                )
        for slot, hook in (
            ("_placement_vetoes", "admit_placement"),
            ("_path_vetoes", "admit_path"),
            ("_count_vetoes", "admit_counts"),
        ):
            default = getattr(Constraint, hook)
            object.__setattr__(
                self, slot, tuple(c for c in self._items if getattr(type(c), hook) is not default)
            )
        object.__setattr__(
            self, "link_vetoes", tuple(c for c in self._items if c.filters_links)
        )

    _items: tuple[Constraint, ...]
    _placement_vetoes: tuple[Constraint, ...]
    _path_vetoes: tuple[Constraint, ...]
    _count_vetoes: tuple[Constraint, ...]
    #: the members that veto individual links (:attr:`filters_links`).
    link_vetoes: tuple[Constraint, ...]

    @staticmethod
    def coerce(value: "ConstraintSet | Iterable[Constraint] | None") -> "ConstraintSet":
        """None → the empty set; iterables are wrapped; sets pass through."""
        if value is None:
            return ConstraintSet.EMPTY
        if isinstance(value, ConstraintSet):
            return value
        return ConstraintSet(value)

    # -- container protocol -------------------------------------------------------------

    def __iter__(self) -> Iterator[Constraint]:
        return iter(self._items)

    def __len__(self) -> int:
        return len(self._items)

    def __bool__(self) -> bool:
        return bool(self._items)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ConstraintSet):
            return NotImplemented
        return self._items == other._items

    def __hash__(self) -> int:
        return hash(self._items)

    def __repr__(self) -> str:
        return f"ConstraintSet({list(self._items)!r})"

    # -- aggregate hooks ----------------------------------------------------------------

    def admit_placement(
        self, network: "CloudNetwork", node: "NodeId", vnf_type: "VnfTypeId"
    ) -> bool:
        """True when every member admits the placement."""
        return all(c.admit_placement(network, node, vnf_type) for c in self._placement_vetoes)

    def admit_counts(
        self,
        network: "CloudNetwork",
        vnf_counts: Mapping[tuple["NodeId", "VnfTypeId"], int],
    ) -> bool:
        """True when every member admits the cumulative placement state."""
        return all(c.admit_counts(network, vnf_counts) for c in self._count_vetoes)

    def admit_path(self, network: "CloudNetwork", flow: "FlowConfig", path: "Path") -> bool:
        """True when every member admits the path."""
        return all(c.admit_path(network, flow, path) for c in self._path_vetoes)

    @property
    def vetoes_placements(self) -> bool:
        """True when any member overrides :meth:`Constraint.admit_placement`."""
        return bool(self._placement_vetoes)

    @property
    def vetoes_paths(self) -> bool:
        """True when any member overrides :meth:`Constraint.admit_path`."""
        return bool(self._path_vetoes)

    @property
    def vetoes_counts(self) -> bool:
        """True when any member overrides :meth:`Constraint.admit_counts`."""
        return bool(self._count_vetoes)

    @property
    def prices_links(self) -> bool:
        """True when any member contributes a link surcharge."""
        return any(c.prices_links for c in self._items)

    @property
    def filters_links(self) -> bool:
        """True when any member vetoes individual links."""
        return bool(self.link_vetoes)

    def admit_link(self, network: "CloudNetwork", link: "Link") -> bool:
        """True when every member admits the link."""
        return all(c.admit_link(network, link) for c in self._items)

    def link_filter(
        self, network: "CloudNetwork", base: "Callable[[Link], bool] | None"
    ) -> "Callable[[Link], bool] | None":
        """Compose ``base`` with the members' per-link vetoes.

        Returns ``base`` unchanged when no member filters links, keeping
        the constraint-free (and veto-free) hot paths untouched.
        """
        if not self.filters_links:
            return base
        admit = self.admit_link
        if base is None:
            return lambda link: admit(network, link)
        return lambda link: base(link) and admit(network, link)

    def link_surcharge(self, link: "Link") -> float:
        """Sum of every member's surcharge on one link (no base price)."""
        extra = 0.0
        for c in self._items:
            extra += c.link_surcharge(link)
        return extra

    def link_weight(self, link: "Link") -> float:
        """Search weight of one link: rental price plus every surcharge.

        Passed as the ``weight`` callable of
        :func:`repro.network.shortest.dijkstra` when :attr:`prices_links`.
        """
        return link.price + self.link_surcharge(link)

    def verify(
        self, network: "CloudNetwork", embedding: "Embedding", flow: "FlowConfig"
    ) -> None:
        """Raise the first member's :class:`ConstraintViolationError`."""
        for c in self._items:
            c.verify(network, embedding, flow)

    def check(
        self, network: "CloudNetwork", embedding: "Embedding", flow: "FlowConfig"
    ) -> ConstraintViolationError | None:
        """Non-raising :meth:`verify`: the first violation, or None."""
        try:
            self.verify(network, embedding, flow)
        except ConstraintViolationError as exc:
            return exc
        return None

    def repriced(
        self, network: "CloudNetwork", embedding: "Embedding", flow: "FlowConfig"
    ) -> "ConstraintSet | None":
        """A new set with every violated-and-repriceable member escalated.

        None when no member repriced (the caller accepts the failure).
        """
        changed = False
        items: list[Constraint] = []
        for c in self._items:
            replacement = c.repriced(network, embedding, flow)
            if replacement is None:
                items.append(c)
            else:
                items.append(replacement)
                changed = True
        if not changed:
            return None
        return ConstraintSet(items)

    def specs(self) -> list[dict[str, Any]]:
        """JSON-safe wire form of every member, in order."""
        return [c.spec() for c in self._items]


ConstraintSet.EMPTY = ConstraintSet()
