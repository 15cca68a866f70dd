"""The constraint registry: kind → class, spec decoding, CLI mini-specs.

Every concrete :class:`~repro.constraints.base.Constraint` registers its
``kind`` here, which is what makes constraints *pluggable*: the wire
protocol, the WAL, the fault drills, and ``--constraint`` CLI flags
all describe constraints as ``{"kind": ..., ...}`` specs and rebuild
them through this one table, so a new rule is a new module plus one
``register_constraint`` call — no transport or engine changes.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Mapping, TypeVar

from ..exceptions import ConfigurationError
from .base import Constraint, ConstraintSet

__all__ = [
    "register_constraint",
    "registered_kinds",
    "constraint_class",
    "constraint_from_spec",
    "constraints_from_specs",
    "parse_constraint_arg",
    "parse_constraint_args",
]

_REGISTRY: dict[str, type[Constraint]] = {}

C = TypeVar("C", bound=type[Constraint])


def register_constraint(cls: C) -> C:
    """Class decorator: make ``cls`` reachable by its ``kind``."""
    kind = cls.kind
    if not kind or kind == "abstract":
        raise ConfigurationError(f"constraint class {cls.__name__} must set a kind")
    existing = _REGISTRY.get(kind)
    if existing is not None and existing is not cls:
        raise ConfigurationError(
            f"constraint kind {kind!r} is already registered to {existing.__name__}"
        )
    _REGISTRY[kind] = cls
    return cls


def registered_kinds() -> tuple[str, ...]:
    """Every registered kind, sorted (stable for help text and tests)."""
    return tuple(sorted(_REGISTRY))


def constraint_class(kind: str) -> type[Constraint]:
    """The class registered under ``kind``; raises on unknown kinds."""
    try:
        return _REGISTRY[kind]
    except KeyError:
        known = ", ".join(registered_kinds()) or "none"
        raise ConfigurationError(
            f"unknown constraint kind {kind!r}; registered: {known}"
        ) from None


def constraint_from_spec(spec: Mapping[str, Any]) -> Constraint:
    """Rebuild one constraint from its serialized spec."""
    if not isinstance(spec, Mapping):
        raise ConfigurationError(f"constraint spec must be a mapping, got {spec!r}")
    kind = spec.get("kind")
    if not isinstance(kind, str):
        raise ConfigurationError(f"constraint spec is missing its kind: {spec!r}")
    return constraint_class(kind).from_spec(spec)


def constraints_from_specs(
    specs: Iterable[Mapping[str, Any]] | None,
) -> ConstraintSet:
    """Rebuild a whole :class:`ConstraintSet`; None/empty → the empty set."""
    if not specs:
        return ConstraintSet.EMPTY
    return ConstraintSet(constraint_from_spec(spec) for spec in specs)


def _parse_value(text: str) -> Any:
    """Best-effort scalar parse for CLI mini-spec values."""
    lowered = text.lower()
    if lowered in ("true", "false"):
        return lowered == "true"
    for cast in (int, float):
        try:
            return cast(text)
        except ValueError:
            continue
    return text


def parse_constraint_arg(arg: str) -> Constraint:
    """Decode one ``--constraint`` CLI mini-spec into a constraint.

    Format: ``kind`` or ``kind:key=value,key=value``. A key repeated
    collects its values into a list (how ``affinity:pair=1-2,pair=0-3``
    expresses several pairs). Values parse as int/float/bool when they
    look like one, else stay strings — each plugin's ``from_spec``
    normalizes further.
    """
    kind, _, body = arg.partition(":")
    kind = kind.strip()
    if not kind:
        raise ConfigurationError(f"empty constraint kind in {arg!r}")
    spec: dict[str, Any] = {"kind": kind}
    if body:
        for part in body.split(","):
            key, sep, raw = part.partition("=")
            key = key.strip()
            if not sep or not key:
                raise ConfigurationError(
                    f"malformed constraint option {part!r} in {arg!r} "
                    "(expected key=value)"
                )
            value = _parse_value(raw.strip())
            if key in spec and key != "kind":
                existing = spec[key]
                if isinstance(existing, list):
                    existing.append(value)
                else:
                    spec[key] = [existing, value]
            else:
                spec[key] = value
    return constraint_from_spec(spec)


def parse_constraint_args(
    args: Iterable[str] | None, parse: Callable[[str], Constraint] = parse_constraint_arg
) -> ConstraintSet:
    """Decode a repeatable ``--constraint`` flag list into one set."""
    if not args:
        return ConstraintSet.EMPTY
    return ConstraintSet(parse(arg) for arg in args)
