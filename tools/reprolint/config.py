"""Project-policy knobs for the reprolint rule pack.

The defaults encode the DAG-SFC repo conventions (see docs/static_analysis.md);
tests override individual fields to exercise rules against fixture trees.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["LintConfig", "DEFAULT_CONFIG"]


@dataclass(frozen=True)
class LintConfig:
    """Where each convention applies, expressed as path fragments.

    Directory names are matched against any component of the checked file's
    path; suffixes are matched against its POSIX form, so the same config
    works for ``src/repro/...`` and for fixture trees under ``tests/``.
    """

    #: basenames allowed to call ``np.random.default_rng()`` with no argument
    #: (process entry points that legitimately mint a fresh root stream).
    rng_entry_basenames: tuple[str, ...] = ("cli.py", "__main__.py")
    #: directory names whose modules are treated as entry points as well.
    rng_entry_dirs: tuple[str, ...] = ("sim",)
    #: module(s) that own residual-capacity bookkeeping; only they may touch
    #: the private usage dicts or assign capacity attributes.
    state_module_suffixes: tuple[str, ...] = ("network/state.py",)
    #: private ResidualState attributes off-limits everywhere else.
    state_private_attrs: tuple[str, ...] = ("_link_used", "_vnf_used")
    #: attributes that only the state module may rebind on foreign objects.
    capacity_attrs: tuple[str, ...] = ("capacity", "bandwidth")
    #: module(s) sanctioned to materialize full copies of sub-solution count
    #: mappings; everywhere else must chain deltas (copy-on-write, RPL211).
    counts_module_suffixes: tuple[str, ...] = ("solvers/counts.py",)
    #: sub-solution count attributes whose full copies RPL211 flags.
    counts_attrs: tuple[str, ...] = ("vnf_counts", "link_counts")
    #: directory names holding solver code (embedder registration enforced).
    solver_dir_names: tuple[str, ...] = ("solvers",)
    #: registry module basename looked up next to solver modules.
    registry_basename: str = "registry.py"
    #: name of the dict mapping solver names to factories.
    registry_dict: str = "_REGISTRY"
    #: base class whose concrete subclasses must be registered.
    embedder_base: str = "Embedder"
    #: identifier fragments that mark a float "cost-like" for RPL501.
    cost_name_fragments: tuple[str, ...] = ("cost", "price", "objective", "total")
    #: exact identifiers also treated as cost-like.
    cost_exact_names: tuple[str, ...] = ("total",)
    #: directory names holding transport-layer service code (RPL601).
    service_dir_names: tuple[str, ...] = ("service",)
    #: the package transport code must route domain imports through.
    engine_package: str = "engine"
    #: ``repro``-relative module prefixes the service may import only via
    #: the engine package's re-exports.
    service_forbidden_imports: tuple[str, ...] = (
        "solvers",
        "network.reservations",
        "network.state",
        "faults.repair",
    )
    #: the raw eq. 2–6 referee primitives; every caller outside the
    #: constraint framework must go through ``verify_embedding`` so
    #: registered extra constraints are never silently skipped (RPL214).
    feasibility_primitives: tuple[str, ...] = (
        "check_completeness",
        "check_capacity",
    )
    #: directory names owning the constraint framework (RPL214-exempt: the
    #: core constraints *are* the sanctioned wrappers of the primitives).
    constraints_dir_names: tuple[str, ...] = ("constraints",)
    #: module suffixes also sanctioned: the defining module and its package
    #: re-export surface.
    feasibility_module_suffixes: tuple[str, ...] = (
        "embedding/feasibility.py",
        "embedding/__init__.py",
    )
    #: method names that append write-ahead-log records (RPL212 confines
    #: their call sites to the engine's effect path).
    wal_append_methods: tuple[str, ...] = ("append_record",)
    #: ledger methods that change capacity (RPL212 confines them likewise).
    ledger_write_methods: tuple[str, ...] = ("reserve", "release")
    #: receiver-name fragments that mark a call target ledger-like.
    ledger_receiver_fragments: tuple[str, ...] = ("ledger",)
    #: module suffixes of the effect path: the engine core (live mutators,
    #: WAL replay, the checkpoint loader) and the ledger itself.
    effect_module_suffixes: tuple[str, ...] = (
        "engine/core.py",
        "network/reservations.py",
    )
    #: directory names whose modules own the log format (the WAL package).
    wal_dir_names: tuple[str, ...] = ("wal",)

    # -- async-safety pack (RPL7xx) -------------------------------------------

    #: exact dotted calls considered blocking on an event loop (after import
    #: aliases are expanded, so ``from time import sleep; sleep()`` matches).
    blocking_calls: tuple[str, ...] = (
        "time.sleep",
        "os.fsync",
        "os.fdatasync",
        "open",
        "io.open",
    )
    #: dotted-call prefixes considered blocking wholesale.
    blocking_call_prefixes: tuple[str, ...] = (
        "socket.",
        "subprocess.",
        "shutil.",
        "urllib.request.",
    )
    #: method names whose *direct* invocation blocks (solver entry points and
    #: the fsynced checkpoint); matched on ``self.x()`` / ``obj.x()`` calls.
    blocking_method_names: tuple[str, ...] = (
        "embed",
        "checkpoint",
    )
    #: callables whose arguments run off the event loop; their argument
    #: subtrees are exempt from blocking analysis (the executor hop).
    executor_wrappers: tuple[str, ...] = (
        "to_thread",
        "run_in_executor",
        "run_sync",
    )
    #: awaitable combinators: a call passed as their argument must produce a
    #: coroutine/future, so it resolves to async definitions only (same as a
    #: directly awaited call).
    awaitable_wrappers: tuple[str, ...] = (
        "wait_for",
        "gather",
        "shield",
        "wait",
        "ensure_future",
        "create_task",
    )
    #: module suffixes allowed to mutate shared engine/ledger/fault state
    #: across awaits (the single-writer dispatcher and the engine itself).
    dispatcher_module_suffixes: tuple[str, ...] = (
        "service/server.py",
        "engine/core.py",
    )
    #: attribute names identifying shared mutable state guarded by the
    #: single-writer contract (RPL702 flags ``self.<attr>... = / .mutate()``
    #: in a coroutine that also awaits, outside dispatcher modules).
    shared_state_attrs: tuple[str, ...] = (
        "engine",
        "ledger",
        "fault_state",
        "reservations",
        "residual",
    )
    #: mutating method names on shared state objects (RPL702).
    shared_mutator_methods: tuple[str, ...] = (
        "reserve",
        "release",
        "commit",
        "apply_fault",
        "apply",
        "submit",
        "restore",
    )
    #: identifier fragments that mark a receiver lock-like for RPL704.
    lock_name_fragments: tuple[str, ...] = ("lock", "mutex", "sem")


DEFAULT_CONFIG = LintConfig()
