"""The reprolint static-analysis suite: fixtures, live-tree gate, CLI wiring."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

from tools.reprolint import DEFAULT_CONFIG, run_paths
from tools.reprolint.cli import main as reprolint_main
from tools.reprolint.engine import META_RULES, all_rules
from tools.reprolint.suppressions import collect_suppressions

REPO_ROOT = Path(__file__).resolve().parents[1]
FIXTURES = REPO_ROOT / "tests" / "lint_fixtures"
SRC = REPO_ROOT / "src" / "repro"


def codes_for(target: Path) -> list[str]:
    diagnostics, _ = run_paths([target])
    return sorted(d.code for d in diagnostics)


#: fixture path (relative to tests/lint_fixtures) -> exact expected finding codes.
EXPECTED: dict[str, list[str]] = {
    "fail_rpl101_stdlib_random.py": ["RPL101", "RPL101"],
    "fail_rpl102_module_level_rng.py": ["RPL102", "RPL102"],
    "fail_rpl103_unseeded_default_rng.py": ["RPL103", "RPL103"],
    "fail_rpl104_legacy_numpy.py": ["RPL104", "RPL104", "RPL104"],
    "fail_rpl201_private_state.py": ["RPL201", "RPL201", "RPL201"],
    "fail_rpl401_mutable_default.py": ["RPL401", "RPL401", "RPL401"],
    "fail_rpl501_float_cost_eq.py": ["RPL501", "RPL501"],
    "fail_rpl211_counts_full_copy.py": ["RPL211", "RPL211", "RPL211"],
    "fail_rpl214_direct_referee.py": ["RPL214", "RPL214", "RPL214"],
    "fail_rpl001_reasonless_suppression.py": ["RPL001"],
    "fail_rpl002_unknown_code.py": ["RPL002"],
    "fail_rpl003_syntax_error.py": ["RPL003"],
    "fail_rpl004_unused_suppression.py": ["RPL004"],
    # RPL202 is retired; RPL212 confines per-element reserve_*/release_*.
    "solvers/fail_rpl202_unbalanced_reserve.py": ["RPL212"],
    "service/fail_rpl601_direct_imports.py": ["RPL601", "RPL601", "RPL601"],
    "service/fail_rpl212_transport_append.py": ["RPL212"] * 3,
    "engine/fail_rpl212_view_resize.py": ["RPL212", "RPL212"],
    # RPL213 is retired; RPL212 catches its hand-rolled migrations.
    "service/fail_rpl213_manual_migration.py": ["RPL212"] * 4,
    "pass_rpl213_engine_migrate.py": [],
    "pass_rpl214_via_verify.py": [],
    "regpack": ["RPL301", "RPL301"],
    "fail_rpl701_blocking_in_async.py": ["RPL701"] * 3,
    "fail_rpl702_shared_mutation.py": ["RPL702", "RPL702"],
    "fail_rpl703_fire_and_forget.py": ["RPL703"],
    "fail_rpl704_lock_discipline.py": ["RPL704", "RPL704"],
    # clean fixtures:
    "pass_rng_discipline.py": [],
    "pass_counts_cow.py": [],
    "solvers/counts.py": [],
    "pass_suppression_with_reason.py": [],
    "pass_tolerance_helper.py": [],
    "cli.py": [],
    "solvers/pass_rpl202_guarded.py": [],
    "service/pass_rpl601_via_engine.py": [],
    "engine/core.py": [],
    "regpack/solvers/pass_abstract_skipped.py": [],
    "pass_rpl701_executor_hop.py": [],
    "pass_rpl702_dispatcher_queue.py": [],
    "pass_rpl703_stored_task.py": [],
    "pass_rpl704_lock_discipline.py": [],
}


@pytest.mark.parametrize("relpath", sorted(EXPECTED))
def test_fixture_findings(relpath: str) -> None:
    assert codes_for(FIXTURES / relpath) == EXPECTED[relpath]


@pytest.mark.parametrize(
    "relpath",
    sorted(p for p, codes in EXPECTED.items() if codes),
)
def test_failing_fixtures_exit_nonzero(relpath: str, capsys: pytest.CaptureFixture[str]) -> None:
    assert reprolint_main([str(FIXTURES / relpath)]) == 1
    out = capsys.readouterr().out
    assert EXPECTED[relpath][0] in out


@pytest.mark.parametrize(
    "relpath",
    sorted(p for p, codes in EXPECTED.items() if not codes),
)
def test_passing_fixtures_exit_zero(relpath: str, capsys: pytest.CaptureFixture[str]) -> None:
    assert reprolint_main([str(FIXTURES / relpath)]) == 0
    assert "clean" in capsys.readouterr().out


# -- the live tree is the real acceptance gate ---------------------------------------


def test_live_tree_is_clean() -> None:
    diagnostics, files_checked = run_paths([SRC])
    assert files_checked > 70
    assert [d.format() for d in diagnostics] == []


def test_reprolint_is_clean_on_itself() -> None:
    diagnostics, _ = run_paths([REPO_ROOT / "tools"])
    assert [d.format() for d in diagnostics] == []


def test_live_tree_has_no_reasonless_suppressions() -> None:
    for path in sorted(SRC.rglob("*.py")):
        for sup in collect_suppressions(path.read_text(encoding="utf-8")):
            assert sup.has_reason, f"{path}:{sup.line}: suppression without reason"


def test_module_invocation_matches_acceptance_command() -> None:
    proc = subprocess.run(
        [sys.executable, "-m", "tools.reprolint", "src/repro"],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr


# -- registry conformance, import-based (complements the AST rule) -------------------


def test_every_embedder_subclass_is_reachable_from_registry() -> None:
    from repro.embedding.base import Embedder
    from repro.solvers import registry as solver_registry
    import repro.solvers  # noqa: F401  (import the package so subclasses exist)

    def concrete_subclasses(cls: type) -> set[type]:
        out: set[type] = set()
        for sub in cls.__subclasses__():
            out.add(sub)
            out |= concrete_subclasses(sub)
        return out

    produced: set[type] = set()
    for name in solver_registry.available_solvers():
        solver = solver_registry.make_solver(name)
        produced.add(type(solver))
        inner = getattr(solver, "base", None)
        if inner is not None:
            produced.add(type(inner))

    for sub in concrete_subclasses(Embedder):
        reachable = sub in produced or any(issubclass(p, sub) for p in produced)
        assert reachable, (
            f"Embedder subclass {sub.__name__} is not reachable from the solver "
            "registry; register it or mark it abstract"
        )


# -- output formats and CLI surface ---------------------------------------------------


def test_json_output_schema(capsys: pytest.CaptureFixture[str]) -> None:
    target = FIXTURES / "fail_rpl401_mutable_default.py"
    assert reprolint_main([str(target), "--format", "json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["tool"] == "reprolint"
    assert payload["files_checked"] == 1
    codes = [f["code"] for f in payload["findings"]]
    assert codes == EXPECTED["fail_rpl401_mutable_default.py"]
    first = payload["findings"][0]
    assert set(first) == {"path", "line", "col", "code", "message"}


def test_github_output_annotations(capsys: pytest.CaptureFixture[str]) -> None:
    target = FIXTURES / "fail_rpl701_blocking_in_async.py"
    assert reprolint_main([str(target), "--format", "github"]) == 1
    lines = capsys.readouterr().out.strip().splitlines()
    errors = [ln for ln in lines if ln.startswith("::error ")]
    assert len(errors) == len(EXPECTED["fail_rpl701_blocking_in_async.py"])
    first = errors[0]
    assert "file=" in first and "line=" in first and "col=" in first
    assert "title=reprolint RPL701" in first
    # the annotated path must be usable by Actions (the path as given)
    assert "fail_rpl701_blocking_in_async.py" in first
    assert lines[-1].startswith("::notice title=reprolint::")


def test_github_output_clean_run(capsys: pytest.CaptureFixture[str]) -> None:
    assert reprolint_main([str(FIXTURES / "cli.py"), "--format", "github"]) == 0
    out = capsys.readouterr().out
    assert "::error" not in out
    assert "::notice title=reprolint::clean" in out


def test_github_output_escapes_message_newlines() -> None:
    from tools.reprolint.diagnostics import Diagnostic, format_github

    diag = Diagnostic(path="a.py", line=1, col=0, code="RPL999", message="two\nlines: 50%")
    out = format_github([diag], 1)
    first = out.splitlines()[0]
    assert "\n" not in first or out.count("::error") == 1
    assert "two%0Alines" in first and "50%25" in first


def test_select_restricts_rules() -> None:
    target = FIXTURES / "fail_rpl104_legacy_numpy.py"
    diagnostics, _ = run_paths([target], select=["RPL101"])
    assert diagnostics == []
    diagnostics, _ = run_paths([target], select=["RPL104"])
    assert {d.code for d in diagnostics} == {"RPL104"}


def test_select_skips_the_unused_suppression_audit(tmp_path: Path) -> None:
    """RPL004 only audits full runs: under --select a suppression for an
    unselected rule is *expected* to silence nothing."""
    mod = tmp_path / "mod.py"
    mod.write_text(
        "import random  # reprolint: disable=RPL101 -- needed here\n",
        encoding="utf-8",
    )
    # full run: the suppression is used, no RPL004 either
    diagnostics, _ = run_paths([mod])
    assert diagnostics == []
    # selected run that never raises RPL101: the suppression silences
    # nothing, but the audit must not fire (it needs the full pack to know)
    diagnostics, _ = run_paths([mod], select=["RPL401"])
    assert diagnostics == []


def test_full_run_still_audits_unused_suppressions(tmp_path: Path) -> None:
    mod = tmp_path / "mod.py"
    mod.write_text(
        "x = 1  # reprolint: disable=RPL101 -- stale leftover\n",
        encoding="utf-8",
    )
    diagnostics, _ = run_paths([mod])
    assert [d.code for d in diagnostics] == ["RPL004"]


def test_unknown_select_is_a_usage_error(capsys: pytest.CaptureFixture[str]) -> None:
    assert reprolint_main([str(FIXTURES / "cli.py"), "--select", "RPL999"]) == 2
    assert "unknown rule code" in capsys.readouterr().err


def test_missing_path_is_a_usage_error(capsys: pytest.CaptureFixture[str]) -> None:
    assert reprolint_main([str(FIXTURES / "no_such_file.py")]) == 2
    assert "error" in capsys.readouterr().err


def test_list_rules_covers_the_documented_catalog(capsys: pytest.CaptureFixture[str]) -> None:
    assert reprolint_main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for code in list(all_rules()) + list(META_RULES):
        assert code in out
    # the codes documented in docs/static_analysis.md all exist
    doc = (REPO_ROOT / "docs" / "static_analysis.md").read_text(encoding="utf-8")
    for code in list(all_rules()) + list(META_RULES):
        assert code in doc, f"{code} missing from docs/static_analysis.md"


def test_dag_sfc_lint_subcommand(capsys: pytest.CaptureFixture[str]) -> None:
    from repro.cli import main as dag_sfc_main

    assert dag_sfc_main(["lint", str(FIXTURES / "pass_rng_discipline.py")]) == 0
    assert "clean" in capsys.readouterr().out
    assert dag_sfc_main(["lint", str(FIXTURES / "fail_rpl101_stdlib_random.py")]) == 1
    assert "RPL101" in capsys.readouterr().out


# -- suppression semantics ------------------------------------------------------------


def test_reasoned_suppression_silences_and_counts_as_used(tmp_path: Path) -> None:
    mod = tmp_path / "mod.py"
    mod.write_text(
        "import random  # reprolint: disable=RPL101 -- vendored example\n",
        encoding="utf-8",
    )
    diagnostics, _ = run_paths([mod])
    assert diagnostics == []


def test_reasonless_suppression_still_fails_the_run(tmp_path: Path) -> None:
    mod = tmp_path / "mod.py"
    mod.write_text("import random  # reprolint: disable=RPL101\n", encoding="utf-8")
    diagnostics, _ = run_paths([mod])
    assert [d.code for d in diagnostics] == ["RPL001"]


def test_suppression_only_covers_its_own_line(tmp_path: Path) -> None:
    mod = tmp_path / "mod.py"
    mod.write_text(
        "import random  # reprolint: disable=RPL101 -- first import only\n"
        "from random import choice\n",
        encoding="utf-8",
    )
    diagnostics, _ = run_paths([mod])
    assert [d.code for d in diagnostics] == ["RPL101"]
    assert diagnostics[0].line == 2


def test_meta_findings_cannot_be_suppressed(tmp_path: Path) -> None:
    mod = tmp_path / "mod.py"
    mod.write_text(
        "import random  # reprolint: disable=RPL101,RPL001\n",
        encoding="utf-8",
    )
    diagnostics, _ = run_paths([mod])
    assert [d.code for d in diagnostics] == ["RPL001"]


# -- config-driven path policy --------------------------------------------------------


def test_entry_point_policy_follows_config(tmp_path: Path) -> None:
    lib = tmp_path / "library.py"
    lib.write_text(
        "import numpy as np\n\ndef f():\n    return np.random.default_rng()\n",
        encoding="utf-8",
    )
    assert [d.code for d in (run_paths([lib]))[0]] == ["RPL103"]
    entry = tmp_path / "cli.py"
    entry.write_text(
        "import numpy as np\n\ndef f():\n    return np.random.default_rng()\n",
        encoding="utf-8",
    )
    assert (run_paths([entry]))[0] == []
    sim_dir = tmp_path / "sim"
    sim_dir.mkdir()
    runner = sim_dir / "runner.py"
    runner.write_text(
        "import numpy as np\n\ndef f():\n    return np.random.default_rng()\n",
        encoding="utf-8",
    )
    assert (run_paths([runner]))[0] == []


def test_default_config_matches_repo_conventions() -> None:
    assert "sim" in DEFAULT_CONFIG.rng_entry_dirs
    assert "network/state.py" in DEFAULT_CONFIG.state_module_suffixes
    assert "solvers" in DEFAULT_CONFIG.solver_dir_names
    assert "solvers/counts.py" in DEFAULT_CONFIG.counts_module_suffixes
    assert set(DEFAULT_CONFIG.counts_attrs) == {"vnf_counts", "link_counts"}
    assert DEFAULT_CONFIG.registry_dict == "_REGISTRY"
    # The merged effect-path rule: the repair planner no longer writes the
    # ledger, and checkpoints load in the engine core, so neither the
    # planner nor the state store is exempt.
    assert "faults/repair.py" not in DEFAULT_CONFIG.effect_module_suffixes
    assert "engine/state_store.py" not in DEFAULT_CONFIG.effect_module_suffixes


def test_effect_rule_flags_ledger_writes_outside_the_effect_path(tmp_path: Path) -> None:
    faults = tmp_path / "faults"
    faults.mkdir()
    planner = faults / "repair.py"
    planner.write_text(
        "def repair(ledger, request_id):\n    ledger.release(request_id)\n",
        encoding="utf-8",
    )
    assert [d.code for d in run_paths([planner])[0]] == ["RPL212"]
    loader = tmp_path / "engine" / "state_store.py"
    loader.parent.mkdir()
    loader.write_text(
        "def load(ledger, request_id, r):\n    ledger.reserve(request_id, r)\n",
        encoding="utf-8",
    )
    assert [d.code for d in run_paths([loader])[0]] == ["RPL212"]
