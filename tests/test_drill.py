"""``dag-sfc drill``: every registered drill ends in a verdict, the exit code
follows it, and no subprocess wait can hang.

The drills themselves run end to end through ``repro.cli.main`` (a few
seconds each): the in-process fault drills, the kill -9 durability and
rebalance drills, and the 2-shard serve drill. Every drill but ``shards``
must reproduce its committed ``BENCH_<scenario>.json``. ``stress`` takes
about 15 s, so it runs only with ``REPRO_SLOW_DRILLS=1`` (CI's stress leg
sets it).
"""

import json
import os
import sys
import time
from pathlib import Path

import pytest

from repro.cli import main
from repro.drill import DRILLS, Drill, DrillTimeout, run_drill, spawn_server

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("scenario, seed", [("shards", 5)])
def test_drill_passes(scenario, seed, tmp_path, capsys):
    out = tmp_path / "report.json"
    assert main(["drill", scenario, "--seed", str(seed), "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["ok"] is True
    assert report["seed"] == seed
    assert "verdict: OK" in capsys.readouterr().out


def flatten(doc, prefix=""):
    out = {}
    for key, value in doc.items():
        if isinstance(value, dict):
            out.update(flatten(value, f"{prefix}{key}."))
        else:
            out[f"{prefix}{key}"] = value
    return out


#: fields that depend on wall-clock timing rather than on the seed, matched
#: by prefix: ``time_to_repair_ms`` is a table, or null when no repair ran.
TIMING_FIELDS = (
    "crash.recovery_time_s",
    "promotion.promotion_time_s",
    "live.cycles_time_s",
    "duration_s",
    "time_to_repair_ms",
)


def seeded(doc):
    """The report's fields that the seed decides, flattened."""
    return {
        key: value
        for key, value in flatten(doc).items()
        if not any(key == field or key.startswith(f"{field}.") for field in TIMING_FIELDS)
    }


slow = pytest.mark.skipif(
    os.environ.get("REPRO_SLOW_DRILLS") != "1", reason="set REPRO_SLOW_DRILLS=1 to run"
)


@pytest.mark.parametrize(
    "scenario",
    ["durability", "rebalance", "smoke", "delay_budget", pytest.param("stress", marks=slow)],
)
def test_drill_reproduces_the_committed_bench(scenario, tmp_path):
    """The committed BENCH_<scenario>.json is a drill output at the drill's
    default seed: same format, same fields, and the same values wherever
    the seed decides them."""
    committed = seeded(json.loads((ROOT / f"BENCH_{scenario}.json").read_text()))
    out = tmp_path / "report.json"
    assert main(["drill", scenario, "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["ok"] is True and report["seed"] == DRILLS[scenario].default_seed
    assert seeded(report) == committed


def test_committed_delay_budget_binds_at_admission():
    """``delay_budget`` is ``smoke`` plus a delay budget: the same network,
    trace and fault script. Its committed report must accept fewer
    requests, so the budget shapes admissions and not only repairs."""
    smoke = json.loads((ROOT / "BENCH_smoke.json").read_text())
    delay = json.loads((ROOT / "BENCH_delay_budget.json").read_text())
    assert delay["submitted"] == smoke["submitted"]
    assert delay["faults_injected"] == smoke["faults_injected"]
    assert delay["accepted"] < smoke["accepted"]


def test_unknown_scenario_exits_2_and_names_the_registry(capsys):
    assert main(["drill", "no-such-drill"]) == 2
    err = capsys.readouterr().err
    for name in DRILLS:
        assert name in err


def test_missing_scenario_exits_2():
    assert main(["drill"]) == 2


def test_list_prints_the_registry(capsys):
    assert main(["drill", "--list"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines] == list(DRILLS)
    assert {"smoke", "stress", "delay_budget", "durability", "rebalance", "shards"} <= set(
        DRILLS
    )


def test_silent_server_hits_the_banner_deadline(tmp_path):
    started = time.monotonic()
    with pytest.raises(DrillTimeout) as info:
        spawn_server(
            [sys.executable, "-c", "import time; time.sleep(60)"],
            str(tmp_path / "silent.log"),
            phase="spawn",
            banner_timeout=1.0,
        )
    assert time.monotonic() - started < 5.0
    assert info.value.phase == "spawn"
    assert "banner" in str(info.value)


def test_server_that_exits_early_is_reported_with_its_log(tmp_path):
    with pytest.raises(DrillTimeout) as info:
        spawn_server(
            [sys.executable, "-c", "print('boom'); raise SystemExit(3)"],
            str(tmp_path / "dead.log"),
            phase="spawn",
        )
    assert "code 3" in str(info.value)
    assert info.value.log_tail == ["boom"]


def test_expired_deadline_is_a_failed_verdict(monkeypatch, tmp_path, capsys):
    def timed_out(*, solver, seed):
        raise DrillTimeout("crash", "a client call outlived its deadline", ["last line"])

    monkeypatch.setitem(
        DRILLS, "hang", Drill("hang", "always times out", timed_out, 1)
    )
    report = run_drill("hang")
    assert report["ok"] is False
    assert report["failed_phase"] == "crash"
    assert report["log_tail"] == ["last line"]

    out = tmp_path / "report.json"
    assert main(["drill", "hang", "--out", str(out)]) == 1
    assert json.loads(out.read_text())["failed_phase"] == "crash"
    text = capsys.readouterr().out
    assert "crash: a client call outlived its deadline" in text
    assert "verdict: FAILED" in text

