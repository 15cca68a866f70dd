"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_figure_args(self):
        args = build_parser().parse_args(["figure", "6a", "--trials", "2"])
        assert args.id == "6a"
        assert args.trials == 2

    def test_unknown_figure_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["figure", "9z"])

    def test_serve_keeps_only_workers_zero(self):
        args = build_parser().parse_args(["serve", "--workers", "0"])
        assert args.workers == 0

    @pytest.mark.parametrize(
        "retired", [["--workers", "2"], ["--speculative"], ["--admission", "fifo"]]
    )
    def test_serve_rejects_retired_dispatch_flags(self, retired):
        with pytest.raises(SystemExit) as info:
            build_parser().parse_args(["serve", *retired])
        assert info.value.code == 2

    def test_serve_rejects_the_retired_snapshot_flag(self):
        with pytest.raises(SystemExit) as info:
            main(["serve", "--snapshot", "state.json"])
        assert info.value.code == 2

    def test_serve_resume_requires_wal(self, capsys):
        assert main(["serve", "--resume"]) == 2
        assert "--resume requires --wal" in capsys.readouterr().err


class TestCommands:
    def test_list_solvers(self, capsys):
        assert main(["list-solvers"]) == 0
        out = capsys.readouterr().out
        assert "MBBE" in out and "RANV" in out

    def test_solve_success(self, capsys):
        rc = main([
            "solve", "--network-size", "30", "--sfc-size", "3",
            "--seed", "2", "--solvers", "MINV,MBBE",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "MINV" in out and "MBBE" in out and "cost=" in out

    def test_figure_table2_tiny(self, capsys, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_NET_SCALE", "0.06")  # 30-node network
        csv_path = tmp_path / "out.csv"
        rc = main([
            "figure", "table2", "--trials", "1", "--chart",
            "--csv", str(csv_path),
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "MBBE" in out
        assert csv_path.exists()
        assert "mean_cost" in csv_path.read_text()


class TestExtendedCommands:
    def test_compare(self, capsys):
        rc = main([
            "compare", "MBBE", "MINV", "--trials", "4",
            "--network-size", "30", "--sfc-size", "3",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Welch t" in out and "paired:" in out

    def test_online(self, capsys):
        rc = main([
            "online", "--steps", "40", "--network-size", "30", "--sfc-size", "3",
            "--solvers", "MINV,MBBE",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "acceptance" in out or "ratio" in out
        assert "MBBE" in out

    def test_inspect_with_save(self, capsys, tmp_path):
        path = tmp_path / "inst.json"
        rc = main([
            "inspect", "--network-size", "30", "--sfc-size", "4",
            "--seed", "2", "--save", str(path),
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "layer" in out and "sum" in out
        assert path.exists()

        from repro.serialize import load_instance

        _, _, _, _, emb, meta = load_instance(str(path))
        assert emb is not None and meta["solver"] == "MBBE"
