"""CLI tests (python -m repro)."""

import dataclasses

import pytest

from repro.__main__ import build_parser, main
from repro.harness import figures
from tests.harness.test_figures_unit import WORKLOADS, synthetic_suite


class TestParser:
    def test_list_parses(self):
        args = build_parser().parse_args(["list"])
        assert args.command == "list"

    def test_run_defaults(self):
        args = build_parser().parse_args(["run", "lorenz"])
        assert args.config == "seq_short"
        assert args.altmath == "boxed_ieee"
        assert args.scale is None

    def test_run_rejects_unknown_workload(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "spec2017"])

    def test_run_rejects_unknown_config(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "lorenz", "--config", "warp"])

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "lorenz" in out and "boxed_ieee" in out

    def test_run_small(self, capsys):
        assert main(["run", "lorenz", "--scale", "30"]) == 0
        out = capsys.readouterr().out
        assert "bit-for-bit:        True" in out
        assert "slowdown:" in out
        assert "altmath" in out

    def test_run_with_config_and_altmath(self, capsys):
        assert main(["run", "fbench", "--scale", "2",
                     "--config", "none", "--altmath", "posit"]) == 0
        out = capsys.readouterr().out
        assert "NONE, posit" in out

    def test_characterize(self, capsys):
        assert main(["characterize", "lorenz", "--scale", "30", "--top", "2"]) == 0
        out = capsys.readouterr().out
        assert "rank 1:" in out
        assert "avg length" in out

    def test_characterize_verbose(self, capsys):
        assert main(["characterize", "lorenz", "--scale", "20",
                     "--top", "1", "--verbose"]) == 0
        out = capsys.readouterr().out
        assert "terminator" in out

    def test_figures_writes_files(self, tmp_path, monkeypatch, capsys):
        # Every registry data function returns canned data (the Suite
        # figures computed on the synthetic suite), so this runs the
        # CLI's loop, not the experiments.
        suite = synthetic_suite()
        trap = figures.TrapCostTable(380, 3800, 1800, 350, 100, 5980, 830)
        canned = {
            "trap_microbench": (trap, [figures.TrapClassRow("invalid", 10, 380, 5980, 830)]),
            "trap_heatmap": {},
            "fig02": trap,
            "fig03": figures.MagicTrapCosts(6000.0, 100.0),
            "fig07": "# lorenz trace rank 3\n* inc rax    ; terminator (unsupported)",
            "profiler_vs_static": [figures.PatchSiteComparison("lorenz", 3, 2, True)],
        }
        expected = {}
        for stem, table in figures.TABLES.items():
            data = canned[stem] if stem in canned else table.data(suite, WORKLOADS)
            monkeypatch.setitem(figures.TABLES, stem,
                                dataclasses.replace(table, data=lambda *_, d=data: d))
            if table.suite != "mpfr":
                expected[f"{stem}.txt"] = table.render(data) + "\n"

        assert main(["figures", "--skip-mpfr", "--out", str(tmp_path)]) == 0
        written = {p.name: p.read_text() for p in tmp_path.iterdir()}
        assert written == expected
