"""Tests for the command-line interface."""

from __future__ import annotations

import pytest

from repro import (
    AdaptiveReplication,
    CostModel,
    NoisyOraclePredictor,
    OraclePredictor,
    optimal_cost,
    simulate,
)
from repro.cli import build_parser, main
from repro.workloads import ibm_like_trace

from conftest import slab_passes


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_sweep_defaults(self):
        args = build_parser().parse_args(["sweep"])
        assert args.command == "sweep"
        assert args.requests == 2000

    def test_sweep_repeatable_lambda(self):
        args = build_parser().parse_args(
            ["sweep", "--lambda", "10", "--lambda", "100"]
        )
        assert args.lam == [10.0, 100.0]

    def test_tight_options(self):
        args = build_parser().parse_args(["tight", "--alpha", "0.3"])
        assert args.alpha == 0.3


class TestCommands:
    def test_tight_runs(self, capsys):
        assert main(["tight", "--alpha", "0.5", "--m", "301"]) == 0
        out = capsys.readouterr().out
        assert "Figure 5" in out and "Figure 6" in out

    def test_wang_runs(self, capsys):
        assert main(["wang", "--m", "200"]) == 0
        out = capsys.readouterr().out
        assert "Figure 9" in out
        assert "2.5" in out

    def test_adversary_runs(self, capsys):
        assert main(["adversary", "--requests", "120"]) == 0
        out = capsys.readouterr().out
        assert "Section 9" in out

    def test_sweep_runs_small(self, capsys):
        assert (
            main(
                [
                    "sweep",
                    "--lambda",
                    "100",
                    "--requests",
                    "200",
                    "--coarse",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "lambda = 100" in out

    def test_adaptive_runs_small(self, capsys):
        code, spans = slab_passes(
            lambda: main(["adaptive", "--requests", "300", "--beta", "0.5"])
        )
        assert code == 0
        # the 9 cells run as one slab pass, not cell by cell
        assert [cells for _, cells in spans] == [9]
        out = capsys.readouterr().out
        assert "ratio" in out
        # and print the reference simulator's ratios
        trace = ibm_like_trace(m=300, seed=0)
        model = CostModel(lam=1000.0, n=trace.n)
        opt = optimal_cost(trace, model)
        expected = []
        for alpha in (0.1, 0.5, 1.0):
            for acc in (0.0, 0.5, 1.0):
                pred = (
                    OraclePredictor(trace)
                    if acc >= 1.0
                    else NoisyOraclePredictor(trace, acc, seed=0)
                )
                run = simulate(
                    trace, model, AdaptiveReplication(pred, alpha, beta=0.5)
                )
                expected.append(
                    f"{alpha:5.1f}  {acc:8.0%}  {run.total_cost / opt:6.3f}"
                )
        assert out.splitlines()[2:] == expected

    def test_sweep_heatmap_flag(self, capsys):
        assert (
            main(
                [
                    "sweep",
                    "--lambda",
                    "100",
                    "--requests",
                    "150",
                    "--coarse",
                    "--heatmap",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "heat map" in out and "legend" in out


class TestTraceCommand:
    def _save(self, tmp_path, name="w.csv"):
        from repro.system import save_trace
        from repro.workloads import uniform_random_trace

        tr = uniform_random_trace(4, 120, 1000.0, seed=9)
        path = tmp_path / name
        save_trace(tr, path)
        return tr, path

    def test_info_prints_format_and_summary(self, tmp_path, capsys):
        _, path = self._save(tmp_path)
        assert main(["trace", "info", str(path)]) == 0
        out = capsys.readouterr().out
        assert "format          csv" in out
        assert "requests (m)    120" in out
        assert "servers (n)     4" in out

    def test_info_mmap_npz(self, tmp_path, capsys):
        from repro.system import save_trace_npz
        from repro.workloads import uniform_random_trace

        path = tmp_path / "w.npz"
        save_trace_npz(uniform_random_trace(3, 50, 100.0, seed=1), path)
        assert main(["trace", "info", str(path), "--mmap"]) == 0
        assert "memory-mapped" in capsys.readouterr().out

    @pytest.mark.parametrize("dst_ext", ["npz", "jsonl.gz", "csv.gz"])
    def test_convert_round_trip(self, tmp_path, capsys, dst_ext):
        from repro.experiments.cache import trace_digest
        from repro.system import load_trace

        tr, src = self._save(tmp_path)
        dst = tmp_path / f"w.{dst_ext}"
        assert main(["trace", "convert", str(src), str(dst)]) == 0
        assert trace_digest(load_trace(dst)) == trace_digest(tr)
        assert dst_ext in capsys.readouterr().out

    def test_unknown_format_exits_2(self, tmp_path, capsys):
        assert main(["trace", "info", str(tmp_path / "x.parquet")]) == 2
        assert "cannot detect" in capsys.readouterr().err

    def test_missing_file_exits_2(self, tmp_path, capsys):
        assert main(["trace", "info", str(tmp_path / "missing.csv")]) == 2
