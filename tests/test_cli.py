"""Tests for the command-line interface."""

from __future__ import annotations

import argparse
import csv

import pytest

from repro import (
    AdaptiveReplication,
    CostModel,
    FixedPredictor,
    LearningAugmentedReplication,
    NoisyOraclePredictor,
    OraclePredictor,
    WangReplication,
    optimal_cost,
    simulate,
)
from repro.analysis.sweep import algorithm1_factory
from repro.cli import build_parser, main
from repro.workloads import (
    LowerBoundAdversary,
    consistency_tight_trace,
    ibm_like_trace,
    robustness_tight_trace,
    wang_counterexample_trace,
)

from conftest import slab_passes


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_subcommands(self):
        sub = next(
            a for a in build_parser()._actions
            if isinstance(a, argparse._SubParsersAction)
        )
        assert list(sub.choices) == [
            "experiments", "fleet", "trace", "bench", "obs",
        ]


def _beyond(alpha):
    return LearningAugmentedReplication(FixedPredictor(False), alpha)


class TestCommands:
    """The deleted paper commands' replacements: registered scenarios
    run through ``experiments run``, whose rows.csv cell at an old
    command's defaults equals ``simulate`` + ``optimal_cost`` on the old
    command's instance, bit for bit."""

    def _ratio(self, tmp_path, name, cell, trace, policy, lam=100.0,
               flags=()):
        assert main([
            "experiments", "run", name, "--no-cache", "--workers", "1",
            "--out", str(tmp_path), *flags,
        ]) == 0
        with open(tmp_path / name / "rows.csv", newline="") as fh:
            row = next(
                r for r in csv.DictReader(fh)
                if (float(r["alpha"]), float(r["accuracy"])) == cell
            )
        model = CostModel(lam=lam, n=trace.n)
        assert float(row["online_cost"]) == simulate(trace, model, policy).total_cost
        assert float(row["optimal_cost"]) == optimal_cost(trace, model)
        return f"{float(row['ratio']):.4f}"

    def test_tight_runs(self, tmp_path):
        """``repro tight`` (alpha 0.5, m = 2001): Figures 5 and 6."""
        tr = robustness_tight_trace(100.0, 0.5, 2001)
        assert self._ratio(
            tmp_path, "tight-robustness", (0.5, 0.0), tr, _beyond(0.5)
        ) == "2.9950"
        tr = consistency_tight_trace(100.0, cycles=667)
        oracle = LearningAugmentedReplication(OraclePredictor(tr), 0.5)
        assert self._ratio(
            tmp_path, "tight-consistency", (0.5, 1.0), tr, oracle
        ) == "1.8332"

    def test_wang_runs(self, tmp_path):
        """``repro wang`` (m = 1000): Figure 9."""
        tr = wang_counterexample_trace(100.0, m=1000)
        assert self._ratio(
            tmp_path, "wang-counterexample", (1.0, 0.0), tr, WangReplication()
        ) == "2.4996"

    def test_adversary_runs(self, tmp_path):
        """``repro adversary`` (alpha 0.5, 500 requests): Section 9."""
        out = LowerBoundAdversary(lam=100.0).run(_beyond(0.5), n_requests=500)
        assert self._ratio(
            tmp_path, "adversarial-lower-bound", (0.5, 0.0), out.trace,
            _beyond(0.5),
        ) == "1.7499"

    def test_sweep_runs_small(self, tmp_path):
        """``repro sweep --lambda 100`` maps onto ``fig26`` (coarse
        here), at the paper's trace size."""
        tr = ibm_like_trace(n=10, seed=0)
        policy = algorithm1_factory(tr, 100.0, 0.5, 0.5, 0)
        self._ratio(
            tmp_path, "fig26", (0.5, 0.5), tr, policy, flags=["--coarse"]
        )

    def test_adaptive_runs_small(self, tmp_path):
        """``repro adaptive`` is ``fig29 --coarse``: its 3x3 adaptive
        cells (lambda 1000, beta 0.1) run as kernel slabs."""
        tr = ibm_like_trace(n=10, seed=0)
        policy = AdaptiveReplication(
            NoisyOraclePredictor(tr, 0.5, seed=0), 0.5, beta=0.1, warmup=100
        )
        _, spans = slab_passes(lambda: self._ratio(
            tmp_path, "fig29", (0.5, 0.5), tr, policy, lam=1000.0,
            flags=["--coarse"],
        ))
        assert {tier for tier, _ in spans} == {"kernel"}
        assert sum(cells for _, cells in spans) == 9


@pytest.mark.parametrize(
    "argv",
    [
        ["adversary", "--requests", "0"],
        ["wang", "--lambda", "0"],
        ["sweep", "--requests", "0"],
        ["sweep", "--lambda", "0", "--requests", "50"],
        ["tight", "--m", "0"],
        ["tight", "--alpha", "2"],
        ["adaptive", "--beta", "-1", "--requests", "50"],
    ],
    ids=[
        "adversary-requests-0", "wang-lambda-0", "sweep-requests-0",
        "sweep-lambda-0", "tight-m-0", "tight-alpha-2", "adaptive-beta-neg",
    ],
)
def test_paper_commands_report_bad_input(argv, capsys):
    """The deleted paper commands (their registered scenarios replace
    them) are bad input themselves: argparse exits 2 with ``invalid
    choice`` before any argument after the name is read."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert f"invalid choice: '{argv[0]}'" in capsys.readouterr().err


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
