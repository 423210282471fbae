"""Tests for the sweep harness (the Figures 25-28 machinery)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.sweep import (
    PAPER_ACCURACIES,
    PAPER_ALPHAS,
    PAPER_LAMBDAS,
    SweepPoint,
    format_table,
    sweep_grid,
)
from repro.analysis.theory import consistency_bound, robustness_bound
from repro.workloads import ibm_like_trace


@pytest.fixture(scope="module")
def small_sweep():
    trace = ibm_like_trace(n=5, m=400, span=40_000.0, seed=1)
    return sweep_grid(
        trace,
        lambdas=(50.0, 500.0),
        alphas=(0.2, 0.6, 1.0),
        accuracies=(0.0, 0.5, 1.0),
        seed=0,
    ), trace


class TestGridShape:
    def test_paper_grids(self):
        assert len(PAPER_ALPHAS) == 11
        assert len(PAPER_ACCURACIES) == 11
        assert PAPER_LAMBDAS == (10.0, 100.0, 1000.0, 10000.0)

    def test_point_count(self, small_sweep):
        result, _ = small_sweep
        assert len(result.points) == 2 * 3 * 3

    def test_lookup(self, small_sweep):
        result, _ = small_sweep
        p = result.at(50.0, 0.2, 0.5)
        assert isinstance(p, SweepPoint)
        with pytest.raises(KeyError):
            result.at(51.0, 0.2, 0.5)

    def test_axes(self, small_sweep):
        result, _ = small_sweep
        assert result.lambdas() == [50.0, 500.0]
        assert result.alphas() == [0.2, 0.6, 1.0]
        assert result.accuracies() == [0.0, 0.5, 1.0]

    def test_matrix_shape(self, small_sweep):
        result, _ = small_sweep
        mat = result.ratios_for_lambda(50.0)
        assert mat.shape == (3, 3)
        assert np.all(np.isfinite(mat))


class TestPaperShapeClaims:
    """The qualitative claims of Appendix J.2 on the small grid."""

    def test_all_ratios_at_least_one(self, small_sweep):
        result, _ = small_sweep
        assert all(p.ratio >= 1.0 - 1e-9 for p in result.points)

    def test_robustness_bound_everywhere(self, small_sweep):
        result, _ = small_sweep
        for p in result.points:
            if p.alpha > 0:
                assert p.ratio <= robustness_bound(p.alpha) + 1e-7

    def test_consistency_bound_at_full_accuracy(self, small_sweep):
        result, _ = small_sweep
        for p in result.points:
            if p.accuracy == 1.0:
                assert p.ratio <= consistency_bound(p.alpha) + 1e-7

    def test_alpha_one_row_constant_across_accuracy(self, small_sweep):
        result, _ = small_sweep
        for lam in result.lambdas():
            ratios = [
                result.at(lam, 1.0, acc).ratio for acc in result.accuracies()
            ]
            assert max(ratios) - min(ratios) < 1e-9

    def test_perfect_predictions_never_worse_than_zero_accuracy(self, small_sweep):
        result, _ = small_sweep
        for lam in result.lambdas():
            for alpha in (0.2, 0.6):
                good = result.at(lam, alpha, 1.0).ratio
                bad = result.at(lam, alpha, 0.0).ratio
                assert good <= bad + 1e-9


class TestFormatTable:
    def test_renders_all_cells(self, small_sweep):
        result, _ = small_sweep
        table = format_table(result, 50.0)
        assert "lambda = 50" in table
        assert table.count("\n") == 4  # header + axis row + 3 alpha rows

    def test_custom_title(self, small_sweep):
        result, _ = small_sweep
        assert format_table(result, 50.0, title="Figure X").startswith("Figure X")


def test_only_accuracy_one_selects_the_oracle():
    """Accuracy 1.0 runs the exact oracle; an accuracy above 1 is
    rejected by the grid factories instead of running as an oracle."""
    from repro import OraclePredictor
    from repro.analysis.sweep import algorithm1_factory
    from repro.experiments import get_scenario

    trace = ibm_like_trace(n=3, m=50, seed=2)
    policy = algorithm1_factory(trace, 10.0, 0.5, 1.0, 0)
    assert type(policy.predictor) is OraclePredictor
    for factory in (algorithm1_factory, get_scenario("fig29").policy_factory):
        with pytest.raises(ValueError, match=r"accuracy must be in \[0, 1\]"):
            factory(trace, 1000.0, 0.5, 1.5, 0)
