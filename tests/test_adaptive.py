"""Tests for the adapted Algorithm 1 (Section 8, bounded robustness)."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    AdaptiveReplication,
    AdversarialPredictor,
    CostModel,
    FixedPredictor,
    KernelCostEngine,
    LearningAugmentedReplication,
    NoisyOraclePredictor,
    OraclePredictor,
    PredictionStream,
    Trace,
    optimal_cost,
    simulate,
)
import repro.core.engine as engine_module
from repro.core.backends import set_thread_budget
from repro.core.engine import run_policy_slab
from repro.experiments import get_scenario
from repro.offline import opt_lower_bound
from repro.workloads import robustness_tight_trace, uniform_random_trace

from conftest import (
    adaptive_forced,
    instances,
    slab_passes,
    tie_prone_traces,
    trip_rounds,
)


class TestParameters:
    def test_negative_beta_rejected(self):
        with pytest.raises(ValueError):
            AdaptiveReplication(FixedPredictor(False), 0.5, beta=-0.1)

    def test_negative_warmup_rejected(self):
        with pytest.raises(ValueError):
            AdaptiveReplication(FixedPredictor(False), 0.5, beta=0.1, warmup=-1)

    def test_name_mentions_parameters(self):
        pol = AdaptiveReplication(FixedPredictor(False), 0.25, beta=0.5)
        assert "0.25" in pol.name and "0.5" in pol.name


class TestMonitors:
    def test_opt_lower_matches_batch_formula(self):
        tr = uniform_random_trace(3, 40, horizon=60.0, seed=4)
        model = CostModel(lam=3.0, n=3)
        pol = AdaptiveReplication(OraclePredictor(tr), 0.4, beta=1.0, warmup=0)
        simulate(tr, model, pol)
        assert pol.opt_lower == pytest.approx(opt_lower_bound(tr, model))

    def test_opt_lower_is_a_lower_bound(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            n = int(rng.integers(1, 5))
            m = int(rng.integers(1, 30))
            tr = uniform_random_trace(n, m, 30.0, seed=int(rng.integers(2**31)))
            model = CostModel(lam=2.0, n=n)
            assert opt_lower_bound(tr, model) <= optimal_cost(tr, model) + 1e-9

    def test_online_upper_bounds_measured_cost(self):
        tr = uniform_random_trace(4, 50, horizon=80.0, seed=6)
        model = CostModel(lam=4.0, n=4)
        pol = AdaptiveReplication(
            AdversarialPredictor(tr), 0.3, beta=0.1, warmup=0
        )
        res = simulate(tr, model, pol)
        assert res.total_cost <= pol.online_upper + 1e-9

    @pytest.mark.parametrize("rate", [0.5, 1.0, 3.0])
    def test_opt_lower_is_opt_lower_bound_at_every_rate(self, rate):
        # the monitor charges storage at the uniform rate: its OPT_L is
        # opt_lower_bound's sum bit for bit, and below the optimum
        rng = np.random.default_rng(17)
        for _ in range(12):
            n = int(rng.integers(1, 5))
            m = int(rng.integers(1, 40))
            tr = uniform_random_trace(n, m, 30.0, seed=int(rng.integers(2**31)))
            model = CostModel(lam=2.0, n=n, storage_rates=(rate,) * n)
            pol = AdaptiveReplication(
                NoisyOraclePredictor(tr, 0.6, seed=1), 0.4, beta=1.0, warmup=0
            )
            simulate(tr, model, pol)
            assert pol.opt_lower == opt_lower_bound(tr, model)
            assert pol.opt_lower <= optimal_cost(tr, model)

    def test_opt_lower_at_half_rate_is_the_optimum(self):
        # three requests one time unit apart at the only server: keeping
        # the copy costs 0.5 per gap, so the optimum is 1.5 — raw gaps
        # would put OPT_L at 3.0, above it
        tr = Trace(1, [(1.0, 0), (2.0, 0), (3.0, 0)])
        model = CostModel(lam=10.0, n=1, storage_rates=(0.5,))
        pol = AdaptiveReplication(OraclePredictor(tr), 0.5, beta=1.0, warmup=0)
        simulate(tr, model, pol)
        assert pol.opt_lower == opt_lower_bound(tr, model) == 1.5
        assert optimal_cost(tr, model) == 1.5

    @pytest.mark.parametrize("rate", [0.5, 3.0])
    def test_online_upper_bounds_measured_cost_at_every_rate(self, rate):
        rng = np.random.default_rng(23)
        for _ in range(12):
            n = int(rng.integers(1, 5))
            m = int(rng.integers(1, 50))
            tr = uniform_random_trace(n, m, 80.0, seed=int(rng.integers(2**31)))
            model = CostModel(lam=4.0, n=n, storage_rates=(rate,) * n)
            pol = AdaptiveReplication(
                AdversarialPredictor(tr), 0.3, beta=0.1, warmup=0
            )
            res = simulate(tr, model, pol)
            assert pol.online_upper >= res.total_cost

    def test_monitor_history_recorded(self):
        tr = uniform_random_trace(2, 10, horizon=20.0, seed=1)
        pol = AdaptiveReplication(OraclePredictor(tr), 0.5, beta=0.5, warmup=0)
        simulate(tr, CostModel(lam=2.0, n=2), pol)
        assert len(pol.monitor_history) == len(tr)
        assert all(r >= 0 for (_, r, _) in pol.monitor_history)


class TestBoundedRobustness:
    @pytest.mark.parametrize("beta", [0.1, 0.5, 1.0])
    def test_tight_adversarial_instance_capped(self, beta):
        # the Figure 5 instance drives plain Algorithm 1 to 1 + 1/alpha;
        # with alpha = 0.2 that is 6.0 — far above 2 + beta.  The adapted
        # algorithm must stay near its target instead.
        lam, alpha = 50.0, 0.2
        tr = robustness_tight_trace(lam, alpha, m=1200, eps=1e-3)
        model = CostModel(lam=lam, n=2)
        plain = simulate(
            tr, model, LearningAugmentedReplication(FixedPredictor(False), alpha)
        )
        adaptive_pol = AdaptiveReplication(
            FixedPredictor(False), alpha, beta=beta, warmup=50
        )
        adapted = simulate(tr, model, adaptive_pol)
        opt = optimal_cost(tr, model)
        plain_ratio = plain.total_cost / opt
        adapted_ratio = adapted.total_cost / opt
        assert plain_ratio > 4.0  # sanity: the instance is truly bad
        assert adapted_ratio < plain_ratio
        # warm-up contributes a vanishing prefix; allow modest slack
        assert adapted_ratio <= (2.0 + beta) * 1.25

    def test_monitored_ratio_stays_bounded_after_warmup(self):
        lam, alpha, beta = 50.0, 0.2, 0.1
        tr = robustness_tight_trace(lam, alpha, m=800, eps=1e-3)
        pol = AdaptiveReplication(FixedPredictor(False), alpha, beta=beta, warmup=50)
        simulate(tr, CostModel(lam=lam, n=2), pol)
        # once tripped, the fallback keeps OnlineU growth at conventional
        # rates; the monitor must not run away
        tail = [r for (i, r, _) in pol.monitor_history[200:]]
        assert max(tail) <= (2 + beta) * 1.6

    def test_fallback_actually_triggers(self):
        lam, alpha = 50.0, 0.2
        tr = robustness_tight_trace(lam, alpha, m=600, eps=1e-3)
        pol = AdaptiveReplication(FixedPredictor(False), alpha, beta=0.1, warmup=20)
        simulate(tr, CostModel(lam=lam, n=2), pol)
        assert any(forced for (_, _, forced) in pol.monitor_history)


class TestConsistencyRetained:
    def test_good_predictions_keep_algorithm1_behaviour(self):
        # with perfect predictions the monitor stays low and the adapted
        # algorithm should match plain Algorithm 1 exactly
        tr = uniform_random_trace(4, 80, horizon=160.0, seed=13)
        model = CostModel(lam=2.0, n=4)
        plain = simulate(
            tr, model, LearningAugmentedReplication(OraclePredictor(tr), 0.3)
        )
        adapted = simulate(
            tr,
            model,
            AdaptiveReplication(OraclePredictor(tr), 0.3, beta=1.0, warmup=0),
        )
        assert adapted.total_cost <= plain.total_cost * 1.05

    def test_never_forced_when_predictions_perfect_and_beta_large(self):
        tr = uniform_random_trace(3, 60, horizon=100.0, seed=21)
        pol = AdaptiveReplication(OraclePredictor(tr), 0.3, beta=3.0, warmup=0)
        simulate(tr, CostModel(lam=2.0, n=3), pol)
        forced_after_start = [f for (_, _, f) in pol.monitor_history[10:]]
        assert not any(forced_after_start)


# ----------------------------------------------------------------------
# the cost-only tiers: Algorithm 1 under the monitor-forced column
# ----------------------------------------------------------------------


@st.composite
def adaptive_instances(draw):
    """Random and tie-prone ``(trace, model)`` pairs; integer lambdas on
    the tie-prone traces land expiries exactly on request times."""
    if draw(st.booleans()):
        return draw(instances(max_m=40))
    trace = draw(tie_prone_traces())
    lam = draw(st.sampled_from((1.0, 2.0, 3.0)))
    return trace, CostModel(lam=lam, n=trace.n)


@st.composite
def adaptive_specs(draw):
    """``(alpha, beta, warmup, predictor kind, accuracy, seed)``."""
    return (
        draw(st.one_of(
            st.sampled_from((0.5, 1.0)),
            st.floats(0.0, 1.0, exclude_min=True),
        )),
        draw(st.floats(0.0, 3.0)),
        draw(st.integers(0, 5)),
        draw(st.sampled_from(("oracle", "noisy", "adversarial", "fixed"))),
        draw(st.floats(0.0, 1.0)),
        draw(st.integers(0, 4)),
    )


def _adaptive(trace, spec):
    """A fresh policy for ``spec`` (a noisy oracle's draws are stateful)."""
    alpha, beta, warmup, kind, accuracy, seed = spec
    if kind == "oracle":
        pred = OraclePredictor(trace)
    elif kind == "noisy":
        pred = NoisyOraclePredictor(trace, accuracy, seed=seed)
    elif kind == "adversarial":
        pred = AdversarialPredictor(trace)
    else:
        pred = FixedPredictor(accuracy < 0.5)
    return AdaptiveReplication(pred, alpha, beta=beta, warmup=warmup)


def _assert_same_ledger(run, ref, label):
    assert run.storage_cost == ref.storage_cost, label
    assert run.transfer_cost == ref.transfer_cost, label
    assert run.n_transfers == ref.ledger.n_transfers, label


class TestCostOnlyTiers:
    @settings(max_examples=100, deadline=None)
    @given(
        adaptive_instances(),
        st.lists(adaptive_specs(), min_size=2, max_size=4),
        st.booleans(),
        st.sampled_from((None, 0, 1, 2, 3)),
    )
    def test_bit_identical_to_reference(self, inst, specs, drain, cap):
        trace, model = inst
        refs = []
        for spec in specs:
            pol = _adaptive(trace, spec)
            refs.append(simulate(trace, model, pol))
            # the machine's column is the reference policy's trip record
            forced = adaptive_forced(trace, model, _adaptive(trace, spec))
            assert not forced[0]
            assert forced[1:].tolist() == [f for _, _, f in pol.monitor_history]
        ref = simulate(
            trace, model, _adaptive(trace, specs[0]),
            drain=drain, drain_event_cap=cap,
        )
        run = KernelCostEngine().run(
            trace, model, _adaptive(trace, specs[0]), drain, cap
        )
        _assert_same_ledger(run, ref, "kernel")
        # one kernel slab call, cell by cell equal to the reference
        cells = [(model, _adaptive(trace, spec)) for spec in specs]
        runs, spans = slab_passes(
            lambda: run_policy_slab(trace, cells, "kernel")
        )
        assert spans == [("kernel", len(cells))]
        for run, ref in zip(runs, refs):
            _assert_same_ledger(run, ref, "kernel")

    @pytest.mark.parametrize("rate", [0.5, 3.0])
    @settings(max_examples=40, deadline=None)
    @given(adaptive_instances(), adaptive_specs())
    def test_bit_identical_at_storage_rate(self, rate, inst, spec):
        # the monitor's trips depend on the storage rate; the kernel's
        # forced column must trip where the reference policy does
        trace, model = inst
        model = CostModel(lam=model.lam, n=trace.n, storage_rates=(rate,) * trace.n)
        pol = _adaptive(trace, spec)
        ref = simulate(trace, model, pol)
        forced = adaptive_forced(trace, model, _adaptive(trace, spec))
        assert forced[1:].tolist() == [f for _, _, f in pol.monitor_history]
        run = KernelCostEngine().run(trace, model, _adaptive(trace, spec))
        _assert_same_ledger(run, ref, f"kernel at rate {rate}")

    def test_special_copy_ties_break_by_server(self):
        # both copies expire at t = 2 (server 0 after lambda, server 1
        # after alpha * lambda); the heap pops server 1 last, so it is
        # the special copy and request 2 is a Type-4 local serve.  A
        # Type-2 reading would add lambda to Online_U and trip at 3.5.
        trace = Trace(2, [(1.0, 1), (3.0, 1)])
        model = CostModel(lam=2.0, n=2)

        def make():
            return AdaptiveReplication(
                AdversarialPredictor(trace), 0.5, beta=1.2, warmup=1
            )

        pol = make()
        ref = simulate(trace, model, pol)
        assert ref.serves[1].local and ref.serves[1].source_special
        assert [r for _, r, _ in pol.monitor_history] == [5.0, 3.0]
        assert adaptive_forced(trace, model, make()).tolist() == [False] * 3

    def test_paper_scale_fallback_cell(self):
        # fig29 at alpha = 0 (run as 0.1) and accuracy 0: the monitor
        # toggles the fallback hundreds of times on the paper trace
        scenario = get_scenario("fig29")
        lam, seed = scenario.lambdas[0], scenario.seeds[0]
        trace = scenario.build_trace(lam=lam, alpha=0.0, accuracy=0.0, seed=seed)
        model = CostModel(lam=lam, n=trace.n)

        def make():
            return scenario.policy_factory(trace, lam, 0.0, 0.0, seed)

        pol = make()
        ref = simulate(trace, model, pol)
        flags = [f for _, _, f in pol.monitor_history]
        forced = adaptive_forced(trace, model, make())
        assert forced[1:].tolist() == flags
        assert np.count_nonzero(forced[1:] != forced[:-1]) > 100
        _assert_same_ledger(KernelCostEngine().run(trace, model, make()), ref, "kernel")


# ----------------------------------------------------------------------
# the kernel pass's own monitor, and the rounds of passes it decides
# ----------------------------------------------------------------------


@st.composite
def long_instances(draw):
    """150-request random traces: long enough that a monitor reading
    one ``l_i`` wrong trips somewhere else."""
    trace = uniform_random_trace(
        3, 150, horizon=300.0, seed=draw(st.integers(0, 2**16))
    )
    return trace, CostModel(lam=draw(st.sampled_from((2.0, 5.0))), n=3)


@st.composite
def monitor_specs(draw):
    """``(beta, warmup, predictor kind, accuracy, seed)``, with the
    monitor's edges beta = 0 and warm-up 0 drawn often."""
    return (
        draw(st.one_of(st.just(0.0), st.floats(0.0, 3.0))),
        draw(st.one_of(st.just(0), st.integers(0, 5))),
        draw(st.sampled_from(("oracle", "noisy", "adversarial", "fixed"))),
        draw(st.floats(0.0, 1.0)),
        draw(st.integers(0, 4)),
    )


def _first_trip(column):
    hits = np.flatnonzero(column)
    return int(hits[0]) if hits.size else None


class TestInPassMonitor:
    @settings(max_examples=100, deadline=None)
    @given(
        st.one_of(adaptive_instances(), long_instances()),
        st.sampled_from((0.5, 1.0, 3.0)),
        st.one_of(st.sampled_from((0.5, 1.0)), st.floats(0.05, 1.0)),
        st.lists(monitor_specs(), min_size=1, max_size=4),
    )
    def test_trip_column_is_a_fixed_point(self, inst, rate, alpha, specs):
        """A pass replaying ``pred | f``, with ``f`` the machine's trip
        column, finds the trip column ``f`` again; a pass replaying the
        raw ``pred`` first trips where ``f`` does (nowhere, if ``f``
        never trips).  The rows share one pass behind an unmonitored
        Algorithm-1 row, so each monitor reads its own row."""
        trace, model = inst
        model = CostModel(
            lam=model.lam, n=trace.n, storage_rates=(rate,) * trace.n
        )
        policies = [_adaptive(trace, (alpha, *spec)) for spec in specs]
        forced = np.array([adaptive_forced(trace, model, p) for p in policies])
        raw = PredictionStream.batch_for_cells(
            [(p.predictor, model.lam) for p in policies], trace
        )
        chains = engine_module._SegmentChains(trace)

        def trips(rows):
            pred = np.vstack((raw[:1], rows))
            monitor = [(r + 1, p) for r, p in enumerate(policies)]
            *_, out = engine_module._kernel_algorithm1(
                chains, rate, model.lam, alpha, pred, True, None, None, monitor
            )
            return out

        assert np.array_equal(trips(raw | forced), forced)
        for f, h in zip(forced, trips(raw)):
            assert _first_trip(h) == _first_trip(f)

    def test_machine_runs_only_across_trip_episodes(self):
        """On the coarse fig29 grid the scalar machine processes no
        request for a cell that never trips, stops at the first release
        of a cell that trips once, and runs the whole trace only for a
        cell that trips again; one slab of the nine cells does the same
        work and gets the same ledgers."""
        scenario = get_scenario("fig29")
        lam, seed = scenario.lambdas[0], scenario.seeds[0]
        trace = scenario.build_trace(lam=lam, alpha=0.0, accuracy=0.0, seed=seed)
        model = CostModel(lam=lam, n=trace.n)
        coarse = [(a, acc) for a in (0.0, 0.5, 1.0) for acc in (0.0, 0.5, 1.0)]

        def make(alpha, acc):
            return scenario.policy_factory(trace, lam, alpha, acc, seed)

        late = engine_module._late()
        machine = late.forced_column
        processed = []

        def counting(*args):
            out = machine(*args)
            processed.append(out.size - 1)     # requests it went through
            return out

        rounds, solo, work = [], [], []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(late, "forced_column", counting)
            for alpha, acc in coarse:
                rounds.append(trip_rounds(trace, model, make(alpha, acc)))
                release = adaptive_forced(trace, model, make(alpha, acc), True).size - 1
                processed.clear()
                solo.append(KernelCostEngine().run(trace, model, make(alpha, acc)))
                want = [[], [release], [release, len(trace)]][rounds[-1] - 1]
                assert processed == want, (alpha, acc)
                work.append(want)
            processed.clear()
            slab = run_policy_slab(
                trace, [(model, make(a, acc)) for a, acc in coarse], "kernel"
            )
        # four monitor cells never trip (the alpha = 1 cells run no
        # monitor), and alpha = 0 trips again and again at accuracy 0 and
        # once at accuracy 0.5, where the machine stops within the
        # trace's first 1%
        assert rounds == [3, 2, 1, 1, 1, 1, 1, 1, 1]
        assert work[1][0] < len(trace) // 100
        assert sorted(processed) == sorted(sum(work, []))
        assert [r.total_cost for r in slab] == [r.total_cost for r in solo]
        ref = simulate(trace, model, make(*coarse[1]))
        _assert_same_ledger(solo[1], ref, "kernel")

    @pytest.mark.parametrize("budget", [1, 4])
    def test_rerun_rows_match_reference(self, budget):
        """A 16-cell slab whose adaptive rows take every path (never
        trip, trip once, trip again), serial and threaded, equals
        ``simulate`` cell by cell.  Its alpha = 0.2 group spans several
        passes and so holds one drop order; its rows predict "beyond"
        everywhere, so that order has none of the within-branch drops
        its forced rows need (local gaps beyond lambda after a forced
        request): a rerun row must build its own order.  (An
        adversarial row would hide the fault: it predicts "within"
        wherever a within-branch copy drops.)"""
        trace = uniform_random_trace(3, 150, horizon=300.0, seed=1)
        model = CostModel(lam=5.0, n=trace.n)

        def cells():
            beyond = [
                AdaptiveReplication(FixedPredictor(False), 0.2, beta, warmup)
                for beta in (0.0, 0.5, 1.0, 2.0, 3.0)
                for warmup in (0, 3)
            ]
            mixed = [
                AdaptiveReplication(OraclePredictor(trace), 0.5, 0.5, warmup=0),
                AdaptiveReplication(OraclePredictor(trace), 0.5, 2.0, warmup=3),
                AdaptiveReplication(
                    NoisyOraclePredictor(trace, 0.8, seed=2), 0.5, 0.5, warmup=3
                ),
                AdaptiveReplication(FixedPredictor(True), 0.5, 0.0, warmup=0),
                LearningAugmentedReplication(
                    NoisyOraclePredictor(trace, 0.3, seed=1), 0.5
                ),
                AdaptiveReplication(FixedPredictor(False), 1.0, 0.0, warmup=0),
            ]
            return [(model, p) for p in beyond + mixed]

        rounds = sorted({trip_rounds(trace, model, p) for _, p in cells()})
        assert rounds == [1, 2, 3]
        refs = [simulate(trace, model, p) for _, p in cells()]
        prev = set_thread_budget(budget)
        try:
            with pytest.MonkeyPatch.context() as mp:
                if budget == 1:
                    # four rows a pass: the serial slab's groups span passes too
                    mp.setattr(
                        engine_module, "_ROW_CHUNK_ELEMS", 4 * (len(trace) + 1)
                    )
                runs, spans = slab_passes(
                    lambda: run_policy_slab(trace, cells(), "kernel"),
                    tags=("cells", "backend"),
                )
        finally:
            set_thread_budget(prev)
        assert spans == [(16, "numpy" if budget == 1 else "threads")]
        for k, (run, ref) in enumerate(zip(runs, refs)):
            _assert_same_ledger(run, ref, f"cell {k}")
