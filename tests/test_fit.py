"""Tests for least-squares fitting and model comparison."""

import importlib
import math
import random
from dataclasses import replace
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import qmc

from leimkuhler.curves import (
    Family,
    _Points,
    evaluate,
    gp,
    gpg,
    gpig,
    pagb,
    pareto,
    pg,
    pig,
    power,
)
from leimkuhler.empirical import (
    CitationDataset,
    EmpiricalCurve,
    empirical_curve,
    ingest,
    sample_synthetic,
)
from leimkuhler.fit import (
    FitConfig,
    FitMetrics,
    caic,
    compare_models,
    fit,
    fit_metrics,
    standard_errors,
    _latin_hypercube,
)
from leimkuhler.indices import empirical_indices
from leimkuhler.specfun import ConvergenceError
from tests.oracles import svd_convergence_test
from tests.test_curves import draw_model

FAST = FitConfig(multistart_count=4, seed=11)
BUNDLED = Path(__file__).resolve().parents[1] / "demos" / "data" / "citations_synthetic.txt"
fit_module = importlib.import_module("leimkuhler.fit")


def model_polygon(model, n):
    """Noiseless polygon with vertices on the model curve."""
    u = np.arange(0, n + 1) / n
    return EmpiricalCurve(u, evaluate(model, u))


class TestLatinHypercube:
    def test_matches_scipy_qmc_draw_for_draw(self):
        for d in (1, 2, 3):
            for n in range(1, 16):
                for seed in (0, 1, 7, 11, 2024):
                    expected = qmc.LatinHypercube(d=d, seed=seed).random(n)
                    assert np.array_equal(_latin_hypercube(d, n, seed), expected), (d, n, seed)


class TestFitConfig:
    def test_defaults_are_valid(self):
        config = FitConfig()
        assert config.multistart_count >= 1
        assert config.variance_divisor == "n_minus_p"

    def test_rejects_bad_counts(self):
        with pytest.raises(ValueError):
            FitConfig(max_iterations=0)
        with pytest.raises(ValueError):
            FitConfig(multistart_count=0)

    def test_rejects_bad_tolerances(self):
        with pytest.raises(ValueError):
            FitConfig(step_tolerance=0.0)
        with pytest.raises(ValueError):
            FitConfig(step_tolerance=-1e-9)
        with pytest.raises(TypeError):
            FitConfig(gradient_tolerance=1e-6)  # convergence is judged without it

    def test_rejects_bad_divisor(self):
        with pytest.raises(ValueError):
            FitConfig(variance_divisor="bogus")


class TestExactRecovery:
    CASES = [
        (power(2.0), 500),
        (power(0.6), 257),
        (gp(2.5, 0.7), 257),
        (gp(1.2, 0.35), 257),
        (pareto(0.645), 257),
        (pareto(0.3), 257),
        (pg(0.701, 0.102), 257),
        (pg(1.5, 2.0), 257),
        (pig(9.305, 2.227), 257),
        (pig(2.0, 5.0), 257),
        (gpg(0.554, 1.514, 0.596), 257),
        (gpg(0.8, 1.0, 1.0), 257),
        (gpig(0.799, 10.765, 0.742), 257),
        (gpig(0.5, 3.0, 2.0), 257),
        (pagb(2.0, 3.0, -5.0), 257),
        (pagb(1.2, 0.8, 3.5), 257),
    ]

    def test_recovers_noiseless_polygons(self):
        for true_model, n in self.CASES:
            curve = model_polygon(true_model, n)
            result = fit(curve, true_model.family, FAST)
            assert result.sse <= 1e-12, true_model
            true = np.array(true_model.param_values())
            est = np.array(result.model.param_values())
            rel = np.max(np.abs(est - true) / np.maximum(1.0, np.abs(true)))
            assert rel <= 1e-6, true_model
            assert result.converged, true_model

    def test_history_never_increases(self):
        for true_model, n in self.CASES:
            curve = model_polygon(true_model, n)
            result = fit(curve, true_model.family, FAST)
            history = result.objective_history
            assert len(history) >= 1
            assert all(a >= b for a, b in zip(history, history[1:]))
            assert history[-1] == pytest.approx(result.sse, abs=0.0)

    def test_residual_failures_stop_at_last_accepted_point(self, monkeypatch):
        # residuals fail beyond theta = 1.5: trial steps there are rejected
        residuals = fit_module._residuals

        def walled(family, raw, u, k_emp):
            return None if raw[0] > 1.5 else residuals(family, raw, u, k_emp)

        monkeypatch.setattr(fit_module, "_residuals", walled)
        result = fit(model_polygon(power(2.0), 257), "power", FAST)
        assert 1.49 < result.model.params.theta <= 1.5
        history = result.objective_history
        assert all(a > b for a, b in zip(history, history[1:]))
        assert all(type(value) is float for value in history)
        assert history[-1] == result.sse

    def test_failed_first_trial_is_rejected_not_final(self, monkeypatch):
        # one start at theta = 0.5 with residuals failing beyond 0.6: the
        # first trust-region step toward theta = 2 crosses the wall, and
        # the start must shrink its step and carry on up to the wall
        residuals = fit_module._residuals
        visited = []

        def walled(family, raw, u, k_emp):
            visited.append(raw[0])
            return None if raw[0] > 0.6 else residuals(family, raw, u, k_emp)

        monkeypatch.setattr(fit_module, "_residuals", walled)
        monkeypatch.setattr(fit_module, "_heuristic_start", lambda family, gini: (0.5,))
        result = fit(model_polygon(power(2.0), 257), "power", FitConfig(multistart_count=1))
        assert visited[0] == 0.5 and visited[1] > 0.6  # start, first trial
        assert 0.59 < result.model.params.theta <= 0.6
        history = result.objective_history
        assert len(history) > 2
        assert all(a > b for a, b in zip(history, history[1:]))

    def test_power_spec_grid(self):
        curve = model_polygon(power(2.0), 500)
        result = fit(curve, Family.POWER, FAST)
        assert abs(result.model.params.theta - 2.0) <= 1e-6
        assert result.sse <= 1e-12


class TestSyntheticRoundTrip:
    def test_power_theta_three(self):
        dataset = sample_synthetic("power", n=5000, seed=42, theta=3.0)
        result = fit(empirical_curve(dataset), "power", FAST)
        assert abs(result.model.params.theta - 3.0) / 3.0 <= 0.05

    def test_deterministic_given_seed(self):
        dataset = sample_synthetic("pg", n=800, seed=17, alpha=0.8, beta=0.2)
        curve = empirical_curve(dataset)
        first = fit(curve, "pg", FAST)
        second = fit(curve, "pg", FAST)
        assert first.model.param_values() == second.model.param_values()
        assert first.objective_history == second.objective_history
        assert first.std_errors == second.std_errors


class TestNesting:
    def test_gp_contains_power(self):
        curve = model_polygon(gp(2.0, 1.0), 257)
        result_power = fit(curve, "power", FAST)
        result_gp = fit(curve, "gp", FAST)
        assert result_power.sse >= result_gp.sse - 1e-10
        assert result_gp.model.params.kappa >= 0.999
        assert abs(result_power.sse - result_gp.sse) <= 1e-10

    def test_gpg_contains_pg(self):
        curve = model_polygon(pg(0.9, 0.4), 201)
        result_pg = fit(curve, "pg", FAST)
        result_gpg = fit(curve, "gpg", FAST)
        assert result_pg.sse >= result_gpg.sse - 1e-10

    def test_bigger_family_on_noisy_data(self):
        dataset = sample_synthetic("power", n=1500, seed=9, theta=2.5)
        curve = empirical_curve(dataset)
        result_power = fit(curve, "power", FAST)
        result_gp = fit(curve, "gp", FAST)
        assert result_power.sse >= result_gp.sse - 1e-10

    def test_single_start_reaches_unit_kappa(self):
        # no warm start from the nested fit with one start, so the search
        # itself has to carry kappa to its upper bound
        curve = empirical_curve(sample_synthetic("power", n=300, seed=2, theta=3.0))
        single = FitConfig(multistart_count=1)
        for family, nested in (("gpg", "pg"), ("gpig", "pig")):
            result = fit(curve, family, single)
            reference = fit(curve, nested, single)
            assert abs(result.sse - reference.sse) <= 1e-10 * reference.sse, family
            assert result.model.params.kappa == pytest.approx(1.0, abs=1e-12), family


class TestConvergedFlag:
    def test_interior_optimum_on_misspecified_data(self):
        curve = model_polygon(power(5.0), 257)
        result = fit(curve, "pareto", FAST)
        assert 0.1 < result.model.params.theta < 0.99
        assert result.converged
        assert result.sse > 1e-3

    def test_edge_optimum_has_no_standard_errors(self):
        # gp ends on the theta floor and the kappa cap: a constrained
        # optimum has no sampling spread
        result = fit(empirical_curve(CitationDataset((5, 5, 5, 5))), "gp", FAST)
        assert not result.converged
        assert result.std_errors is None

    def test_stop_on_a_bound_is_not_converged(self):
        # the SSE still falls towards gp's corner at the theta floor and
        # the kappa cap here: the bounded steps end on that corner, and the
        # residuals there lie almost wholly in the span of the Jacobian
        curve = empirical_curve(CitationDataset((5, 5, 5, 5)))
        result = fit(curve, "gp", FAST)
        assert result.model.param_values() == (1e-8, 1.0)
        assert result.nested_limit is None
        assert not result.converged
        assert result.objective_history[-1] == result.sse

    def test_flag_at_a_flat_optimum_is_scale_free(self):
        # with four starts the solver stops short of the Pareto optimum on
        # the bundled data, where the SSE is flat to rounding: |J^T r| is not
        # 0 there, but its relative offset is far below 1e-3
        curve = empirical_curve(ingest(BUNDLED))
        result = fit(curve, "pareto", FitConfig(multistart_count=4, seed=0))
        assert result.converged

    def test_sse_is_that_of_the_returned_model(self):
        # the SSE of the solver's end point, also where it is at rounding
        # level, as on (5, 5, 5, 5)
        for counts in (ingest(BUNDLED), CitationDataset((5, 5, 5, 5))):
            curve = empirical_curve(counts)
            u, k_emp = curve.u[1:], curve.k[1:]
            for family in Family:
                result = fit(curve, family, FitConfig(multistart_count=4, seed=0))
                r = evaluate(result.model, u) - k_emp
                assert result.sse == pytest.approx(math.fsum(r * r), rel=1e-14, abs=0.0), family

    def test_insufficient_points_rejected(self):
        curve = model_polygon(gpg(0.5, 1.0, 1.0), 3)
        with pytest.raises(ValueError):
            fit(curve, "gpg", FAST)

    def test_unknown_family_rejected(self):
        curve = model_polygon(power(2.0), 50)
        with pytest.raises(ValueError):
            fit(curve, "logistic", FAST)


class TestNestedLimits:
    """A mixture reduces to the family it nests as its mixing law
    collapses to a point mass: its fit reaches that limit, no worse than
    the nested fit, and is flagged there."""

    def assert_at_limit(self, result, limit):
        assert result.nested_limit is limit, result.model
        assert not result.converged
        assert result.std_errors is None
        assert result.objective_history[-1] == result.sse

    def test_pagb_reaches_pareto(self):
        # every start ends at lam -> 0, where the shift is not identified:
        # the limit stop ends it at its first step there within 1e-10 of
        # pareto's SSE
        for dataset in (CitationDataset((7, 3, 2, 1)),
                        sample_synthetic("power", n=500, seed=9, theta=1.5)):
            curve = empirical_curve(dataset)
            result = fit(curve, "pagb", FAST)
            assert result.sse <= fit(curve, "pareto", FAST).sse * (1.0 + 1e-12)
            self.assert_at_limit(result, Family.PARETO)

    def test_pg_and_pig_reach_power(self):
        # the mixing law collapses as its parameters reach the 1e14 cap, and
        # the start at the power fit ends there after at most one step
        curve = empirical_curve(sample_synthetic("pg", n=2000, seed=5, alpha=0.7, beta=0.1))
        reference = fit(curve, "power", FAST).sse
        for family in ("pg", "pig"):
            result = fit(curve, family, FAST)
            assert result.sse <= reference * (1.0 + 1e-10), family
            self.assert_at_limit(result, Family.POWER)

    def test_gpg_and_gpig_reach_gp(self):
        curve = empirical_curve(CitationDataset((7, 3, 2, 1)))
        reference = fit(curve, "gp", FAST).sse
        for family, nested in (("gpg", "pg"), ("gpig", "pig")):
            result = fit(curve, family, FAST)
            assert result.sse <= reference * (1.0 + 1e-10), family
            assert result.sse <= fit(curve, nested, FAST).sse * (1.0 + 1e-10), family
            self.assert_at_limit(result, Family.GP)

    def test_limit_is_a_mixing_law_cv2_of_at_most_1e_minus_12(self):
        base = fit(model_polygon(power(2.0), 50), "power", FAST)
        cases = [
            (pg(1e12, 3e11), Family.POWER),  # gamma: 1 / alpha
            (pg(0.99e12, 3e11), None),
            (gpg(0.5, 1e12, 5e11), Family.GP),
            (pig(2.0, 2e12), Family.POWER),  # inverse Gaussian: alpha / beta
            (pig(2.0, 1.99e12), None),
            (gpig(0.5, 2.0, 2e12), Family.GP),
            (pagb(5e11, 5e11, -3.0), Family.PARETO),  # beta: 1 / (2 alpha + 1) here
            (pagb(4.9e11, 4.9e11, -3.0), None),
            (pg(1.5, 2.0), None),
            (pagb(2.0, 3.0, -5.0), None),
            (power(2.0), None),
            (gp(2.0, 0.5), None),
            (pareto(0.6), None),
        ]
        for model, limit in cases:
            assert replace(base, model=model).nested_limit is limit, model

    def test_interior_fit_has_no_limit(self):
        result = fit(model_polygon(pg(1.5, 2.0), 257), "pg", FAST)
        assert result.nested_limit is None
        assert result.converged and result.std_errors is not None

    def test_nested_fits_take_the_callers_config(self, monkeypatch):
        config = FitConfig(multistart_count=8, seed=3)
        nested = record_fits(monkeypatch)
        fit(empirical_curve(CitationDataset((7, 3, 2, 1))), "gpg", config)
        assert sorted(family.value for family, _ in nested) == ["gp", "pg", "power"]
        assert all(seen == config for _, seen in nested)


def record_fits(monkeypatch):
    """Record the (family, config) of every fit made through fit_module.fit,
    as _fit_once makes each fit of a comparison and each nested fit."""
    calls = []

    def recording_fit(curve, family, config=FitConfig(), **kwargs):
        calls.append((Family(family), config))
        return fit(curve, family, config, **kwargs)

    monkeypatch.setattr(fit_module, "fit", recording_fit)
    return calls


def fit_fields(result):
    return (result.model.param_values(), result.sse, result.objective_history,
            result.std_errors, result.converged, result.nested_limit)


class TestOneFitPerFamily:
    """compare_models fits each family once and hands the fits it has made
    down to the mixtures that nest them."""

    CONFIG = FitConfig(multistart_count=2)

    @pytest.mark.parametrize("dataset", [
        CitationDataset((7, 3, 2, 1)),
        sample_synthetic("pg", n=300, seed=4, alpha=0.7, beta=0.3),
    ], ids=["(7, 3, 2, 1)", "pg-300"])
    def test_each_family_fitted_once_with_its_own_answer(self, dataset, monkeypatch):
        curve = empirical_curve(dataset)
        alone = {family: fit_fields(fit(curve, family, self.CONFIG)) for family in Family}
        calls = record_fits(monkeypatch)
        for families in (list(Family), list(Family)[::-1]):
            calls.clear()
            comparison = compare_models(curve, families, self.CONFIG)
            assert sorted(family.value for family, _ in calls) == sorted(f.value for f in Family)
            assert comparison.failures == ()
            assert len(comparison.results) == len(Family)
            for result in comparison.results:
                assert fit_fields(result) == alone[result.model.family], result.model.family

    @pytest.mark.parametrize("reverse", [False, True])
    def test_failed_nested_fit_is_made_and_recorded_once(self, reverse, monkeypatch):
        run_start = fit_module._run_start

        def no_pareto_start(family, *args):
            return None if family is Family.PARETO else run_start(family, *args)

        monkeypatch.setattr(fit_module, "_run_start", no_pareto_start)
        calls = record_fits(monkeypatch)
        families = list(Family)[::-1] if reverse else list(Family)
        comparison = compare_models(empirical_curve(CitationDataset((7, 3, 2, 1))),
                                    families, self.CONFIG)
        assert [family for family, _ in comparison.failures] == ["pareto"]
        assert [family for family, _ in calls].count(Family.PARETO) == 1
        assert Family.PAGB in {result.model.family for result in comparison.results}


EARLY_STOP_SETS = {
    "bundled": lambda: ingest(BUNDLED),
    "(7, 3, 2, 1)": lambda: CitationDataset((7, 3, 2, 1)),
    "(5, 5, 5, 5)": lambda: CitationDataset((5, 5, 5, 5)),
    "(1, 0, 0, 0)": lambda: CitationDataset((1, 0, 0, 0)),
    "power-500 seed 3": lambda: sample_synthetic("power", n=500, seed=3, theta=1.5),
}


def without_early_stop(monkeypatch):
    """Run every start to the solver's own end, as fit did before its stop
    rules: the multistart stop and the limit stop."""
    monkeypatch.setattr(fit_module, "_starts_agree", lambda *args: False)
    monkeypatch.setattr(fit_module, "_ends_at_limit", lambda *args: False)


class TestEarlyStop:
    """The multistart stops once 3 of at least 4 starts agree on the best
    SSE within 1e-10 relative, and keeps the answers of the full run."""

    def test_rule(self):
        def agree(family, *ends):
            # (sse, raw) of each start that produced residuals
            return fit_module._starts_agree(family, [(raw, (sse,)) for sse, raw in ends])

        same = (1.0, (2.0,))
        assert not agree(Family.POWER, same, same, same)  # fewer than 4 starts
        assert agree(Family.POWER, (2.0, (2.0,)), same, same, (1.0, (2.0 * (1 + 9e-7),)))
        assert agree(Family.POWER, (1.0 + 1e-11, (2.0,)), (3.0, (1.0,)), same,
                     (1.0 + 9e-11, (2.0,)))
        assert not agree(Family.POWER, same, (1.0 + 2e-10, (2.0,)), same, (5.0, (1.0,)))
        assert not agree(Family.POWER, *[(sse, (2.0,)) for sse in (1.0, 2.0, 3.0, 4.0, 5.0)])
        # one SSE, but end points strung along a flat valley
        assert not agree(Family.PIG, *[(1.0, (alpha, 1.7)) for alpha in (1e11, 3e11, 1e12, 1e13)])
        # the mixing parameters are not identified at a nested limit
        limit = [(1.0, (alpha, alpha / 3.0)) for alpha in (1e13, 5e13, 1e14)]
        assert agree(Family.PG, (2.0, (1.0, 1.0)), *limit)
        assert not agree(Family.PG, *limit[:2], (1.0, (1.0, 1.0)), (2.0, (1.0, 1.0)))

    @pytest.mark.parametrize("label", list(EARLY_STOP_SETS))
    def test_keeps_the_full_run_answers(self, label, monkeypatch):
        curve = empirical_curve(EARLY_STOP_SETS[label]())
        early = {family: fit(curve, family) for family in Family}
        without_early_stop(monkeypatch)
        for family, result in early.items():
            full = fit(curve, family)
            assert result.sse <= full.sse * (1.0 + 1e-10), family
            assert result.converged == full.converged, family
            assert result.nested_limit is full.nested_limit, family

    def test_fires_on_bundled_pagb(self, monkeypatch):
        families = []
        run_start = fit_module._run_start

        def counting(family, *args):
            families.append(family)
            return run_start(family, *args)

        monkeypatch.setattr(fit_module, "_run_start", counting)
        fit(empirical_curve(ingest(BUNDLED)), "pagb")
        assert families.count(Family.PAGB) <= 4

    def test_nested_starts_all_run(self):
        # on every 20th bundled count with 2 starts, the heuristic start and
        # three of the four starts seeded by the pig fit agree on a basin;
        # the start seeded by the gp fit, the fifth, reaches gp at a lower SSE
        lines = BUNDLED.read_text(encoding="utf-8").split()
        curve = empirical_curve(CitationDataset(tuple(map(int, lines[::20]))))
        config = FitConfig(multistart_count=2)
        result = fit(curve, "gpig", config)
        assert result.sse <= fit(curve, "gp", config).sse * (1.0 + 1e-10)
        assert result.nested_limit is Family.GP

    def test_four_starts_are_the_full_run(self, monkeypatch):
        # the rule can fire only after the fourth start, the last one here
        curve = empirical_curve(sample_synthetic("pg", n=20000, seed=1, alpha=0.7, beta=0.1))
        config = FitConfig(multistart_count=4)
        early = fit(curve, "power", config)
        without_early_stop(monkeypatch)
        assert fit(curve, "power", config) == early


class TestLimitStop:
    """A mixture's start ends at its first accepted step, not its start
    point, onto the nested limit at the SSE of the limit family's fit."""

    def test_rule(self):
        at_limit, inside = (6e13, 4e13, -1.0), (6.0, 4.0, -1.0)
        ends = fit_module._ends_at_limit
        assert ends(Family.PAGB, at_limit, 2.0 * (1 + 9e-11), 2.0)
        assert ends(Family.PAGB, at_limit, 2.0 * (1 - 9e-11), 2.0)
        assert not ends(Family.PAGB, at_limit, 2.0 * (1 + 2e-10), 2.0)
        assert not ends(Family.PAGB, at_limit, 1.0, 2.0)
        assert not ends(Family.PAGB, inside, 2.0, 2.0)
        assert ends(Family.PG, (1e14, 5e13), 0.0, 0.0)

    def test_bundled_pagb_takes_one_step_on_pareto(self, monkeypatch):
        # each pagb start makes at most one accepted step onto the pareto
        # limit at pareto's SSE, its last: steps onto the limit at a
        # higher SSE go on, as Gauss-Newton along the face lam = 0 takes a
        # few to reach pareto's SSE there
        curve = empirical_curve(ingest(BUNDLED))
        rules = []  # the rule at each accepted step at the limit, per pagb start
        run_start, ends_at_limit = fit_module._run_start, fit_module._ends_at_limit

        def counting_start(family, *args):
            if family is Family.PAGB:
                rules.append([])
            return run_start(family, *args)

        def counting_rule(family, raw, *args):
            met = ends_at_limit(family, raw, *args)
            if fit_module._nested_limit(fit_module._make_model(family, raw)) is not None:
                rules[-1].append(met)
            return met

        monkeypatch.setattr(fit_module, "_run_start", counting_start)
        monkeypatch.setattr(fit_module, "_ends_at_limit", counting_rule)
        result = fit(curve, "pagb")
        assert result.nested_limit is Family.PARETO
        assert result.sse <= fit(curve, "pareto").sse * (1.0 + 1e-10)
        assert any(met and met[-1] for met in rules), rules
        assert all(True not in met[:-1] for met in rules), rules

    def test_start_point_at_the_limit_may_leave_it(self):
        # pig's start at the power fit is at its limit with power's SSE; its
        # steps leave the limit for pig's interior optimum (pg's start there
        # makes one step and stops)
        curve = empirical_curve(ingest(BUNDLED))
        power_fit = fit(curve, "power")
        grid = fit_module._Grid(curve.u[1:], curve.k[1:])
        start = fit_module._point_mass(Family.PIG, *power_fit.model.param_values())
        raw, history, _ = fit_module._run_start(Family.PIG, start, grid, FitConfig(), power_fit.sse)
        assert fit_module._ends_at_limit(Family.PIG, start, history[0], power_fit.sse)
        assert history[-1] < 0.1 * power_fit.sse
        assert fit_module._nested_limit(fit_module._make_model(Family.PIG, raw)) is None

    def test_single_start_runs_to_the_end(self, monkeypatch):
        # gpig's only start here touches the gp limit before kappa is
        # fitted; a stop there without the SSE of a gp fit to hold it to
        # would end 4.8 times above this SSE
        theta = float(np.random.default_rng(3).uniform(0.5, 5.0))  # the gate's power seed 3
        curve = empirical_curve(sample_synthetic("power", n=500, seed=3, theta=theta))
        config = FitConfig(multistart_count=1)
        result = fit(curve, "gpig", config)
        without_early_stop(monkeypatch)
        assert fit_fields(result) == fit_fields(fit(curve, "gpig", config))


def count_residuals(monkeypatch):
    """Count the calls of fit_module._residuals, the fit's evaluations."""
    calls = [0]
    residuals = fit_module._residuals

    def counting(*args):
        calls[0] += 1
        return residuals(*args)

    monkeypatch.setattr(fit_module, "_residuals", counting)
    return calls


class TestHeterogeneityStep:
    """pig and gpig start one step of inverse-Gaussian heterogeneity off
    the point mass at the power or gp fit (Cox 1983): the mixture of mean
    theta and variance s2 is about K(theta) + s2/2 d2K/dtheta2."""

    U = np.linspace(0.01, 0.99, 99)

    @pytest.mark.parametrize("base, mixture", [
        (lambda theta: power(theta), lambda theta, beta: pig(theta, beta)),
        (lambda theta: gp(theta, 0.6), lambda theta, beta: gpig(0.6, theta, beta)),
    ], ids=["pig", "gpig"])
    def test_mixture_matches_the_expansion_to_second_order(self, base, mixture):
        # d2K/dtheta2 = dK/dtheta log(1 - u) for power and gp, and the
        # inverse Gaussian of mean theta and variance s2 has shape
        # theta^3/s2: the gap is O(s2^2), a quarter at half the s2
        theta = 3.0
        k, (d_theta, *_) = evaluate(base(theta), self.U, grad=True)
        h = d_theta * np.log1p(-self.U)
        gaps = []
        for s2 in (1e-3, 5e-4):
            gap = np.abs(evaluate(mixture(theta, theta**3 / s2), self.U) - (k + 0.5 * s2 * h))
            assert gap.max() <= 1e-2 * s2**2, (s2, gap.max())
            gaps.append(gap.max())
        assert 3.5 < gaps[0] / gaps[1] < 4.5, gaps

    def test_no_step_keeps_the_point_mass(self):
        # on the gate's power draw of seed 2 the power fit's residuals
        # leave s2 <= 0: pig starts at the point mass and ends at its limit
        theta = float(np.random.default_rng(2).uniform(0.5, 5.0))
        curve = empirical_curve(sample_synthetic("power", n=500, seed=2, theta=theta))
        fitted = {}
        params = fit_module._fit_once(curve, Family.POWER, FitConfig(), fitted).model.param_values()
        u = curve.u[1:-1]
        k, (d_theta,) = evaluate(power(*params), u, grad=True)
        assert (k - curve.k[1:-1]) @ (d_theta * np.log1p(-u)) >= 0.0  # s2 <= 0
        grid = fit_module._Grid(curve.u[1:], curve.k[1:])
        starts = fit_module._nested_starts(Family.PIG, curve, FitConfig(), fitted, grid)
        assert starts == [fit_module._point_mass(Family.PIG, *params)]
        result = fit_module._fit_once(curve, Family.PIG, FitConfig(), fitted)
        assert result.nested_limit is Family.POWER

    @pytest.mark.parametrize("family", [Family.PIG, Family.GPIG])
    def test_step_evaluation_is_the_first_of_its_run(self, family, monkeypatch):
        # the run from the step takes the mixture's evaluation there as its
        # first: one residual evaluation fewer, the same outcome
        curve = empirical_curve(ingest(BUNDLED))
        fitted = {}
        grid = fit_module._Grid(curve.u[1:], curve.k[1:])
        starts = fit_module._nested_starts(family, curve, FitConfig(), fitted, grid)
        (step,) = [start for start in starts if start in grid.firsts]
        limit_sse = fitted[fit_module._NESTED[family][-1]].sse
        calls = count_residuals(monkeypatch)
        handed = fit_module._run_start(family, step, grid, FitConfig(), limit_sse)
        handed_calls, calls[0] = calls[0], 0
        fresh_grid = fit_module._Grid(curve.u[1:], curve.k[1:])
        fresh = fit_module._run_start(family, step, fresh_grid, FitConfig(), limit_sse)
        assert handed_calls == calls[0] - 1
        assert handed[:2] == fresh[:2]

    def test_bundled_pig_fits_in_fewer_calls(self, monkeypatch):
        # 86 residual calls from the point mass alone; the bound was set
        # before measuring the step
        curve = empirical_curve(ingest(BUNDLED))
        fitted = {Family.POWER: fit(curve, "power")}
        calls = count_residuals(monkeypatch)
        result = fit(curve, "pig", _fitted=dict(fitted))
        step_calls = calls[0]
        monkeypatch.setattr(fit_module, "_heterogeneity_step", lambda *args: None)
        calls[0] = 0
        point_mass = fit(curve, "pig", _fitted=dict(fitted))
        assert step_calls <= 60 < calls[0]
        assert result.sse == pytest.approx(point_mass.sse, rel=1e-10)
        assert result.converged and point_mass.converged


def record_starts(monkeypatch):
    """Record (family, residual points, limit SSE) of every _run_start."""
    calls = []
    run_start = fit_module._run_start

    def recording(family, raw0, grid, config, limit_sse):
        calls.append((family, grid.points.size, limit_sse))
        return run_start(family, raw0, grid, config, limit_sse)

    monkeypatch.setattr(fit_module, "_run_start", recording)
    return calls


def thinning_off(monkeypatch):
    monkeypatch.setattr(fit_module, "_THIN_ABOVE", math.inf)


def pg_curve(n):
    return empirical_curve(sample_synthetic("pg", n=n, seed=1, alpha=0.7, beta=0.1))


class TestThinnedStart:
    """Above _THIN_ABOVE residual points the fit fits a thinned polygon
    first, then makes one run on all of them from that fit's answer."""

    JUST_ABOVE = fit_module._THIN_ABOVE + 100

    def test_one_run_per_start_at_or_below_the_size(self, monkeypatch):
        calls = record_starts(monkeypatch)
        curve = pg_curve(fit_module._THIN_ABOVE)  # _THIN_ABOVE residual points
        fit(curve, "pg", FitConfig(multistart_count=4))
        assert calls and {size for _, size, _ in calls} == {fit_module._THIN_ABOVE}

    @pytest.mark.parametrize("family", ["power", "pagb"])
    def test_thinned_run_per_start_above_the_size(self, family, monkeypatch):
        # the thinned polygon, every s-th residual point and the two end
        # vertices, goes through fit itself, limit stop included; then one
        # run on the full polygon starts at its answer, with the SSE of the
        # full polygon's limit fit
        family = Family(family)
        m = self.JUST_ABOVE
        curve = pg_curve(m)
        keep = np.r_[0, 1:m:math.ceil(m / fit_module._THIN_SIZE), m]
        thin = EmpiricalCurve(curve.u[keep], curve.k[keep])
        limits = (None, None)
        if family is Family.PAGB:
            limits = (fit(thin, "pareto").sse, fit(curve, "pareto").sse)
        start = fit(thin, family).model.param_values()
        runs = []  # (residual points, start point, limit SSE) of each run of family
        run_start = fit_module._run_start

        def recording(run_family, raw0, grid, config, limit_sse):
            if run_family is family:
                runs.append((grid.points.size, tuple(raw0), limit_sse))
            return run_start(run_family, raw0, grid, config, limit_sse)

        monkeypatch.setattr(fit_module, "_run_start", recording)
        fit(curve, family)
        *thinned, full = runs
        assert full == (m, start, limits[1])
        assert thinned and {(size, limit) for size, _, limit in thinned} == {
            (thin.u.size - 1, limits[0])}

    def test_one_full_run_per_thinned_minimum(self, monkeypatch):
        # power's four starts on 40,000 points all run on the thinned
        # polygon; only the thinned fit's answer runs on, and every
        # full-polygon evaluation is that one run's
        curve = empirical_curve(sample_synthetic("power", n=40_000, seed=1, theta=3.0))
        full_size = curve.u.size - 1
        sizes, thinned, full_runs = [], [], []
        residuals, run_start = fit_module._residuals, fit_module._run_start

        def counting(family, raw, points, k_emp):
            sizes.append(points.size)
            return residuals(family, raw, points, k_emp)

        def recording(family, raw0, grid, *args):
            before = sizes.count(full_size)
            outcome = run_start(family, raw0, grid, *args)
            if grid.points.size <= fit_module._THIN_SIZE:
                thinned.append(outcome)
            else:
                full_runs.append(sizes.count(full_size) - before)
            return outcome

        monkeypatch.setattr(fit_module, "_residuals", counting)
        monkeypatch.setattr(fit_module, "_run_start", recording)
        fit(curve, "power", FitConfig(multistart_count=4))
        assert len(thinned) == 4 and None not in thinned
        assert len(full_runs) == 1 and full_runs[0] > 0
        assert sizes.count(full_size) == sum(full_runs)

    def test_failed_thin_run_falls_back_to_the_start_point(self, monkeypatch):
        curve = pg_curve(self.JUST_ABOVE)
        with monkeypatch.context() as patch:
            thinning_off(patch)
            plain = fit(curve, "power", FitConfig(multistart_count=4))
        run_start = fit_module._run_start

        def no_thin_run(family, raw0, grid, *args):
            if grid.points.size <= fit_module._THIN_SIZE:
                return None
            return run_start(family, raw0, grid, *args)

        monkeypatch.setattr(fit_module, "_run_start", no_thin_run)
        assert fit(curve, "power", FitConfig(multistart_count=4)) == plain

    @pytest.mark.parametrize("n", [JUST_ABOVE, 100_000], ids=["just above", "1e5"])
    def test_keeps_the_answers_of_the_full_polygon(self, n, monkeypatch):
        curve = pg_curve(n)
        config = FitConfig(multistart_count=4)  # pg and pagb still get their nested starts
        thinned = {family: fit(curve, family, config) for family in ("power", "pg", "pagb")}
        thinning_off(monkeypatch)
        for family, result in thinned.items():
            plain = fit(curve, family, config)
            assert result.sse <= plain.sse * (1.0 + 1e-10), family
            assert result.converged == plain.converged, family
            assert result.nested_limit is plain.nested_limit, family

    @pytest.mark.parametrize("family", ["power", "gpg"])
    def test_history_is_the_full_polygons(self, family):
        curve = pg_curve(self.JUST_ABOVE)
        result = fit(curve, family, FitConfig(multistart_count=4))
        history = result.objective_history
        assert result.iterations == len(history) - 1
        assert all(b <= a for a, b in zip(history, history[1:]))
        assert history[-1] == result.sse
        r = evaluate(result.model, curve.u[1:]) - curve.k[1:]
        assert result.sse == pytest.approx(float(r @ r), rel=1e-12)


def damped_problem(rng, p, kind):
    """A random damped least-squares problem |J y + r|^2 + lam |y|^2 in
    p coordinates as (J, r, lam, A, b), |A y - b|^2 being the same.
    kind "scaled" spreads J's column norms from 1e-4 to 1e4; "parallel"
    makes its first two columns nearly parallel."""
    J, r = rng.normal(size=(12, p)), rng.normal(size=12)
    if kind == "scaled":
        J *= np.logspace(-4.0, 4.0, p)
    elif kind == "parallel":
        J[:, 1] = J[:, 0] + 1e-7 * J[:, 1]
    lam = 10.0 ** rng.uniform(-6.0, 0.0) * np.linalg.norm(J, 2) ** 2
    A = np.vstack([J, math.sqrt(lam) * np.eye(p)])
    b = np.append(-r, np.zeros(p))
    return J, r, lam, A, b


def per_call_start_t(family, raw0):
    """_start_t with its boxes built on every call, as before the
    per-family tables: the reference for their bits."""
    raw_lo, raw_hi, _ = np.array(fit_module._BOUNDS[family]).T
    lo, hi, _ = np.array(fit_module._search_bounds(family)).T
    values = fit_module._search_values(family, np.clip(raw0, raw_lo, raw_hi))
    t = fit_module._to_t(family, values)
    return np.clip(t, fit_module._to_t(family, lo), fit_module._to_t(family, hi))


def per_call_raw_of(family, t):
    """_raw_of with its boxes built on every call."""
    values = np.where([b.log for b in fit_module._search_bounds(family)], np.exp(t), t)
    if family is Family.PAGB:
        m, lam, shift = values
        values = ((1.0 - m) / lam, m / lam, shift)
    raw_lo, raw_hi, _ = np.array(fit_module._BOUNDS[family]).T
    return tuple(map(float, np.clip(values, raw_lo, raw_hi)))


def per_call_log_scale(family, raw):
    """_log_scale with its log flags read on every call."""
    values = fit_module._search_values(family, raw)
    return [v if b.log else 1.0 for v, b in zip(values, fit_module._search_bounds(family))]


def box_points(rng, bounds, n=60):
    """n seeded points of the box of bounds (_Bound each, log-uniform where
    log): inside it, on its faces and corners, and beyond it by up to half
    its width on either side."""
    lo, hi, log = (np.array(column) for column in zip(*bounds))
    log = log.astype(bool)
    f = rng.uniform(-0.5, 1.5, size=(n, lo.size))
    on_face = rng.uniform(size=f.shape) < 0.3
    f[on_face] = rng.integers(0, 2, size=f.shape)[on_face]
    a, b = (np.where(log, np.log(np.where(log, x, 1.0)), x) for x in (lo, hi))
    x = a + f * (b - a)
    x = np.where(log, np.exp(x), x)
    return np.where(f == 0.0, lo, np.where(f == 1.0, hi, x))


def same_bits(a, b):
    return np.asarray(a, dtype=float).tobytes() == np.asarray(b, dtype=float).tobytes()


class TestBoxTables:
    """_start_t, _raw_of and _log_scale read each family's box from
    _BOXES, made once; they must give the values of the boxes built on
    every call bit for bit, inside the box, on it and beyond it."""

    @pytest.mark.parametrize("family", list(Family))
    def test_start_points(self, family):
        rng = np.random.default_rng(sum(map(ord, family.value)))
        # the parameter box; pagb's maps into its (m, lam, shift) box, and
        # beyond it, through the clip into the search box
        for raw0 in box_points(rng, fit_module._BOUNDS[family]).tolist():
            t = fit_module._start_t(family, tuple(raw0))
            assert same_bits(t, per_call_start_t(family, tuple(raw0))), raw0

    @pytest.mark.parametrize("family", list(Family))
    def test_parameters_and_log_scales(self, family):
        rng = np.random.default_rng(1 + sum(map(ord, family.value)))
        # the search box in t, where every coordinate is linear
        lo, hi, _ = np.array(fit_module._search_bounds(family)).T
        t_box = [fit_module._Bound(a, b, False) for a, b in
                 zip(fit_module._to_t(family, lo), fit_module._to_t(family, hi))]
        for t in box_points(rng, t_box):
            raw = fit_module._raw_of(family, t)
            assert type(raw) is tuple and all(type(x) is float for x in raw)
            assert same_bits(raw, per_call_raw_of(family, t)), t
            assert same_bits(fit_module._log_scale(family, raw),
                             per_call_log_scale(family, raw)), raw
        for raw in box_points(rng, fit_module._BOUNDS[family]).tolist():
            assert same_bits(fit_module._log_scale(family, raw),
                             per_call_log_scale(family, raw)), raw


def gathered_lm_step(M, z, radius, lo, hi):
    """_lm_step as it was before it skipped the gather of M's free
    columns: the reference for its bits."""
    g = z @ M
    free = ~(((lo == 0.0) & (g > 0.0)) | ((hi == 0.0) & (g < 0.0)))
    y = np.zeros(lo.size)
    if free.any():
        u, sigma, wt = np.linalg.svd(M[:, free], full_matrices=False)
        s = sigma * sigma
        beta = sigma * (u.T @ z)
        lam = (100.0 * fit_module._EPS) ** 2 * s[0] or 1.0
        w = beta / (s + lam)
        for _ in range(10):
            q = math.sqrt(w @ w)
            if q <= 1.1 * radius:
                break
            lam += (q / radius - 1.0) / ((w / q) @ (w / q / (s + lam)))
            w = beta / (s + lam)
        y[free] = -(w @ wt)
        if (y < lo).any() or (y > hi).any():
            lo, hi = np.where(free, lo, 0.0), np.where(free, hi, 0.0)
            y = fit_module._box_minimum(M, z, lam, lo, hi)
            if math.sqrt(y @ y) > 1.1 * radius:
                y = fit_module._box_minimum(M, z, math.sqrt(g[free] @ g[free]) / radius, lo, hi)
    my = M @ y
    return y, -float((2.0 * z + my) @ my)


class TestBoundedStep:
    """The step on the box: the minimum of the damped problem over the
    faces of the box, against scipy's bounded linear least squares."""

    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_every_coordinate_free_is_the_gathered_step(self, p):
        # inside the box, damped to the trust radius, and cut by the box
        rng = np.random.default_rng(20 + p)
        for radius, width in ((1e6, 1e6), (0.1, 1e6), (1e6, 0.05), (0.3, 0.2)):
            for _ in range(10):
                M, z = rng.normal(size=(p, p)), rng.normal(size=p)
                lo, hi = -width * rng.uniform(0.5, 1.0, p), width * rng.uniform(0.5, 1.0, p)
                y, drop = fit_module._lm_step(M, z, radius, lo, hi)
                ref_y, ref_drop = gathered_lm_step(M, z, radius, lo, hi)
                assert np.array_equal(y, ref_y) and same_bits(drop, ref_drop), (radius, width)

    @pytest.mark.parametrize("radius, width", [(1e6, 1e6), (0.1, 1e6), (1e6, 0.05)])
    def test_a_face_holds_the_coordinate_pushed_against_it(self, radius, width):
        rng = np.random.default_rng(7)
        for held in range(3):
            M, z = rng.normal(size=(3, 3)), rng.normal(size=3)
            lo, hi = -width * rng.uniform(0.5, 1.0, 3), width * rng.uniform(0.5, 1.0, 3)
            # on the lower face where the gradient M^T z is positive, else the upper
            g = z @ M
            (lo if g[held] > 0.0 else hi)[held] = 0.0
            y, drop = fit_module._lm_step(M, z, radius, lo, hi)
            ref_y, ref_drop = gathered_lm_step(M, z, radius, lo, hi)
            assert np.array_equal(y, ref_y) and same_bits(drop, ref_drop)
            assert y[held] == 0.0 and np.all((lo <= y) & (y <= hi))
            assert drop == pytest.approx(z @ z - np.sum((M @ y + z) ** 2), rel=1e-9, abs=1e-15)

    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_matches_lsq_linear(self, p):
        from scipy.optimize import lsq_linear  # an oracle for the tests only

        rng = np.random.default_rng(p)
        active_counts = set()
        kinds = ("plain", "scaled", "parallel") if p > 1 else ("plain", "scaled")
        for kind in kinds:
            for _ in range(6):
                J, r, lam, A, b = damped_problem(rng, p, kind)
                free = np.linalg.lstsq(A, b, rcond=None)[0]
                for forced in range(p + 1):
                    # the box holds 0, and cuts the free minimum in `forced`
                    # coordinates
                    width = 10.0 * np.abs(free) + 1e-3
                    lo, hi = -width * rng.uniform(0.5, 1.0, p), width * rng.uniform(0.5, 1.0, p)
                    cut = rng.permutation(p)[:forced]
                    hi[cut] = np.where(free[cut] > 0, 0.5 * free[cut], hi[cut])
                    lo[cut] = np.where(free[cut] < 0, 0.5 * free[cut], lo[cut])
                    y = fit_module._box_minimum(J, r, lam, lo, hi)
                    assert np.all((lo <= y) & (y <= hi))
                    oracle = lsq_linear(A, b, bounds=(lo, hi), method="bvls", tol=1e-15).x
                    objective, expected = (float(np.sum((A @ x - b) ** 2)) for x in (y, oracle))
                    assert objective == pytest.approx(expected, rel=1e-10), (kind, forced)
                    active_counts.add(int(np.sum((y == lo) | (y == hi))))
        assert active_counts == set(range(p + 1))

    def test_takes_the_free_step_inside_the_box(self):
        rng = np.random.default_rng(5)
        M, z = rng.normal(size=(3, 3)), rng.normal(size=3)
        wide = np.full(3, 1e6)
        y, drop = fit_module._lm_step(M, z, 1e6, -wide, wide)
        # the undamped step, but for the rounding-level damping
        assert y == pytest.approx(np.linalg.solve(M, -z), rel=1e-9)
        assert drop == pytest.approx(z @ z, rel=1e-9)
        # a trust radius of 0.1 damps it to within 10% of the radius
        y, drop = fit_module._lm_step(M, z, 0.1, -wide, wide)
        assert 0.1 <= np.linalg.norm(y) <= 0.11
        assert 0.0 < drop == pytest.approx(z @ z - np.sum((M @ y + z) ** 2), rel=1e-9)

    @pytest.mark.parametrize("seed", range(4))
    def test_a_step_from_a_corner_stays_in_the_box(self, seed):
        rng = np.random.default_rng(seed)
        M, z = rng.normal(size=(3, 3)), rng.normal(size=3)
        # at the corner every coordinate sits on its lower or upper bound
        upper = rng.uniform(size=3) < 0.5
        lo = np.where(upper, -rng.uniform(0.1, 1.0, 3), 0.0)
        hi = np.where(upper, 0.0, rng.uniform(0.1, 1.0, 3))
        for radius in (1e-3, 1.0, 1e3):
            y, drop = fit_module._lm_step(M, z, radius, lo, hi)
            assert np.all((lo <= y) & (y <= hi)), (radius, y)
            assert drop >= 0.0

    def test_start_at_a_box_corner_stays_feasible(self, monkeypatch):
        # gpg from the corner kappa = 1, alpha at its floor, beta at its cap
        curve = empirical_curve(sample_synthetic("pg", n=300, seed=4, alpha=0.7, beta=0.3))
        grid = fit_module._Grid(curve.u[1:], curve.k[1:])
        lm_step, steps = fit_module._lm_step, []

        def stepping(M, z, radius, lo, hi):
            y, drop = lm_step(M, z, radius, lo, hi)
            steps.append(bool(np.all((lo <= y) & (y <= hi))))
            return y, drop

        monkeypatch.setattr(fit_module, "_lm_step", stepping)
        corner = (1.0, 1e-8, 1e14)
        raw, history, _ = fit_module._run_start(Family.GPG, corner, grid, FitConfig(), None)
        assert steps and all(steps)
        assert all(b.lo <= x <= b.hi for b, x in zip(fit_module._BOUNDS[Family.GPG], raw))
        assert all(a >= b for a, b in zip(history, history[1:]))
        assert history[-1] < history[0]

    def test_relative_offset_stop_after_one_step_on_a_linear_problem(self, monkeypatch):
        # pareto's theta is searched on a linear scale: with residuals
        # a theta - b, the first step lands on the least-squares solution,
        # whose relative offset is at rounding level
        rng = np.random.default_rng(2)
        a = rng.uniform(0.5, 1.5, 50)
        b = 0.3 * a + 1e-3 * rng.normal(size=50)
        calls = []

        def linear(family, raw, points, k_emp):
            calls.append(raw)
            return a * raw[0] - b, (a.copy(),)

        monkeypatch.setattr(fit_module, "_residuals", linear)
        u = np.arange(1, 51) / 51.0
        grid = fit_module._Grid(u, u)
        raw, history, _ = fit_module._run_start(Family.PARETO, (0.5,), grid, FitConfig(), None)
        assert len(calls) == 2 and len(history) == 2
        assert raw[0] == pytest.approx((a @ b) / (a @ a), rel=1e-12)


class TestDegenerateDatasets:
    """Pinned behaviour on datasets at the edges of the input domain."""

    def test_single_source(self):
        curve = empirical_curve(CitationDataset((7,)))
        report = empirical_indices(curve)
        assert report.gini == 0.0 and report.pietra == 0.0
        assert report.pietra_argmax_u == 0.0
        assert all(value == 0.0 for _, value in report.generalized_gini)
        with pytest.raises(ValueError, match="residual points.*got 1"):
            fit(curve, "power")

    def test_counts_above_2_to_the_53(self):
        dataset = CitationDataset((2**70, 1))
        assert dataset.total == 2**70 + 1
        curve = empirical_curve(dataset)
        assert empirical_indices(curve).gini == 0.5
        result = fit(curve, "power")
        # the one residual's K is 2^70 / (2^70 + 1), 1.0 in floating point,
        # which 1 - 2^-(1 + theta) reaches for theta of about 53 and more:
        # the bounded steps run theta up to there, an exact fit
        assert result.converged and result.sse == 0.0

    # a fit whose SSE is at rounding level but not exact reads converged
    # only if its relative offset is at most 1e-3.  On these sets the SSE
    # falls towards an optimum outside the box (theta to infinity, or a
    # kappa or theta floor): the families that stop on the box's edge with
    # SSE from 1e-25 to 1e-17 and residuals almost wholly in the span of J
    # read not converged, those whose SSE reaches n (4 eps)^2 or 0 read
    # converged as exact fits
    @pytest.mark.parametrize("counts, converged", [
        ((5, 5, 5, 5), {"pg", "gpg"}),
        ((1, 0, 0, 0), {"power", "gp", "pg", "pig", "gpg", "gpig"}),
    ])
    def test_flags_on_flat_and_single_spike_data(self, counts, converged):
        curve = empirical_curve(CitationDataset(counts))
        for family in Family:
            result = fit(curve, family, FitConfig())
            assert result.converged == (family.value in converged), family
            assert result.nested_limit is None, family


class TestRawCoordinateAgreement:
    def test_power_matches_direct_search(self):
        # one-parameter family: minimize the SSE over theta itself by
        # golden-section search and compare fitted curves
        dataset = sample_synthetic("power", n=1200, seed=23, theta=1.8)
        curve = empirical_curve(dataset)
        u = curve.u[1:]
        k_emp = curve.k[1:]

        def sse_of(theta):
            return float(np.sum((evaluate(power(theta), u) - k_emp) ** 2))

        lo, hi = 0.05, 20.0
        inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
        a, b = lo, hi
        c = b - inv_phi * (b - a)
        d = a + inv_phi * (b - a)
        fc, fd = sse_of(c), sse_of(d)
        for _ in range(200):
            if fc < fd:
                b, d, fd = d, c, fc
                c = b - inv_phi * (b - a)
                fc = sse_of(c)
            else:
                a, c, fc = c, d, fd
                d = a + inv_phi * (b - a)
                fd = sse_of(d)
        theta_search = 0.5 * (a + b)

        result = fit(curve, "power", FAST)
        grid = np.linspace(0.0, 1.0, 101)
        k_fit = evaluate(result.model, grid)
        k_search = evaluate(power(theta_search), grid)
        assert np.max(np.abs(k_fit - k_search)) <= 1e-8


class TestStandardErrors:
    def test_linear_model_analytic(self):
        u = np.linspace(0.01, 1.0, 60)
        jacobian = u.reshape(-1, 1)
        sse = 0.37
        se = standard_errors(jacobian, sse, 60, 1)
        expected = math.sqrt(sse / 59.0 / float(np.sum(u * u)))
        assert se is not None
        assert se[0] == pytest.approx(expected, rel=1e-13)

    def test_divisor_variants(self):
        u = np.linspace(0.01, 1.0, 60)
        jacobian = u.reshape(-1, 1)
        se_np = standard_errors(jacobian, 0.37, 60, 1, variance_divisor="n_minus_p")
        se_n = standard_errors(jacobian, 0.37, 60, 1, variance_divisor="n")
        assert se_np[0] / se_n[0] == pytest.approx(math.sqrt(60.0 / 59.0), rel=1e-13)
        with pytest.raises(ValueError):
            standard_errors(jacobian, 0.37, 60, 1, variance_divisor="bogus")

    def test_rank_deficient_returns_none(self):
        u = np.linspace(0.01, 1.0, 60)
        jacobian = np.column_stack([u, u])
        assert standard_errors(jacobian, 1.0, 60, 2) is None

    def test_diagonal_jacobian(self):
        jacobian = np.zeros((10, 2))
        jacobian[:5, 0] = 2.0
        jacobian[5:, 1] = 4.0
        se = standard_errors(jacobian, 8.0, 10, 2, variance_divisor="n")
        sigma2 = 0.8
        assert se[0] == pytest.approx(math.sqrt(sigma2 / 20.0), rel=1e-13)
        assert se[1] == pytest.approx(math.sqrt(sigma2 / 80.0), rel=1e-13)

    def test_exact_fit_gives_zero_errors(self):
        curve = model_polygon(power(2.0), 300)
        result = fit(curve, "power", FAST)
        assert result.std_errors is not None
        assert result.std_errors[0] <= 1e-9


class TestConvergenceFromTheGram:
    """fit reads its relative offset, rank cut and standard errors off the
    winning start's last Gram, R mapped into the parameters."""

    def test_bundled_fits_match_an_svd_of_the_jacobian(self, monkeypatch):
        curve = empirical_curve(ingest(BUNDLED))
        offsets, ranks = [], []
        relative_offset, reduced_svd = fit_module._relative_offset, fit_module._reduced_svd

        def recording_offset(*args):
            offsets.append(relative_offset(*args))
            return offsets[-1]

        def recording_svd(*args):
            svd = reduced_svd(*args)
            ranks.append(svd is not None)
            return svd

        monkeypatch.setattr(fit_module, "_relative_offset", recording_offset)
        monkeypatch.setattr(fit_module, "_reduced_svd", recording_svd)
        grid = fit_module._Grid(curve.u[1:], curve.k[1:])
        fitted = {}
        for family in Family:  # nested families first: each records its own fit
            offsets.clear()
            ranks.clear()
            result = fit_module._fit_once(curve, family, FitConfig(), fitted)
            raw = result.model.param_values()
            r, dk = fit_module._residuals(family, raw, grid.points, grid.k)
            n, p = curve.u.size - 1, len(raw)
            offset, full_rank, errors = svd_convergence_test(
                fit_module._jacobian(family, raw, dk, search=False), r, result.sse / (n - p))
            assert result.converged == (result.nested_limit is None and offset <= 1e-3), family
            if result.nested_limit is not None:
                assert not full_rank and not ranks and not offsets, family
                continue
            assert ranks == [full_rank], family
            # below the cut, both offsets hold J^T r to its rounding alone,
            # and the flag compares them with the cut
            assert offsets == [pytest.approx(offset, rel=1e-9, abs=1e-12)], family
            assert result.std_errors == pytest.approx(errors, rel=1e-9), family


class TestRelativeOffset:
    """Bates & Watts's relative offset of residuals r to the span of J."""

    @staticmethod
    def offset(J, r):
        J = np.asarray(J, float)
        R, z, rr = fit_module._compress(J, np.asarray(r, float))
        return fit_module._relative_offset(fit_module._reduced_svd(R, J.shape[0]), z, rr,
                                           J.shape[0])

    def test_orthogonal_residuals_give_zero(self):
        J = np.zeros((5, 2))
        J[0, 0], J[1, 1] = 2.0, -3.0
        assert self.offset(J, [0.0, 0.0, 1.0, 2.0, -2.0]) == 0.0

    def test_known_projection(self):
        # r has components c[:p] along an orthonormal basis of J's columns
        # and c[p:] across it
        rng = np.random.default_rng(4)
        n, p = 9, 3
        J = rng.normal(size=(n, p))
        Q, _ = np.linalg.qr(J, mode="complete")
        c = rng.normal(size=n)
        expected = math.sqrt(c[:p] @ c[:p] / p) / math.sqrt(c[p:] @ c[p:] / (n - p))
        assert self.offset(J, Q @ c) == pytest.approx(expected, rel=1e-12)
        # the offset depends on the span alone, not on the scale of J's columns
        assert self.offset(J * [1e-4, 1.0, 1e4], Q @ c) == pytest.approx(expected, rel=1e-9)

    def test_rank_deficient_or_square_jacobian_is_infinite(self):
        # two parallel columns span one direction, not a tangent plane of
        # the two parameters, however small the residuals across it
        v = np.ones(6)
        J = np.column_stack([v, 2.0 * v])
        assert fit_module._reduced_svd(fit_module._compress(J, np.zeros(6))[0], 6) is None
        assert self.offset(J, [2.0, -2.0, 2.0, -2.0, 0.0, 1e-9]) == math.inf
        assert self.offset(np.zeros((4, 2)), [1.0, 0.0, 0.0, 0.0]) == math.inf
        # n = p leaves no room across the span
        assert self.offset(np.eye(3), [1.0, 2.0, 3.0]) == math.inf


class TestFailedEvaluations:
    """The fit's guards on evaluations that fail or overflow."""

    POINTS = _Points(np.linspace(0.0, 1.0, 11)[1:-1])

    @pytest.mark.parametrize("error", [ConvergenceError, OverflowError])
    def test_residuals_are_none_where_evaluate_raises(self, monkeypatch, error):
        def failing(*args, **kwargs):
            raise error("no value")

        monkeypatch.setattr(fit_module, "evaluate", failing)
        assert fit_module._residuals(Family.POWER, (2.0,), self.POINTS, np.zeros(9)) is None

    def test_residuals_are_none_where_k_is_nan(self, monkeypatch):
        monkeypatch.setattr(fit_module, "evaluate", lambda model, points, grad: (
            np.full(9, np.nan), (np.ones(9),)))
        assert fit_module._residuals(Family.POWER, (2.0,), self.POINTS, np.zeros(9)) is None

    def test_residuals_kept_where_only_the_sum_of_squares_overflows(self, monkeypatch):
        # every entry finite, r^T r not: the per-element test keeps them
        monkeypatch.setattr(fit_module, "evaluate", lambda model, points, grad: (
            np.full(9, 1e200), (np.full(9, 1e-3),)))
        r, (d,) = fit_module._residuals(Family.POWER, (2.0,), self.POINTS, np.zeros(9))
        assert np.all(r == 1e200) and np.all(d == 1e-3)

    def test_compress_is_none_where_the_gram_overflows(self):
        J = np.column_stack([np.full(5, 1e200), np.ones(5)])
        with np.errstate(over="ignore"):
            assert fit_module._compress(J, np.ones(5)) is None

    @pytest.fixture()
    def bundled_step(self):
        # pig's heterogeneity step off the power fit of the bundled data
        curve = empirical_curve(ingest(BUNDLED))
        params = fit(curve, "power").model.param_values()
        grid = fit_module._Grid(curve.u[1:], curve.k[1:])
        assert fit_module._heterogeneity_step(Family.PIG, Family.POWER, params,
                                              fit_module._Grid(curve.u[1:], curve.k[1:]))
        return params, grid

    def test_no_step_where_the_nested_residuals_fail(self, monkeypatch, bundled_step):
        params, grid = bundled_step
        monkeypatch.setattr(fit_module, "_residuals", lambda *args: None)
        assert fit_module._heterogeneity_step(Family.PIG, Family.POWER, params, grid) is None

    @pytest.mark.parametrize("gram", [None, (np.eye(2), np.zeros(2), math.inf)],
                             ids=["failed", "higher-sse"])
    def test_no_step_where_the_mixture_gram_fails_or_is_worse(self, monkeypatch,
                                                              bundled_step, gram):
        params, grid = bundled_step
        monkeypatch.setattr(fit_module, "_gram", lambda *args: gram)
        assert fit_module._heterogeneity_step(Family.PIG, Family.POWER, params, grid) is None
        assert grid.firsts == {}


class TestCompressedProblem:
    """The Gram of [J r] that the solver sees in place of the n-row problem."""

    @staticmethod
    def check(J, r):
        R, z, rr = fit_module._compress(J, r)
        p = J.shape[1]
        assert R.shape == (p, p) and z.shape == (p,)
        assert np.isfinite(R).all() and np.isfinite(z).all()
        assert rr == float(r @ r)
        # [R z; 0 rho], rho^2 = r^T r - z^T z, has the Gram of [J r]
        small = np.zeros((p + 1, p + 1))
        small[:p, :p], small[:p, p], small[p, p] = R, z, math.sqrt(max(rr - z @ z, 0.0))
        full = np.column_stack([J, r])
        gram = full.T @ full
        norms = np.sqrt(np.diag(gram))
        # each entry to 1e-12 of the norms of its two columns, however far
        # apart the column scales lie
        scale = np.outer(norms, norms)
        assert np.all(np.abs(small.T @ small - gram) <= 1e-12 * scale)
        assert small[:, p] @ small[:, p] == pytest.approx(r @ r, rel=1e-13)
        assert np.all(np.abs(R.T @ z - J.T @ r) <= 1e-12 * norms[:p] * norms[p])
        return R, z, rr

    @pytest.mark.parametrize("seed", range(5))
    def test_keeps_the_gram_of_random_problems(self, seed):
        rng = np.random.default_rng(seed)
        J, r = rng.normal(size=(50, 3)), rng.normal(size=50)
        self.check(J, r)
        self.check(J * [1e-4, 1.0, 1e4], r)
        self.check(J * [1e4, 1e-4, 1.0], 1e-6 * r)

    def test_zero_and_equal_columns_give_finite_output(self):
        rng = np.random.default_rng(7)
        v, w, r = rng.normal(size=(3, 40))
        R, _, _ = self.check(np.column_stack([v, np.zeros(40), w]), r)
        assert not R[:, 1].any()
        self.check(np.column_stack([v, v, w]), r)
        self.check(np.column_stack([v, v]), r)
        self.check(np.zeros((40, 2)), r)

    def test_nearly_parallel_columns_keep_their_small_singular_value(self):
        # sigma_2 / sigma_1 about 1e-7: the Gram alone would hold sigma_2^2
        # only to rounding of sigma_1^2, an SVD of J holds sigma_2 to 1e-9
        rng = np.random.default_rng(3)
        v, w, r = rng.normal(size=(3, 200))
        J = np.column_stack([v, v + 1e-7 * w, w])
        R, _, _ = self.check(J, r)
        expected = np.linalg.svd(J, compute_uv=False)
        assert np.linalg.svd(R, compute_uv=False) == pytest.approx(expected, rel=1e-8)

    def test_single_residual(self):
        # one residual and three parameters, as on the counts (2^70, 1)
        self.check(np.array([[2.0, 3.0, -1.0]]), np.array([0.5]))
        self.check(np.array([[2.0, 3.0]]), np.array([0.0]))

    @pytest.mark.parametrize("family, draw", [("power", ("power", {"theta": 3.0})),
                                              ("gpg", ("pg", {"alpha": 0.7, "beta": 0.1}))])
    def test_solver_gets_the_gram_at_any_n(self, family, draw, monkeypatch):
        compress, lm_step = fit_module._compress, fit_module._lm_step
        rows, sizes = [], []

        def compressing(J, r, **kwargs):
            rows.append(J.shape[0])
            return compress(J, r, **kwargs)

        def stepping(M, z, *args):
            sizes.append((M.shape, z.shape))
            return lm_step(M, z, *args)

        monkeypatch.setattr(fit_module, "_compress", compressing)
        monkeypatch.setattr(fit_module, "_lm_step", stepping)
        generator, params = draw
        curve = empirical_curve(sample_synthetic(generator, 10_000, 5, **params))
        # with two starts, gpg also fits pg, gp and power for its nested starts
        result = fit(curve, family, FitConfig(multistart_count=2))
        n = curve.u.size - 2  # the vertices inside (0, 1)
        assert rows and set(rows) == {n}
        assert sizes and all(m == (z[0], z[0]) and z[0] <= 3 for m, z in sizes)
        # the SSE is still that of the full residuals
        r = evaluate(result.model, curve.u[1:]) - curve.k[1:]
        assert result.sse == pytest.approx(float(r @ r), rel=1e-12)

    def test_pig_at_its_unnamed_alpha_limit(self):
        # pig on pareto-like data runs to the alpha cap, where J is rank
        # deficient: the Gram's eigenvalue cut acts there
        curve = empirical_curve(sample_synthetic("pareto", 500, 0, theta=0.646))
        result = fit(curve, "pig")
        assert result.sse == pytest.approx(0.30825332969881, rel=1e-10)
        assert result.model.params.alpha > 1e13
        assert not result.converged
        assert result.nested_limit is None and result.std_errors is None


class TestCaic:
    def test_pinned_value(self):
        # log likelihood -(100/2) (log(2 pi / 100) + 1) = 88.364656,
        # penalty 1 + log 100
        assert caic(1.0, 100, 1) == pytest.approx(-171.1241417718865, rel=1e-12)

    def test_perfect_fit_is_negative_infinity(self):
        assert caic(0.0, 100, 1) == -math.inf

    def test_parameter_penalty_step(self):
        n = 100
        step = caic(1.0, n, 2) - caic(1.0, n, 1)
        assert step == pytest.approx(1.0 + math.log(n), rel=1e-12)

    def test_variance_parameter_flag(self):
        n = 250
        base = caic(0.5, n, 2)
        with_variance = caic(0.5, n, 2, count_variance_param=True)
        assert with_variance - base == pytest.approx(1.0 + math.log(n), rel=1e-12)

    def test_increases_with_sse(self):
        assert caic(2.0, 100, 1) > caic(1.0, 100, 1)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            caic(-1.0, 100, 1)
        with pytest.raises(ValueError):
            caic(1.0, 0, 1)
        with pytest.raises(ValueError):
            caic(1.0, 100, 0)


class TestFitMetrics:
    def test_hand_computed_residuals(self):
        model = power(1.0)
        curve = EmpiricalCurve([0.0, 0.25, 0.5, 0.75, 1.0], [0.0, 0.5, 0.8, 0.95, 1.0])
        # K(u) = 2u - u^2 at the four vertices past the origin
        fitted = np.array([0.4375, 0.75, 0.9375, 1.0])
        observed = np.array([0.5, 0.8, 0.95, 1.0])
        r = fitted - observed
        metrics = fit_metrics(curve, model)
        assert isinstance(metrics, FitMetrics)
        assert metrics.mse == pytest.approx(float(np.mean(r**2)), rel=1e-13)
        assert metrics.max_abs == pytest.approx(float(np.max(np.abs(r))), rel=1e-13)
        assert metrics.mae == pytest.approx(float(np.mean(np.abs(r))), rel=1e-13)

    def test_fit_result_metrics_match_helper(self):
        dataset = sample_synthetic("power", n=400, seed=3, theta=2.2)
        curve = empirical_curve(dataset)
        result = fit(curve, "power", FAST)
        metrics = fit_metrics(curve, result.model)
        assert result.mse == pytest.approx(metrics.mse, rel=1e-12)
        assert result.max_abs == pytest.approx(metrics.max_abs, rel=1e-12)
        assert result.mae == pytest.approx(metrics.mae, rel=1e-12)
        n = curve.u.size - 1
        assert result.mse == pytest.approx(result.sse / n, rel=1e-12)


class TestCompareModels:
    def test_true_family_wins_on_noiseless_data(self):
        curve = model_polygon(pg(0.701, 0.102), 201)
        comparison = compare_models(curve, ["power", "pareto", "pg"], FAST)
        assert comparison.results[0].model.family is Family.PG
        assert comparison.failures == ()
        caics = [r.caic for r in comparison.results]
        assert caics == sorted(caics)

    def test_fewer_parameters_break_near_ties(self):
        curve = model_polygon(power(2.0), 300)
        comparison = compare_models(curve, ["gp", "power"], FAST)
        assert comparison.results[0].model.family is Family.POWER

    def test_failed_family_recorded(self):
        curve = model_polygon(gpg(0.5, 1.0, 1.0), 3)
        comparison = compare_models(curve, ["power", "gpg"], FAST)
        assert len(comparison.results) == 1
        assert comparison.results[0].model.family is Family.POWER
        assert len(comparison.failures) == 1
        assert comparison.failures[0][0] == "gpg"

    def test_all_failures_raise(self):
        curve = model_polygon(gpg(0.5, 1.0, 1.0), 3)
        with pytest.raises(RuntimeError):
            compare_models(curve, ["gpg", "gpig"], FAST)

    def test_empty_family_list_rejected(self):
        curve = model_polygon(power(2.0), 50)
        with pytest.raises(ValueError):
            compare_models(curve, [], FAST)


def mp_curve(family, params, u):
    """K(u) from the family's closed form in mpmath."""
    u = mpmath.mpf(u)
    lu, l1 = mpmath.log(u), mpmath.log1p(-u)
    if family is Family.POWER:
        (theta,) = params
        return 1 - mpmath.exp((1 + theta) * l1)
    if family is Family.GP:
        theta, kappa = params
        return 1 - (1 - mpmath.exp(kappa * lu)) * mpmath.exp(theta * l1)
    if family is Family.PARETO:
        (theta,) = params
        return mpmath.exp((1 - theta) * lu)
    if family is Family.PAGB:
        alpha, beta, shift = params
        return mpmath.hyp1f1(beta, alpha + beta, shift + lu) / mpmath.hyp1f1(
            beta, alpha + beta, shift)
    *kappa, alpha, beta = params
    if family in (Family.PG, Family.GPG):
        mix = (beta / (beta - l1)) ** alpha
    else:
        mix = mpmath.exp(beta / alpha * (1 - mpmath.sqrt(1 - 2 * alpha**2 * l1 / beta)))
    return 1 - (1 - mpmath.exp(kappa[0] * lu) if kappa else mpmath.exp(l1)) * mix


def mp_jacobian(family, u, point, to_params):
    """Central differences in mpmath, at 60 digits, of K at each u with
    respect to each coordinate of point; to_params maps coordinates to
    the parameters of mp_curve."""
    with mpmath.workdps(60):
        point = [mpmath.mpf(v) for v in point]
        J = np.empty((len(u), len(point)))
        for j in range(len(point)):
            h = mpmath.mpf(10) ** -20 * max(abs(point[j]), mpmath.mpf(10) ** -3)
            up, down = list(point), list(point)
            up[j] += h
            down[j] -= h
            for i, x in enumerate(u):
                diff = (mp_curve(family, to_params(up), x)
                        - mp_curve(family, to_params(down), x))
                J[i, j] = float(diff / (2 * h))
    return J


def assert_columns_close(J, reference, label):
    assert J.shape == reference.shape, label
    assert np.isfinite(J).all(), label
    scale = np.max(np.abs(reference), axis=0)
    assert np.all(np.abs(J - reference) <= 1e-8 * scale + 1e-300), (label, J, reference)


def check_fit_jacobian(family, raw, n):
    """The fit's Jacobians at raw on the polygon grid i/n, i = 1..n, which
    ends at u = 1, against mpmath in search and parameter coordinates."""
    u = np.arange(1, n + 1) / n
    grid = fit_module._Grid(u, np.linspace(0.1, 1.0, n))
    got = fit_module._residuals(family, raw, grid.points, grid.k)
    assert got is not None, raw
    r, dk = got
    _, dk_again = fit_module._residuals(family, raw, grid.points, grid.k)
    # the residual at u = 1 is constant, and its Jacobian row 0, so it is
    # left out of the least-squares problem
    assert r.size == n - 1 and grid.sse_ends == 0.0
    inside = u[:-1]
    bounds = fit_module._search_bounds(family)
    values = fit_module._search_values(family, raw)
    t = [math.log(v) if b.log else v for v, b in zip(values, bounds)]

    def from_search(t):
        v = [mpmath.exp(x) if b.log else x for x, b in zip(t, bounds)]
        if family is Family.PAGB:
            m, lam, shift = v
            return ((1 - m) / lam, m / lam, shift)
        return v

    assert_columns_close(fit_module._jacobian(family, raw, dk, search=True),
                         mp_jacobian(family, inside, t, from_search), (family, raw, "search"))
    assert_columns_close(fit_module._jacobian(family, raw, dk_again, search=False),
                         mp_jacobian(family, inside, raw, list), (family, raw, "parameters"))


@settings(deadline=None, max_examples=40)
@given(st.sampled_from(list(Family)), st.integers(0, 2**32 - 1), st.integers(3, 12))
def test_jacobian_matches_mpmath(family, seed, n):
    check_fit_jacobian(family, draw_model(random.Random(seed), family).param_values(), n)


@settings(deadline=None, max_examples=25)
@given(st.floats(0.02, 0.98), st.floats(-14.0, -2.0), st.floats(-200.0, 100.0),
       st.integers(3, 8))
def test_pagb_jacobian_near_the_lam_floor(m, log_lam, shift, n):
    # where alpha and beta near 1/lam, up to 1e14, and their derivatives
    # cancel in the mean m and the spread lam
    lam = 10.0**log_lam
    check_fit_jacobian(Family.PAGB, ((1.0 - m) / lam, m / lam, shift), n)
