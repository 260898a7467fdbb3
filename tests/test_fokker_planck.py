"""Finite-volume experiment: cell certificates, decay, refinement."""

import numpy as np
import pytest

import beckner_lab as bl
from beckner_lab import CapabilityError, HypothesisError


QUAD = {"kind": "quadratic", "coeff": 2.0}     # V = 2 x^2, V'' = 4


def fv_spec(n_cells, lam=4.0, potential=QUAD):
    return bl.ModelSpec("fokker_planck_fv",
                        {"potential": potential, "n_cells": n_cells,
                         "lambda_conv": lam})


class TestConditionCheck:
    def test_convex_potential_passes(self):
        chain = bl.build_fokker_planck_fv(
            lambda x: 2.0 * np.asarray(x) ** 2, 16, 4.0)
        for alpha in (1.5, 2.0):
            rep = bl.fv_condition_check(chain, alpha)
            assert rep.passed, [c.name for c in rep.failures()]

    def test_alpha_two_reduces_to_rate_sums(self):
        # at alpha = 2 the curvature term equals the weight sum, so the
        # condition is 2(a(n)-a(n+1)+b(n+1)-b(n)) >= 2 lambda_h per cell
        chain = bl.build_fokker_planck_fv(
            lambda x: 2.0 * np.asarray(x) ** 2, 16, 4.0)
        a = np.asarray(chain.meta["a"])
        b = np.asarray(chain.meta["b"])
        lh = bl.lambda_h(chain.meta["h"], 4.0)
        lhs = 2.0 * (a[:-1] - a[1:] + b[1:] - b[:-1])
        assert np.min(lhs) >= 2.0 * lh - 1e-9
        rep = bl.fv_condition_check(chain, 2.0)
        assert rep.passed

    def test_concave_potential_fails_with_witness(self):
        chain = bl.build_fokker_planck_fv(
            lambda x: -np.asarray(x) ** 2, 16, 1.0)
        rep = bl.fv_condition_check(chain, 1.5)
        assert not rep.passed
        failed = {c.name: c for c in rep.failures()}
        assert "cell_log_concavity" in failed
        assert failed["cell_log_concavity"].witness is not None
        assert "cell" in failed["cell_log_concavity"].witness

    def test_requires_fv_chain(self, rt3):
        with pytest.raises(CapabilityError):
            bl.fv_condition_check(rt3, 1.5)


class TestRunExperiment:
    def test_quadratic_potential_pipeline(self):
        exp = bl.run_fv_experiment(fv_spec(32), 1.5, seed=5)
        assert exp.checks.passed, [c.name for c in exp.checks.failures()]
        assert exp.decay.fit.rate >= 2.0 * 1.5 * exp.lambda_h - 1e-6
        assert 0.0 < exp.lambda_h < 4.0

    def test_inequality_reuses_the_trajectory_functionals(self, monkeypatch):
        import importlib
        from beckner_lab.fokker_planck import discrete_power_inequality
        calls = {"entropy": 0, "entropy_production": 0}
        for short in ("dynamics", "fokker_planck"):
            mod = importlib.import_module(f"beckner_lab.{short}")
            for name in calls:
                def counted(*args, _fn=getattr(mod, name), _name=name):
                    calls[_name] += 1
                    return _fn(*args)
                monkeypatch.setattr(mod, name, counted)
        exp = bl.run_fv_experiment(fv_spec(32), 1.5, seed=5)
        assert calls == {"entropy": 1, "entropy_production": 1}
        # the public function on the stored densities gives the same gap
        lhs, rhs = discrete_power_inequality(exp.chain, 1.5,
                                             exp.decay.trajectory.densities)
        gap = (lhs - rhs) / (np.abs(rhs) + np.abs(lhs) + 1e-300)
        check = next(c for c in exp.checks.checks
                     if c.name == "discrete_power_inequality")
        assert check.max_residual == float(np.max(gap))

    def test_report_holds_the_production_decay_check(self):
        # production decay, certified at the per-cell rate alpha lambda_h
        exp = bl.run_fv_experiment(fv_spec(16), 1.5, seed=3)
        check, = [c for c in exp.checks.checks
                  if c.name == "dirichlet_exponential_decay"]
        assert check.passed
        assert exp.decay.dirichlet_bound.checks == [check]

    def test_inequality_margin_across_meshes(self):
        # the inequality is far from tight at every sample time, also the
        # late ones where rho - 1 ~ 1e-7, so its residual keeps a margin
        worst = -np.inf
        for alpha in (1.2, 1.5, 2.0):
            for n_cells in (8, 16, 32, 64, 128):
                for seed in (0, 5, 7):
                    exp = bl.run_fv_experiment(fv_spec(n_cells), alpha,
                                               seed=seed)
                    check, = [c for c in exp.checks.checks
                              if c.name == "discrete_power_inequality"]
                    worst = max(worst, check.max_residual)
        assert worst <= -0.2

    def test_flat_potential_hypothesis_error(self):
        spec = fv_spec(16, lam=1.0,
                       potential={"kind": "quadratic", "coeff": 0.0})
        with pytest.raises(HypothesisError):
            bl.run_fv_experiment(spec, 1.5)

    def test_nonpositive_lambda_rejected(self):
        with pytest.raises(HypothesisError):
            bl.build_fokker_planck_fv(lambda x: np.asarray(x) ** 2, 8, 0.0)

    def test_stationary_start_trivial(self):
        chain = bl.build_fokker_planck_fv(
            lambda x: 2.0 * np.asarray(x) ** 2, 16, 4.0)
        rho0 = bl.normalize_density(chain, np.ones(chain.n_states))
        exp = bl.run_fv_experiment(fv_spec(16), 2.0, rho0=rho0)
        assert np.max(exp.decay.trajectory.entropy_values) <= 1e-14

    def test_discrete_inequality_at_random_densities(self):
        chain = bl.build_fokker_planck_fv(
            lambda x: 2.0 * np.asarray(x) ** 2, 24, 4.0)
        rng = np.random.default_rng(6)
        from beckner_lab.fokker_planck import discrete_power_inequality
        for alpha in (1.5, 2.0):
            for k in range(50):
                rho = bl.random_density(chain, rng, (0.1, 1.0, 3.0)[k % 3])
                lhs, rhs = discrete_power_inequality(chain, alpha, rho.values)
                assert lhs <= rhs + 1e-9 * (abs(lhs) + abs(rhs))

    def test_discrete_inequality_rejects_unnormalized_density(self):
        # the centered left side equals the written one only at mass one
        chain = bl.build_fokker_planck_fv(
            lambda x: 2.0 * np.asarray(x) ** 2, 16, 4.0)
        from beckner_lab.fokker_planck import discrete_power_inequality
        rho = bl.random_density(chain, np.random.default_rng(4), 1.0).values
        discrete_power_inequality(chain, 1.5, rho)
        for factor in (1.0 + 1e-6, 2.0):
            with pytest.raises(bl.DomainError, match="mass one"):
                discrete_power_inequality(chain, 1.5, factor * rho)

    def test_discrete_inequality_near_flat_density(self):
        # rho - 1 ~ eps: both sides are O(eps^2), so the left side must
        # not be formed from O(eps) terms that cancel.  Smooth profiles
        # keep the two sides close, as at the end of a trajectory.
        chain = bl.build_fokker_planck_fv(
            lambda x: 2.0 * np.asarray(x) ** 2, 32, 4.0)
        x = (np.arange(chain.n_states) + 0.5) / chain.n_states
        from beckner_lab.fokker_planck import discrete_power_inequality
        for xi in (x - 0.5, np.cos(np.pi * x)):
            for alpha in (1.2, 1.5, 2.0):
                scaled = []
                for eps in (1e-7, 1e-8, 1e-9):
                    rho = bl.normalize_density(chain, 1.0 + eps * xi)
                    lhs, rhs = discrete_power_inequality(chain, alpha,
                                                         rho.values)
                    assert lhs <= rhs + 1e-9 * (abs(lhs) + abs(rhs)), \
                        (alpha, eps, lhs, rhs)
                    scaled.append(lhs / eps ** 2)
                # quadratic regime: lhs / eps^2 is the same for every eps
                assert np.allclose(scaled, scaled[0], rtol=1e-4), scaled


    @pytest.mark.parametrize("n_cells", [8, 128])
    def test_discrete_inequality_stack_rows_equal_one_row_calls(self,
                                                                 n_cells):
        from beckner_lab.fokker_planck import discrete_power_inequality
        chain = bl.build_fokker_planck_fv(
            lambda x: 2.0 * np.asarray(x) ** 2, n_cells, 4.0)
        rng = np.random.default_rng(n_cells)
        stack = np.array(
            [bl.random_density(chain, rng, amp).values
             for amp in (0.1, 1.0, 3.0, 0.1, 1.0, 3.0)]
            + [bl.normalize_density(
                chain, 1.0 + 1e-8 * rng.standard_normal(n_cells)).values,
               np.ones(n_cells)])
        for alpha in (1.1, 1.5, 2.0):
            lhs, rhs = discrete_power_inequality(chain, alpha, stack)
            assert lhs.shape == rhs.shape == (len(stack),)
            for i, row in enumerate(stack):
                one = discrete_power_inequality(chain, alpha, row)
                assert all(type(v) is float for v in one)
                assert (lhs[i], rhs[i]) == one
        # one row off mass one rejects the whole stack
        stack[3] *= 1.0 + 1e-6
        with pytest.raises(bl.DomainError, match="mass one"):
            discrete_power_inequality(chain, 1.5, stack)


class TestRefinementStudy:
    def test_small_sweep(self):
        study = bl.mesh_refinement_study(QUAD, 4.0, [8, 16, 32], 2.0, seed=2)
        assert study.lambda_h_increasing
        assert study.ratio_ok
        assert len(study.gap_ratios) == 2
        for row in study.rows:
            assert row.passed

    def test_keeps_each_mesh_experiment(self):
        study = bl.mesh_refinement_study(QUAD, 4.0, [8, 16], 1.5, seed=2)
        assert list(study.experiments) == [8, 16]
        for row, (n, exp) in zip(study.rows, study.experiments.items()):
            assert exp.n_cells == n and exp.alpha == 1.5
            assert (row.h, row.lambda_h, row.fitted_rate) == \
                (exp.h, exp.lambda_h, exp.decay.fit.rate)

    def test_monotone_cells_required(self):
        with pytest.raises(bl.DomainError):
            bl.mesh_refinement_study(QUAD, 4.0, [16, 8], 1.5)
