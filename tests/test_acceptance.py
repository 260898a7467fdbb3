"""Acceptance suite: one test per criterion, at the stated tolerances.

Each test prints a single pass/fail line (visible with ``pytest -s`` or
in captured output); ``pytest -v`` shows the per-criterion verdicts.
"""

import math
import time

import numpy as np
import pytest

import beckner_lab as bl
from beckner_lab.constants import poincare_eigenvector, quotient_value


def _stamp(k, label, ok, extra=""):
    print(f"ACCEPTANCE {k:02d} [{'PASS' if ok else 'FAIL'}] {label} {extra}")
    assert ok, f"criterion {k}: {label} {extra}"


def test_criterion_01_theta_bounds():
    t0 = time.time()
    grid = np.arange(0.0, 10.0 + 1e-9, 0.5)
    worst_low = worst_high = 0.0
    for alpha in (1.01, 1.5, 1.8, 2.0):
        rows = bl.theta_surface(alpha, grid, grid)
        worst_low = max(worst_low, float(np.max(rows[:, 3] - rows[:, 2])))
        worst_high = max(worst_high, float(np.max(rows[:, 2] - rows[:, 4])))
        if alpha == 2.0:
            gap2 = float(np.max(np.abs(rows[:, 2] - (rows[:, 0] + rows[:, 1]))))
            assert gap2 <= 1e-9
        if alpha == 1.01:
            pos = rows[:, 3] > 0
            min_ratio = float(np.min(rows[pos, 2] / rows[pos, 3]))
            assert min_ratio <= 1.0 + 1e-6      # the floor is attained
    elapsed = time.time() - t0
    ok = worst_low <= 1e-9 and worst_high <= 1e-9 and elapsed < 30.0
    _stamp(1, "two-weight infimum bounds on the grid", ok,
           f"(low {worst_low:.2e}, high {worst_high:.2e}, {elapsed:.1f}s)")


def test_criterion_02_mean_function_identities():
    t0 = time.time()
    ok = True
    for alpha in (1.1, 1.5, 1.9):
        rep = bl.verify_theta_identities(alpha, 10000, seed=42, tol=1e-9)
        ok = ok and rep.passed
    # scaling law of the power mean and its partial derivatives
    rng = np.random.default_rng(7)
    s = rng.uniform(0.1, 10.0, 300)
    t = rng.uniform(0.1, 10.0, 300)
    for alpha in (1.1, 1.5, 1.9):
        e = bl.power_entropy(alpha)
        for lam in (0.01, 0.1, 10.0, 100.0):
            th = np.asarray(e.theta(lam * s, lam * t))
            ref = lam ** (2 - alpha) * np.asarray(e.theta(s, t))
            ok = ok and float(np.max(np.abs(th - ref) / ref)) <= 1e-10
            d1l, _ = e.theta_partials(lam * s, lam * t)
            d1, _ = e.theta_partials(s, t)
            ref1 = lam ** (1 - alpha) * np.asarray(d1)
            ok = ok and float(np.max(np.abs(np.asarray(d1l) - ref1)
                                     / (np.abs(ref1) + 1e-30))) <= 1e-10
    elapsed = time.time() - t0
    ok = ok and elapsed < 10.0
    _stamp(2, "mean-function identities and homogeneity", ok,
           f"({elapsed:.1f}s)")


def _criterion3_models():
    specs = {
        "birth_death_K12": bl.ModelSpec(
            "birth_death", dict(zip(("a", "b"), bl.mm_infinity_rates(12)))),
        "zero_range_33": bl.ModelSpec(
            "zero_range", {"L": 3, "N": 3, "c_x": bl.linear_rate_table(3, 3)}),
        "bernoulli_laplace_52": bl.ModelSpec(
            "bernoulli_laplace", {"L": 5, "N": 2, "lambda_x": 1.0}),
        "random_transposition_4": bl.ModelSpec(
            "random_transposition", {"n": 4}),
    }
    out = {}
    for name, spec in specs.items():
        chain = bl.build_model(spec)
        out[name] = (spec, chain, bl.r_function(chain))
    return out


def test_criterion_03_bochner_identities():
    t0 = time.time()
    worst = 0.0
    for name, (spec, chain, bs) in _criterion3_models().items():
        rng = np.random.default_rng(13)
        for k in range(100):
            chi = rng.standard_normal(chain.n_states)
            psi = rng.standard_normal(chain.n_states)
            rho = bl.random_density(chain, rng, (0.1, 1.0, 3.0)[k % 3])
            res = bl.bochner_identity_check(chain, bs, chi, psi, rho,
                                            bl.power_entropy(1.5))
            worst = max(worst, res)
            worst = max(worst, bl.identity_3id_check(
                chain, bs, rho, bl.power_entropy(1.5), samples=200, seed=k))
            worst = max(worst, bl.identity_3id_check(
                chain, bs, rho, bl.log_entropy(), samples=200, seed=k))
    elapsed = time.time() - t0
    ok = worst <= 1e-10 and elapsed < 60.0
    _stamp(3, "summation-by-parts and second-gradient identities", ok,
           f"(worst residual {worst:.2e}, {elapsed:.1f}s)")


def test_criterion_04_curvature_inequality_sweep():
    t0 = time.time()
    worst = 0.0
    for name, (spec, chain, bs) in _criterion3_models().items():
        for alpha in (1.1, 1.5, 2.0):
            e = bl.power_entropy(alpha)
            rng = np.random.default_rng(29)
            for k in range(1000):
                rho = bl.random_density(chain, rng, (0.1, 1.0, 3.0)[k % 3])
                lhs, rhs = bl.proposition_sides(chain, bs, e, rho)
                worst = max(worst, (rhs - lhs) / (abs(lhs) + 1e-300))
    elapsed = time.time() - t0
    ok = worst <= 1e-9 and elapsed < 300.0
    _stamp(4, "curvature inequality over random densities", ok,
           f"(worst normalized violation {worst:.2e}, {elapsed:.0f}s)")


def _criterion5_settings():
    zr = bl.ModelSpec("zero_range",
                      {"L": 3, "N": 3, "c_x": bl.linear_rate_table(3, 3)})
    blm = bl.ModelSpec("bernoulli_laplace", {"L": 5, "N": 2, "lambda_x": 1.0})
    rt3 = bl.ModelSpec("random_transposition", {"n": 3})
    rt4 = bl.ModelSpec("random_transposition", {"n": 4})
    bd = bl.ModelSpec("birth_death",
                      dict(zip(("a", "b"), bl.mm_infinity_rates(8))))
    return [zr, blm, rt3, rt4, bd]


def test_criterion_05_paper_constants_are_lower_bounds():
    t0 = time.time()
    margins = {}
    for spec in _criterion5_settings():
        chain = bl.build_model(spec)
        bs = bl.r_function(chain)
        for alpha in (1.1, 1.5, 2.0):
            bound = bl.paper_lambda(spec, alpha).value
            e = bl.power_entropy(alpha)
            rng = np.random.default_rng(31)
            rhos = np.stack([
                bl.random_density(chain, rng, (0.1, 1.0, 3.0)[k % 3]).values
                for k in range(1000)])
            # the ratio certified at each density: the Gamma sum over
            # E(phi'(rho), rho)
            _, rhs = bl.proposition_sides(chain, bs, e, rhos)
            ratios = rhs / bl.dirichlet_form(chain, e.d1(rhos), rhos)
            margins[(spec.kind, alpha)] = float(ratios.min()) - bound
    worst = min(margins.values())
    elapsed = time.time() - t0
    ok = worst >= -1e-6
    _stamp(5, "explicit constants stay below the ratio sweep", ok,
           f"(worst margin {worst:.3e}, {elapsed:.0f}s)")


def test_criterion_06_decay_rates():
    t0 = time.time()
    ok = True
    worst_margin = math.inf
    for spec in _criterion5_settings():
        chain = bl.build_model(spec)
        for alpha in (1.1, 1.5, 2.0):
            bound = bl.paper_lambda(spec, alpha).value
            e = bl.power_entropy(alpha)
            for start in range(20):
                rho0 = bl.random_density(
                    chain, np.random.default_rng(1000 + start), 1.0)
                times = np.linspace(0.0, 4.0 / bound, 41)
                traj = bl.evolve(chain, e, rho0, times)
                rate = bl.fit_decay_rate(traj)
                worst_margin = min(worst_margin, rate - bound)
                ok = ok and rate >= bound - 1e-6
                rep = bl.dirichlet_decay_check(traj, bound)
                ok = ok and rep.passed
    elapsed = time.time() - t0
    _stamp(6, "entropy and production decay at the explicit rates", ok,
           f"(worst rate margin {worst_margin:.3e}, {elapsed:.0f}s)")


def test_criterion_07_constant_relations():
    t0 = time.time()
    ok = True
    details = []
    for spec in _criterion5_settings():
        chain = bl.build_model(spec)
        gap = bl.spectral_gap(chain)
        table = bl.constants_report(chain, [1.1, 1.5, 2.0], spec=spec)
        row2 = [r for r in table.rows if r.alpha == 2.0][0]
        rel2 = abs(row2.beckner_hat - 2.0 * gap) / (2.0 * gap)
        ok = ok and rel2 <= 1e-6
        ok = ok and all(r.beckner_hat <= 2.0 * gap + 1e-6 for r in table.rows)
        ok = ok and 4.0 * table.lambda_l <= table.lambda_m + 1e-6
        ok = ok and table.lambda_m <= 2.0 * gap + 1e-6
        ok = ok and table.mlsi_continuity_gap <= 1e-2
        details.append(f"{spec.kind}:ok={ok}")
    elapsed = time.time() - t0
    _stamp(7, "variational constant relations", ok, f"({elapsed:.0f}s)")


def test_criterion_08_finite_volume_pipeline():
    t0 = time.time()
    pot = {"kind": "quadratic", "coeff": 2.0}
    ok = True
    # each mesh's experiments are its runs at alpha 1.5 and 2.0, seed 5
    study = bl.mesh_refinement_study(pot, 4.0, [8, 16, 32, 64], [1.5, 2.0],
                                     seed=5)
    ok = ok and study.lambda_h_increasing
    ok = ok and all(3.5 <= r <= 4.5 for r in study.gap_ratios)
    for runs in study.experiments.values():
        for exp in runs:
            ok = ok and (exp.decay.rate
                         >= 2.0 * exp.alpha * exp.lambda_h - 1e-6)
            ok = ok and exp.checks.passed
    elapsed = time.time() - t0
    ok = ok and elapsed < 60.0
    _stamp(8, "finite-volume decay, inequality, and cell certificates", ok,
           f"({elapsed:.0f}s)")


def test_criterion_09_oracle_equivalences():
    t0 = time.time()
    ok = True
    specs = _criterion5_settings()
    rng = np.random.default_rng(3)
    for spec in specs:
        chain = bl.build_model(spec)
        # dense-matrix generator oracle, assembled by explicit loops
        S = chain.n_states
        Q = np.zeros((S, S))
        for i in range(S):
            for g in range(chain.n_moves):
                j = chain.targets[g][i]
                Q[i, j] += chain.rates[i, g]
                Q[i, i] -= chain.rates[i, g]
        f = rng.standard_normal(S)
        gvec = rng.standard_normal(S)
        ok = ok and float(np.max(np.abs(chain.apply_generator(f) - Q @ f))) <= 1e-10
        sym = bl.dirichlet_form(chain, f, gvec)
        adj = -float(np.sum(chain.pi * f * (Q @ gvec)))
        ok = ok and abs(sym - adj) <= 1e-10 * (abs(adj) + 1.0)
        rho = bl.random_density(chain, rng, 1.0)
        e = bl.power_entropy(1.5)
        direct = sum(chain.pi[i] * e.eval(rho.values[i]) for i in range(S))
        ok = ok and abs(bl.entropy(chain, e, rho) - direct) <= 1e-10 * (direct + 1.0)
        # exact propagator vs RK4
        traj = bl.evolve(chain, e, rho, [0.0, 0.3])
        rk = bl.evolve_rk4(chain, rho, 0.3, dt=1e-4)
        ok = ok and float(np.max(np.abs(traj.densities[1] - rk))) <= 1e-8
        # spectral gap against two independent computations
        gap = bl.spectral_gap(chain)
        ev = np.sort(-np.real(np.linalg.eigvals(Q)))
        oracle1 = np.min(ev[ev > 1e-10])
        fvec = poincare_eigenvector(chain)
        oracle2 = bl.dirichlet_form(chain, fvec, fvec) / float(
            np.sum(chain.pi * fvec * fvec))
        ok = ok and abs(gap - oracle1) <= 1e-8 * max(1.0, gap)
        ok = ok and abs(gap - oracle2) <= 1e-8 * max(1.0, gap)
    elapsed = time.time() - t0
    _stamp(9, "independent oracle equivalences", ok, f"({elapsed:.0f}s)")


def test_criterion_10_negative_controls():
    t0 = time.time()
    ok = True
    # (a) perturbed auxiliary function fails adjointness with a witness
    spec = bl.ModelSpec("zero_range",
                        {"L": 3, "N": 3, "c_x": bl.linear_rate_table(3, 3)})
    chain = bl.build_model(spec)
    bs = bl.r_function(chain)
    val = np.array(bs.value)
    k = 4
    i, g, d = bs.eta[k], bs.gamma[k], bs.delta[k]
    val[k] *= 1.5
    if g != d:
        mate = np.flatnonzero((bs.eta == i) & (bs.gamma == d)
                              & (bs.delta == g))[0]
        val[mate] *= 1.5
    broken = bl.BochnerStructure(bs.eta, bs.gamma, bs.delta, val)
    rep = bl.verify_assumption(chain, broken)
    adj = [c for c in rep.checks if c.name == "adjointness"][0]
    ok = ok and (not adj.passed) and adj.witness is not None

    # (b) inflated decay constant fails the trajectory checks
    rt4 = bl.build_random_transposition(4)
    rho0 = bl.random_density(rt4, np.random.default_rng(17), 1.0)
    e = bl.power_entropy(1.5)
    traj = bl.evolve(rt4, e, rho0, np.linspace(0.0, 6.0, 41))
    inflated = 10.0 * 2.0 / 3.0
    rate = bl.fit_decay_rate(traj)
    dir_rep = bl.dirichlet_decay_check(traj, inflated)
    ok = ok and rate < inflated - 1e-6
    ok = ok and (not dir_rep.passed)
    ok = ok and dir_rep.witness is not None

    # (c) concave potential fails the cell certificates with a located cell
    concave = bl.build_fokker_planck_fv(lambda x: -np.asarray(x) ** 2, 16, 1.0)
    cell_rep = bl.fv_condition_check(concave, 1.5)
    ok = ok and (not cell_rep.passed)
    ok = ok and any(c.witness is not None and "cell" in c.witness
                    for c in cell_rep.failures())
    elapsed = time.time() - t0
    _stamp(10, "negative controls detect injected violations", ok,
           f"({elapsed:.0f}s)")
