"""End-to-end finite-volume drift-diffusion experiment.

Pipeline: discretize exp(-V) on [0, 1] into cell averages, build the
induced birth-death chain (reflecting closure at both ends), compute the
mesh rate lambda_h = 2 h^{-2} Phi(h^2 lambda / 8), evolve a density, and
check

* the entropy bound  Ent(rho_t) <= Ent(rho_0) exp(-2 a lambda_h t),
* the discrete power-entropy inequality at every sampled density
      2 lambda_h sum_n p_n (rho_n^a - 1)
        <= sum_n sqrt(p_n p_{n+1}) h^{-2}
               (rho_{n+1}^{a-1} - rho_n^{a-1})(rho_{n+1} - rho_n),
  with both sides taken from the chain's power entropy and entropy
  production (pi = h p): the left side is 2 lambda_h (a - 1) Ent/h, equal
  to the written sum because the density has mass one, and the right
  side (a - 1) P/(2 a h),
* the per-cell certificate chain behind the rate: the log-concavity
  inequality sqrt(p_{n-1} p_{n+1}) <= (1 - Phi) p_n, the rate-difference
  bounds with constant lambda_h / 2, and the curvature condition with
  constant alpha lambda_h obtained from them by the power-mean floor and
  the AM-GM step.

The cell certificates prove the rate alpha lambda_h for the ladder; the
stronger 2 alpha lambda_h bound is verified directly on trajectories
(the reflecting truncation at the potential minimum enlarges the gap
well past it, which the mesh-refinement study confirms).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bochner import entropy_production
from .chain import Density, FiniteChain, entropy, random_density
from .dynamics import (DecayReport, dirichlet_decay_check, entropy_bound_check,
                       evolve, fit_decay_rate)
# big_theta is bound here for perfbench's tracer test, which patches it
from .entropy import big_theta, check_alpha, power_entropy  # noqa: F401
from .errors import CapabilityError, DomainError, HypothesisError
from .models import (ModelSpec, _ladder_curvature, build_fokker_planck_fv,
                     lambda_h, phi_mielke, potential_from_config)
from .reporting import CheckReport, VerificationReport


def _require_fv(chain: FiniteChain):
    if chain.meta.get("model") != "fokker_planck_fv":
        raise CapabilityError("chain was not built by the finite-volume builder")


def check_convexity(Vpp, lambda_conv: float) -> None:
    """Require V'' >= lambda, to 1e-6 relative, at 2001 equispaced
    points of [0, 1]."""
    vpp = np.asarray(Vpp(np.linspace(0.0, 1.0, 2001)), dtype=float)
    if np.min(vpp) < lambda_conv - 1e-6 * lambda_conv:
        raise HypothesisError(
            f"V'' >= {lambda_conv} fails: min sampled V'' = {np.min(vpp):.6g}")


def discrete_power_inequality(chain: FiniteChain, alpha: float, rho):
    """(lhs, rhs) of the cell-weighted power-entropy inequality.

    ``rho`` is one density's values, or a (T, S) stack of them.  One
    density gives two floats, a stack two (T,) arrays, each row summed
    as on its own.

    The sides are 2 lambda_h (a - 1) Ent(rho)/h and
    (a - 1) P(rho)/(2 a h), from the chain's power entropy Ent
    (:func:`entropy`) and entropy production P
    (:func:`entropy_production`), with pi = h p.  The left side equals
    the written 2 lambda_h sum_n p_n (rho_n^a - 1) for a density of mass
    one (sum_n p_n (rho_n - 1) = 0), and near the flat density it keeps
    far more accuracy than the written sum, whose terms are O(rho - 1)
    where the sum is O((rho - 1)^2).  A rho whose mass is off one by
    more than 1e-9 is therefore rejected.
    """
    _require_fv(chain)
    rho = np.asarray(rho, dtype=float)
    p = np.asarray(chain.meta["cell_averages"], dtype=float)
    h = float(chain.meta["h"])
    if np.any(np.abs(h * np.add.reduce(p * rho, axis=-1) - 1.0) > 1e-9):
        raise DomainError("rho must have mass one (see normalize_density)")
    e = power_entropy(alpha)
    lhs, rhs = _power_sides(chain, alpha, entropy(chain, e, rho),
                            entropy_production(chain, e, rho))
    return (lhs, rhs) if np.ndim(lhs) else (float(lhs), float(rhs))


def _power_sides(chain: FiniteChain, alpha: float, ent, prod):
    """The two sides of the power-entropy inequality from the power
    entropy ``ent`` and the entropy production ``prod`` of the same
    densities (see :func:`discrete_power_inequality`)."""
    h = float(chain.meta["h"])
    lh = lambda_h(h, float(chain.meta["lambda_conv"]))
    return (2.0 * lh * (alpha - 1.0) * ent / h,
            (alpha - 1.0) * prod / (2.0 * alpha * h))


def fv_condition_check(chain: FiniteChain,
                       alpha: float) -> VerificationReport:
    """Per-cell certificate chain for the mesh decay rate.

    Violations are located by (0-based) cell index.  The curvature
    condition is checked against alpha lambda_h, the constant the cell
    bounds certify (lambda_h / 2 per rate difference, doubled by AM-GM,
    times the power-mean floor alpha).  The rate-difference and
    curvature checks allow a relative slack of 1e-9.
    """
    _require_fv(chain)
    check_alpha(alpha)
    tol = 1e-9
    p = np.asarray(chain.meta["cell_averages"], dtype=float)
    a = np.asarray(chain.meta["a"], dtype=float)
    b = np.asarray(chain.meta["b"], dtype=float)
    h = float(chain.meta["h"])
    lam = float(chain.meta["lambda_conv"])
    phi = phi_mielke(h ** 2 * lam / 8.0)
    lh = 2.0 * phi / h ** 2
    report = VerificationReport()

    # log-concavity of the cell weights, sharp for Gaussian weights:
    # sqrt(p_{n-1} p_{n+1}) <= (1 - Phi) p_n on interior cells.  The
    # margin decays like h^6, so the slack is absolute at float scale.
    ratio = np.sqrt(p[:-2] * p[2:]) / p[1:-1]
    gap = ratio - (1.0 - phi)
    worst = int(np.argmax(gap))
    mielke_ok = bool(np.max(gap) <= 1e-12)
    report.add(CheckReport(
        "cell_log_concavity", mielke_ok, float(np.max(gap)), 1e-12,
        witness=None if mielke_ok else {"cell": worst + 1}))

    # rate-difference bounds with constant lambda_h / 2
    A = a[:-1] - a[1:]
    B = b[1:] - b[:-1]
    need_a = 0.5 * lh * np.sqrt(p[1:] / p[:-1])
    need_b = 0.5 * lh * np.sqrt(p[:-1] / p[1:])
    gap_a = need_a - A
    gap_b = need_b - B
    ok_a = bool(np.max(gap_a) <= tol * lh)
    ok_b = bool(np.max(gap_b) <= tol * lh)
    report.add(CheckReport(
        "birth_rate_difference", ok_a, float(np.max(gap_a) / lh), tol,
        witness=None if ok_a else {"cell": int(np.argmax(gap_a))}))
    report.add(CheckReport(
        "death_rate_difference", ok_b, float(np.max(gap_b) / lh), tol,
        witness=None if ok_b else {"cell": int(np.argmax(gap_b))}))

    # curvature condition with the certified constant alpha lambda_h;
    # negative rate differences make the two-weight infimum unbounded
    # below, so such cells are automatic violations
    target = alpha * lh
    worst_val, worst_cell = _ladder_curvature(alpha, a, A, B)
    cond_ok = bool(worst_val >= target - tol * target)
    report.add(CheckReport(
        "curvature_condition", cond_ok,
        float(max(0.0, (target - worst_val) / target)), tol,
        witness=None if cond_ok else {"cell": worst_cell,
                                      "value": worst_val,
                                      "target": target}))
    return report


@dataclass(frozen=True)
class FVExperiment:
    potential: dict | None
    n_cells: int
    h: float
    lambda_conv: float
    alpha: float
    chain: FiniteChain
    lambda_h: float
    decay: DecayReport
    checks: VerificationReport


def run_fv_experiment(spec: ModelSpec, alpha: float, rho0: Density | None = None,
                      seed: int = 0) -> FVExperiment:
    """Build, evolve, and verify the mesh decay bound 2 alpha lambda_h.

    The trajectory is sampled at 41 equispaced times up to
    t = log(1e6) / (2 alpha lambda_h), an entropy drop by 1e6 at the
    bound; the discrete power-entropy inequality is checked at each
    sampled density (including the initial one).
    """
    if spec.kind != "fokker_planck_fv":
        raise CapabilityError("expected a fokker_planck_fv model spec")
    check_alpha(alpha)
    p = spec.params
    V, Vpp = potential_from_config(p["potential"])
    lam = float(p["lambda_conv"])
    check_convexity(Vpp, lam)
    n_cells = int(p["n_cells"])
    chain = build_fokker_planck_fv(V, n_cells, lam)
    h = 1.0 / n_cells
    lh = lambda_h(h, lam)
    rate = 2.0 * alpha * lh

    if rho0 is None:
        rho0 = random_density(chain, np.random.default_rng(seed), 1.0)
    e = power_entropy(alpha)
    times = np.linspace(0.0, math.log(1e6) / rate, 41)
    traj = evolve(chain, e, rho0, times)
    fit = fit_decay_rate(traj)

    checks = VerificationReport()
    ent_check = entropy_bound_check(traj, rate)
    checks.add(ent_check)
    rate_ok = bool(fit.rate >= rate - 1e-6)
    checks.add(CheckReport("fitted_rate_vs_mesh_bound", rate_ok,
                           float(max(0.0, rate - fit.rate)), 1e-6,
                           witness={"fitted": fit.rate, "bound": rate}))

    # evolve keeps Ent and half the production of every sampled density
    lhs, rhs = _power_sides(chain, alpha, traj.entropy_values,
                            2.0 * traj.dirichlet_values)
    gap = (lhs - rhs) / (abs(rhs) + abs(lhs) + 1e-300)
    k = int(np.argmax(gap))                     # the first worst sample
    disc_ok = bool(gap[k] <= 1e-9)
    checks.add(CheckReport("discrete_power_inequality", disc_ok,
                           float(gap[k]), 1e-9,
                           witness=None if disc_ok else {"t": float(times[k])}))

    # production decay is certified only at the per-cell rate
    dir_check = dirichlet_decay_check(traj, alpha * lh)
    for c in fv_condition_check(chain, alpha).checks + dir_check.checks:
        checks.add(c)
    decay = DecayReport(traj, fit, rate, ent_check, dir_check,
                        rate_ok and ent_check.passed)
    return FVExperiment(p.get("potential"), n_cells, h, lam, alpha, chain,
                        lh, decay, checks)


@dataclass(frozen=True)
class RefinementRow:
    h: float
    lambda_h: float
    fitted_rate: float
    bound: float                  # 2 alpha lambda_h
    passed: bool


@dataclass(frozen=True)
class RefinementTable:
    rows: list[RefinementRow]
    lambda_h_increasing: bool
    gap_ratios: list[float]       # (lam - lam_h) / (lam - lam_{h/2})
    ratio_ok: bool
    experiments: dict[int, FVExperiment]      # keyed by n_cells


def mesh_refinement_study(potential_cfg: dict, lambda_conv: float,
                          cells_list, alpha: float,
                          seed: int = 0) -> RefinementTable:
    """Refinement sweep: lambda_h must increase toward lambda at O(h^2).

    For consecutive meshes related by halving h, the gap lambda -
    lambda_h must shrink by a factor in [3.5, 4.5].  Each row comes from
    one run_fv_experiment on its mesh, with the same alpha and seed; the
    experiments are kept in ``experiments``, keyed by n_cells.
    """
    cells = [int(c) for c in cells_list]
    if any(c2 <= c1 for c1, c2 in zip(cells, cells[1:])):
        raise DomainError("cells_list must be strictly increasing")

    rows = []
    experiments = {}
    for n_cells in cells:
        spec = ModelSpec("fokker_planck_fv",
                         {"potential": potential_cfg, "n_cells": n_cells,
                          "lambda_conv": lambda_conv})
        exp = experiments[n_cells] = run_fv_experiment(spec, alpha, seed=seed)
        bound = 2.0 * alpha * exp.lambda_h
        rows.append(RefinementRow(exp.h, exp.lambda_h, exp.decay.fit.rate,
                                  bound, exp.decay.fit.rate >= bound - 1e-6))

    lams = [r.lambda_h for r in rows]
    increasing = all(l2 > l1 for l1, l2 in zip(lams, lams[1:]))
    ratios = []
    for r1, r2 in zip(rows, rows[1:]):
        if abs(r1.h / r2.h - 2.0) < 1e-12:
            ratios.append((lambda_conv - r1.lambda_h)
                          / (lambda_conv - r2.lambda_h))
    ratio_ok = all(3.5 <= r <= 4.5 for r in ratios)
    return RefinementTable(rows, increasing, ratios, ratio_ok, experiments)
