"""Variational and spectral estimation of sharp inequality constants.

Four constants are bracketed from above by quotient minimization over
positive pi-mean-one densities:

* Poincare / spectral gap  lambda_P: smallest nonzero eigenvalue of -L
  in L^2(pi) (computed spectrally, not variationally);
* power-entropy constant   lambda_B(a):
      min (a/(a-1)) E(rho^{a-1}, rho) / pi[phi_a(rho)];
* modified log-Sobolev     lambda_M:  min E(log rho, rho) / pi[phi_1(rho)];
* log-Sobolev              lambda_L:  min E(sqrt rho, sqrt rho) / pi[phi_1(rho)].

Minimization runs projected gradient descent with Armijo backtracking on
the log-parameterization rho = exp(u)/pi[exp(u)] (positivity for free,
normalization by projection), from multistart initializations built from
the spectral-gap eigenvector and random log-Gaussian fields.  Estimates
are upper brackets of the sharp constants; linearization rays
rho = 1 + eps f_gap are always folded in, which pins lambda_B(2) = 2
lambda_P exactly and keeps every estimate at or below 2 lambda_P.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .chain import Density, FiniteChain
from .entropy import ConvexEntropy, log_entropy, power_entropy
from .errors import DegeneracyError, DomainError, NumericalError
from .models import ModelSpec, paper_lambda


# ---------------------------------------------------------------------------
# spectral gap
# ---------------------------------------------------------------------------

def spectral_gap(chain: FiniteChain) -> float:
    """Smallest nonzero eigenvalue of -L as a self-adjoint operator."""
    w, _, _ = chain.symmetrized_spectrum()
    scale = max(float(w[-1]), 1.0)
    if len(w) < 2 or w[1] <= 1e-12 * scale:
        raise DegeneracyError("second eigenvalue vanishes; chain is reducible")
    return float(w[1])


def poincare_eigenvector(chain: FiniteChain) -> np.ndarray:
    """Gap eigenvector of -L, pi-mean zero, max-abs one."""
    w, U, d = chain.symmetrized_spectrum()
    f = U[:, 1] / d
    f = f - float(np.sum(chain.pi * f))
    return f / float(np.max(np.abs(f)))


# ---------------------------------------------------------------------------
# quotients (value and gradient with respect to rho)
# ---------------------------------------------------------------------------

def _beckner_value_grad(chain, alpha, rho):
    # centered evaluation: rho - 1, rho^{a-1} - 1 and phi_a(rho) are built
    # from expm1/log1p so near-flat densities keep full relative accuracy
    Q = chain.dense_generator()
    lg = np.log(rho)
    rho_c = np.expm1(lg)                    # rho - 1, consistent with lg
    pw_c = np.expm1((alpha - 1.0) * lg)     # rho^{alpha-1} - 1
    Lr = Q @ rho_c
    num = -(alpha / (alpha - 1.0)) * float(np.sum(chain.pi * pw_c * Lr))
    phi_el = (np.expm1(alpha * lg) - rho_c) / (alpha - 1.0) - rho_c
    den = float(np.sum(chain.pi * phi_el))
    dden = chain.pi * alpha * pw_c / (alpha - 1.0)
    dnum = -(alpha / (alpha - 1.0)) * chain.pi * (
        (alpha - 1.0) * rho ** (alpha - 2.0) * Lr + Q @ pw_c)
    return num, den, dnum, dden


def _mlsi_value_grad(chain, rho):
    Q = chain.dense_generator()
    lg = np.log(rho)
    rho_c = np.expm1(lg)
    Lr = Q @ rho_c
    num = -float(np.sum(chain.pi * lg * Lr))
    den = float(np.sum(chain.pi * (rho * lg - rho_c)))
    dnum = -chain.pi * (Lr / rho + Q @ lg)
    dden = chain.pi * lg
    return num, den, dnum, dden


def _lsi_value_grad(chain, rho):
    Q = chain.dense_generator()
    lg = np.log(rho)
    sq_c = np.expm1(0.5 * lg)               # sqrt(rho) - 1
    Lsq = Q @ sq_c
    num = -float(np.sum(chain.pi * sq_c * Lsq))
    den = float(np.sum(chain.pi * (rho * lg - np.expm1(lg))))
    dnum = -chain.pi * Lsq / (sq_c + 1.0)
    dden = chain.pi * lg
    return num, den, dnum, dden


def _quotient(kind: str, alpha: float | None):
    if kind == "beckner":
        return lambda chain, rho: _beckner_value_grad(chain, alpha, rho)
    if kind == "mlsi":
        return lambda chain, rho: _mlsi_value_grad(chain, rho)
    if kind == "lsi":
        return lambda chain, rho: _lsi_value_grad(chain, rho)
    raise DomainError(f"unknown quotient kind {kind!r}")


def quotient_value(chain: FiniteChain, kind: str, alpha: float | None,
                   rho: Density) -> float:
    """Direct evaluation of the named quotient at a density."""
    num, den, _, _ = _quotient(kind, alpha)(chain, rho.values)
    if den <= 0.0:
        raise DomainError("entropy vanished at the evaluation point")
    return num / den


# ---------------------------------------------------------------------------
# projected gradient descent in log coordinates
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OptimizerOptions:
    starts: int = 32
    max_iter: int = 400
    tol: float = 1e-8
    seed: int = 0


def _u_to_rho(chain, u):
    v = np.exp(u - u.max())
    return v / float(np.sum(chain.pi * v))


def _value_grad_u(chain, vg, u):
    with np.errstate(all="ignore"):         # inf/nan iterates are rejected
        rho = _u_to_rho(chain, u)
        num, den, dnum, dden = vg(chain, rho)
        val = num / den
        q = (dnum - val * dden) / den       # dQ/d rho
        G = rho * q
        g_u = G - chain.pi * rho * float(np.sum(G))
    return val, g_u, rho


def _descend(chain, vg, u0, max_iter, gtol):
    """Armijo projected gradient descent; returns (value, rho, gnorm,
    iterations, status) with status in {"gradient", "stalled", "maxiter"}.

    "stalled" means the backtracking line search reached floating-point
    resolution; the iterate is then the best the arithmetic supports and
    counts as converged.
    """
    u = np.array(u0, dtype=float)
    val, g, _ = _value_grad_u(chain, vg, u)
    step = 1.0
    status = "maxiter"
    anchor = val
    for its in range(max_iter):
        gnorm = float(np.max(np.abs(g)))
        if gnorm <= gtol * max(1.0, abs(val)):
            status = "gradient"
            break
        if its % 25 == 24:
            # progress below float resolution: the iterate is as good as
            # the arithmetic supports
            if anchor - val <= 1e-13 * max(1.0, abs(val)):
                status = "stalled"
                break
            anchor = val
        g2 = float(np.dot(g, g))
        accepted = False
        while step > 1e-16:
            u_try = u - step * g
            v_try, g_try, _ = _value_grad_u(chain, vg, u_try)
            if math.isfinite(v_try) and v_try <= val - 1e-4 * step * g2:
                u, val, g = u_try, v_try, g_try
                step = min(step * 1.5, 1e6)
                accepted = True
                break
            step *= 0.5
        if not accepted:
            status = "stalled"
            break
    val, g, rho = _value_grad_u(chain, vg, u)
    gnorm = float(np.max(np.abs(g)))
    if status == "maxiter" and gnorm > gtol * max(1.0, abs(val)):
        # slow first-order tail: polish with a deterministic quasi-Newton
        # pass from the current iterate
        from scipy.optimize import minimize

        def fun(uu):
            v, gg, _ = _value_grad_u(chain, vg, uu)
            if not math.isfinite(v):
                return 1e300, np.zeros_like(uu)
            return v, gg

        res = minimize(fun, u, jac=True, method="L-BFGS-B",
                       options={"maxiter": 2000, "maxfun": 20000,
                                "gtol": 0.1 * gtol, "ftol": 1e-16})
        v2, g2, rho2 = _value_grad_u(chain, vg, res.x)
        if math.isfinite(v2) and v2 <= val:
            u, val, g, rho = res.x, v2, g2, rho2
            gnorm = float(np.max(np.abs(g)))
    if gnorm <= gtol * max(1.0, abs(val)):
        status = "gradient"
    return val, rho, gnorm, status


def _gap_ray_candidates(chain, f_gap):
    out = []
    for eps in (1e-3, 1e-4, 1e-5, 1e-6, 1e-7):
        for sign in (1.0, -1.0):
            rho = 1.0 + sign * eps * f_gap
            rho = rho / float(np.sum(chain.pi * rho))
            out.append(rho)
    return out


def _start_fields(chain, f_gap, opts: OptimizerOptions):
    rng = np.random.default_rng(opts.seed)
    starts = [amp * f_gap for amp in (1e-3, 0.3, 1.0, 3.0)]
    amps = (0.1, 1.0, 3.0)
    while len(starts) < opts.starts:
        amp = amps[len(starts) % len(amps)]
        starts.append(amp * rng.standard_normal(chain.n_states))
    return starts[: opts.starts]


@dataclass(frozen=True)
class ConstantEstimate:
    name: str
    value: float
    minimizer: Density
    method: str
    alpha: float | None = None
    convergence: dict = field(default_factory=dict)


def _estimate(chain: FiniteChain, kind: str, alpha: float | None,
              opts: OptimizerOptions, extra_candidates=()) -> ConstantEstimate:
    vg = _quotient(kind, alpha)
    f_gap = poincare_eigenvector(chain)
    starts = _start_fields(chain, f_gap, opts)

    results = [_descend(chain, vg, u0, opts.max_iter, opts.tol)
               for u0 in starts]

    candidates: list[tuple[float, np.ndarray]] = []
    n_conv = 0
    best_gnorm = math.inf
    for val, rho, gnorm, status in results:
        if math.isfinite(val):
            candidates.append((val, rho))
        n_conv += int(status in ("gradient", "stalled"))
        best_gnorm = min(best_gnorm, gnorm)
    for rho in _gap_ray_candidates(chain, f_gap):
        num, den, _, _ = vg(chain, rho)
        if den > 0.0 and math.isfinite(num):
            candidates.append((num / den, rho))
    for rho in extra_candidates:
        num, den, _, _ = vg(chain, rho)
        if den > 0.0 and math.isfinite(num):
            candidates.append((num / den, rho))

    if n_conv == 0:
        best = min(candidates, key=lambda c: c[0])
        raise NumericalError(
            f"no start converged (best gradient norm {best_gnorm:.3g}); "
            f"best quotient found {best[0]:.17g}")

    val, rho = min(candidates, key=lambda c: c[0])
    minimizer = Density(rho)
    # direct re-evaluation and scale-invariance certificate
    recheck = quotient_value(chain, kind, alpha, minimizer)
    rescaled = Density(rho / float(np.sum(chain.pi * rho)))
    invariance = abs(quotient_value(chain, kind, alpha, rescaled) - recheck)
    return ConstantEstimate(
        name=kind, value=val, minimizer=minimizer, method="MultistartGradient",
        alpha=alpha,
        convergence={"converged_starts": n_conv, "starts": len(starts),
                     "best_gradient_norm": best_gnorm,
                     "value_recheck_gap": abs(recheck - val),
                     "renormalization_gap": invariance})


def beckner_constant(chain: FiniteChain, alpha: float,
                     opts: OptimizerOptions | None = None,
                     extra_candidates=()) -> ConstantEstimate:
    """Upper bracket of the sharp power-entropy constant lambda_B(alpha).

    Contract: at most 2 lambda_P (up to optimizer tolerance), exactly
    2 lambda_P at alpha = 2, and never below a valid explicit bound.
    """
    if not 1.0 < alpha <= 2.0:
        raise DomainError("alpha must lie in (1, 2]")
    return _estimate(chain, "beckner", alpha, opts or OptimizerOptions(),
                     extra_candidates)


def mlsi_constant(chain: FiniteChain, opts: OptimizerOptions | None = None,
                  continuity_check: bool = True,
                  extra_candidates=()) -> ConstantEstimate:
    """Upper bracket of the modified log-Sobolev constant lambda_M.

    When ``continuity_check`` is set, the power-entropy estimate at
    alpha = 1 + 1e-4 is computed with the same protocol and its relative
    gap recorded (the power family tends to the log case as alpha -> 1).
    """
    opts = opts or OptimizerOptions()
    est = _estimate(chain, "mlsi", None, opts, extra_candidates)
    if continuity_check:
        near = _estimate(chain, "beckner", 1.0 + 1e-4, opts,
                         extra_candidates=(est.minimizer.values,))
        rel = abs(near.value - est.value) / max(abs(est.value), 1e-300)
        est.convergence["alpha_to_one_gap"] = rel
        est.convergence["alpha_to_one_value"] = near.value
    return est


def lsi_constant(chain: FiniteChain, opts: OptimizerOptions | None = None,
                 extra_candidates=()) -> ConstantEstimate:
    """Upper bracket of the log-Sobolev constant lambda_L."""
    return _estimate(chain, "lsi", None, opts or OptimizerOptions(),
                     extra_candidates)


# ---------------------------------------------------------------------------
# combined report
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConstantsRow:
    alpha: float
    paper_bound: float
    beckner_hat: float
    two_lambda_p: float
    ordering_pass: bool


@dataclass(frozen=True)
class ConstantsTable:
    rows: list[ConstantsRow]
    lambda_p: float
    lambda_m: float
    lambda_l: float
    mlsi_continuity_gap: float
    references: dict
    ordering_pass: bool


def constants_report(chain: FiniteChain, alphas,
                     spec: ModelSpec | None = None,
                     opts: OptimizerOptions | None = None,
                     tol: float = 1e-6) -> ConstantsTable:
    """One row per alpha plus the log-case constants and their orderings.

    All quotient kinds are cross-evaluated on the union of minimizers, so
    the pointwise relations (the log-production dominates four times the
    square-root production, every quotient linearizes to 2 lambda_P)
    transfer to the reported estimates.
    """
    opts = opts or OptimizerOptions()
    lam_p = spectral_gap(chain)

    ests = {a: beckner_constant(chain, a, opts) for a in alphas}
    est_m = mlsi_constant(chain, opts)
    est_l = lsi_constant(chain, opts)

    pool = [e.minimizer.values for e in ests.values()]
    pool += [est_m.minimizer.values, est_l.minimizer.values]

    def folded(kind, alpha, base):
        best = base.value
        arg = base.minimizer
        for rho in pool:
            v = quotient_value(chain, kind, alpha, Density(rho))
            if v < best:
                best, arg = v, Density(rho)
        return best, arg

    lam_m, _ = folded("mlsi", None, est_m)
    lam_l, _ = folded("lsi", None, est_l)

    references = {}
    rows = []
    global_ok = (4.0 * lam_l <= lam_m + tol) and (lam_m <= 2.0 * lam_p + tol)
    for a in alphas:
        val, _ = folded("beckner", a, ests[a])
        bound = math.nan
        if spec is not None:
            const = paper_lambda(spec, a)
            bound = const.value
            references.update(const.references)
        ok = (val <= 2.0 * lam_p + tol)
        if not math.isnan(bound):
            ok = ok and (val >= bound - tol)
        if a == 2.0:
            ok = ok and abs(val - 2.0 * lam_p) <= tol * max(1.0, 2.0 * lam_p)
        rows.append(ConstantsRow(a, bound, val, 2.0 * lam_p, ok))

    return ConstantsTable(
        rows=rows, lambda_p=lam_p, lambda_m=lam_m, lambda_l=lam_l,
        mlsi_continuity_gap=est_m.convergence.get("alpha_to_one_gap",
                                                  math.nan),
        references=references,
        ordering_pass=global_ok and all(r.ordering_pass for r in rows))
