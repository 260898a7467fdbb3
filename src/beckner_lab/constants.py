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
the spectral-gap eigenvector and random log-Gaussian fields.  The starts
advance in lockstep as the rows of one array, and each row gets the bits
it would get if its start ran alone.  Estimates are upper brackets of
the sharp constants; linearization rays rho = 1 + eps f_gap are always
folded in, which pins lambda_B(2) = 2 lambda_P exactly and keeps every
estimate at or below 2 lambda_P.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

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
# quotients on stacks of densities
# ---------------------------------------------------------------------------

def _rowsum(X):
    # per-row pairwise sum: each row gets the bits np.sum gives it alone
    return np.add.reduce(X, axis=-1)


class _Point(NamedTuple):
    """Evaluation points stacked by row: quotient value, denominator,
    density, and the terms the gradient reuses."""
    val: np.ndarray
    den: np.ndarray
    rho: np.ndarray
    terms: tuple


class _Quotient:
    """The named quotient on a (K, S) stack of densities, one per row.

    Every row gets the bits it would get in a stack of its own: products
    with Q run as one matrix-vector product per row (a single matrix
    product over the stack rounds differently), sums are per-row
    reductions, and scalar factors keep the order of the one-row formulas.
    Evaluation is centered: rho - 1, rho^{a-1} - 1 and phi(rho) are built
    from expm1 of log rho so near-flat densities keep full relative
    accuracy.
    """

    def __init__(self, chain: FiniteChain, kind: str, alpha: float | None):
        if kind not in ("beckner", "mlsi", "lsi"):
            raise DomainError(f"unknown quotient kind {kind!r}")
        self.kind, self.alpha = kind, alpha
        self.Q = chain.dense_generator()
        self.pi = chain.pi

    def _apply_q(self, X):
        return (self.Q @ X[..., None])[..., 0]

    def parts(self, rho):
        """Numerator and denominator per row, and the terms that
        :meth:`derivatives` reuses."""
        pi, a = self.pi, self.alpha
        lg = np.log(rho)
        if self.kind == "beckner":
            rho_c = np.expm1(lg)                    # rho - 1
            pw_c = np.expm1((a - 1.0) * lg)         # rho^{a-1} - 1
            Lr = self._apply_q(rho_c)
            num = -(a / (a - 1.0)) * _rowsum(pi * pw_c * Lr)
            phi_el = (np.expm1(a * lg) - rho_c) / (a - 1.0) - rho_c
            return num, _rowsum(pi * phi_el), (pw_c, Lr)
        if self.kind == "mlsi":
            rho_c = np.expm1(lg)
            Lr = self._apply_q(rho_c)
            num = -_rowsum(pi * lg * Lr)
            return num, _rowsum(pi * (rho * lg - rho_c)), (lg, Lr)
        sq_c = np.expm1(0.5 * lg)                   # sqrt(rho) - 1
        Lsq = self._apply_q(sq_c)
        num = -_rowsum(pi * sq_c * Lsq)
        return (num, _rowsum(pi * (rho * lg - np.expm1(lg))),
                (lg, sq_c, Lsq))

    def derivatives(self, rho, terms):
        """Gradients of numerator and denominator with respect to rho."""
        pi, a = self.pi, self.alpha
        if self.kind == "beckner":
            pw_c, Lr = terms
            dnum = -(a / (a - 1.0)) * pi * (
                (a - 1.0) * rho ** (a - 2.0) * Lr + self._apply_q(pw_c))
            return dnum, pi * a * pw_c / (a - 1.0)
        if self.kind == "mlsi":
            lg, Lr = terms
            return -pi * (Lr / rho + self._apply_q(lg)), pi * lg
        lg, sq_c, Lsq = terms
        return -pi * Lsq / (sq_c + 1.0), pi * lg

    def at(self, U) -> _Point:
        """Quotient at rho = exp(u)/pi[exp(u)] for each row u of U."""
        V = np.exp(U - U.max(axis=-1, keepdims=True))
        rho = V / _rowsum(self.pi * V)[:, None]
        num, den, terms = self.parts(rho)
        return _Point(num / den, den, rho, terms)

    def gradient(self, p: _Point, rows=slice(None)):
        """Projected gradient in u at the given rows of ``p``."""
        val, den, rho = p.val[rows], p.den[rows], p.rho[rows]
        dnum, dden = self.derivatives(rho, [t[rows] for t in p.terms])
        G = rho * ((dnum - val[:, None] * dden) / den[:, None])
        return G - self.pi * rho * _rowsum(G)[:, None]


def quotient_value(chain: FiniteChain, kind: str, alpha: float | None,
                   rho: Density) -> float:
    """Direct evaluation of the named quotient at a density."""
    (num,), (den,), _ = _Quotient(chain, kind, alpha).parts(
        rho.values[None, :])
    if den <= 0.0:
        raise DomainError("entropy vanished at the evaluation point")
    return float(num / den)


# ---------------------------------------------------------------------------
# projected gradient descent in log coordinates, all starts in lockstep
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OptimizerOptions:
    starts: int = 32
    max_iter: int = 400
    tol: float = 1e-8
    seed: int = 0

    def __post_init__(self):
        if self.starts < 1:
            raise DomainError(f"starts must be >= 1, got {self.starts}")


# start statuses; every status but "maxiter" counts as converged
STATUSES = ("gradient", "stalled", "maxiter", "polished")


@dataclass(frozen=True)
class _Descent:
    """Per-start results of one lockstep descent (row k is start k)."""
    value: np.ndarray
    rho: np.ndarray
    gnorm: np.ndarray
    status: list[str]
    evaluations: int        # rows evaluated, L-BFGS calls included
    rounds: int             # lockstep line-search rounds


def _descend(quot: _Quotient, U0, max_iter: int, gtol: float) -> _Descent:
    """Armijo projected gradient descent from each row of the (K, S) stack
    ``U0``.

    Each round tries one step per running row, with that row's own step
    size, iteration count, stall anchor and status; an accepted row gets
    its gradient and starts its next iteration, a rejected row halves its
    step.  A row therefore follows exactly the path it follows alone.

    Statuses: "gradient" (gradient test met), "stalled" (the backtracking
    line search reached floating-point resolution, or 25 iterations gained
    less than that; the iterate is then the best the arithmetic supports
    and counts as converged), "polished" (``max_iter`` ran out and an
    L-BFGS pass from the iterate met the gradient test) and "maxiter"
    (neither did).
    """
    U = np.array(U0, dtype=float)
    K = U.shape[0]
    with np.errstate(all="ignore"):         # inf/nan iterates are rejected
        p = quot.at(U)
        val, rho, G = p.val, p.rho, quot.gradient(p)
        evaluations, rounds = K, 0
        step = np.ones(K)
        its = np.zeros(K, dtype=int)
        anchor = val.copy()
        g2 = np.zeros(K)
        status = np.full(K, "maxiter", dtype=object)
        running = np.ones(K, dtype=bool)
        top = running.copy()                # at the top of an iteration
        while True:
            running &= ~(top & (its >= max_iter))   # stays "maxiter"
            top &= running
            scale = np.fmax(1.0, np.abs(val))       # max(1, |val|)
            done = top & (np.max(np.abs(G), axis=1) <= gtol * scale)
            check = top & ~done & (its % 25 == 24)
            # progress below float resolution, over 25 iterations or in
            # the line search: the iterate is as good as the arithmetic
            # supports
            stall = ((check & (anchor - val <= 1e-13 * scale))
                     | (running & ~done & ~(step > 1e-16)))
            anchor[check] = val[check]
            status[done] = "gradient"
            status[stall] = "stalled"
            running &= ~(done | stall)
            top &= running
            # one dot product per row, bitwise equal to np.dot(g, g)
            # (einsum and summed products round differently)
            Gt = G[top]
            g2[top] = (Gt[:, None, :] @ Gt[:, :, None])[:, 0, 0]
            top[:] = False
            rows = np.flatnonzero(running)
            if rows.size == 0:
                break
            s = step[rows]
            U_try = U[rows] - s[:, None] * G[rows]
            p = quot.at(U_try)
            evaluations += rows.size
            rounds += 1
            armijo = val[rows] - 1e-4 * s * g2[rows]
            ok = np.isfinite(p.val) & (p.val <= armijo)
            acc = rows[ok]
            U[acc], val[acc], rho[acc] = U_try[ok], p.val[ok], p.rho[ok]
            G[acc] = quot.gradient(p, ok)
            step[acc] = np.minimum(s[ok] * 1.5, 1e6)
            its[acc] += 1
            top[acc] = True
            step[rows[~ok]] = s[~ok] * 0.5

        gnorm = np.max(np.abs(G), axis=1)
        scale = np.fmax(1.0, np.abs(val))
        polish = (status == "maxiter") & (gnorm > gtol * scale)
        for k in np.flatnonzero(polish):
            # slow first-order tail: polish with a deterministic
            # quasi-Newton pass from the current iterate
            res = _polish(quot, U[k], gtol)
            p = quot.at(res.x[None, :])
            evaluations += res.nfev + 1
            if math.isfinite(p.val[0]) and p.val[0] <= val[k]:
                val[k], rho[k] = p.val[0], p.rho[0]
                gnorm[k] = np.max(np.abs(quot.gradient(p)))
        met = gnorm <= gtol * np.fmax(1.0, np.abs(val))
        status[met & polish] = "polished"
        status[met & ~polish] = "gradient"
    return _Descent(val, rho, gnorm, list(status), evaluations, rounds)


def _polish(quot: _Quotient, u, gtol: float):
    from scipy.optimize import minimize

    def fun(uu):
        p = quot.at(uu[None, :])
        if not math.isfinite(p.val[0]):
            return 1e300, np.zeros_like(uu)
        return float(p.val[0]), quot.gradient(p)[0]

    return minimize(fun, u.copy(), jac=True, method="L-BFGS-B",
                    options={"maxiter": 2000, "maxfun": 20000,
                             "gtol": 0.1 * gtol, "ftol": 1e-16})


def _gap_rays(chain, f_gap):
    coef = np.array([sign * eps for eps in (1e-3, 1e-4, 1e-5, 1e-6, 1e-7)
                     for sign in (1.0, -1.0)])
    R = 1.0 + coef[:, None] * f_gap
    return R / _rowsum(chain.pi * R)[:, None]


def _start_fields(chain, f_gap, opts: OptimizerOptions):
    rng = np.random.default_rng(opts.seed)
    starts = [amp * f_gap for amp in (1e-3, 0.3, 1.0, 3.0)]
    amps = (0.1, 1.0, 3.0)
    while len(starts) < opts.starts:
        amp = amps[len(starts) % len(amps)]
        starts.append(amp * rng.standard_normal(chain.n_states))
    return np.array(starts[: opts.starts])


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
    quot = _Quotient(chain, kind, alpha)
    f_gap = poincare_eigenvector(chain)
    run = _descend(quot, _start_fields(chain, f_gap, opts), opts.max_iter,
                   opts.tol)

    candidates: list[tuple[float, np.ndarray]] = []
    best_gnorm = math.inf
    for val, rho, gnorm in zip(run.value, run.rho, run.gnorm):
        if math.isfinite(val):
            candidates.append((float(val), rho))
        best_gnorm = min(best_gnorm, float(gnorm))
    status_counts = {s: run.status.count(s) for s in STATUSES}
    n_conv = len(run.status) - status_counts["maxiter"]
    rays = np.vstack([_gap_rays(chain, f_gap), *extra_candidates])
    nums, dens, _ = quot.parts(rays)
    for num, den, rho in zip(nums, dens, rays):
        if den > 0.0 and math.isfinite(num):
            candidates.append((float(num / den), rho))

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
        convergence={"converged_starts": n_conv, "starts": len(run.status),
                     "best_gradient_norm": best_gnorm,
                     "value_recheck_gap": abs(recheck - val),
                     "renormalization_gap": invariance,
                     "status_counts": status_counts,
                     "evaluations": run.evaluations, "rounds": run.rounds})


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
