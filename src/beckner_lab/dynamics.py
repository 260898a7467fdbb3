"""Exact density evolution, entropy trajectories, and rate fitting.

Densities evolve by d rho_t / dt = L rho_t.  For a reversible chain the
similarity transform D^{1/2} L D^{-1/2} (D = diag(pi)) is symmetric, so
the propagator exp(tL) is evaluated exactly (to eigensolver accuracy)
through one eigendecomposition; a fixed-step RK4 integrator is kept as
an independent cross-check.

The certified decay quantity is the infimum of the instantaneous rate
-(d/dt) log Ent along a trajectory.  Central differences of log Ent on
the sample grid equal exact interval averages of that rate, so the
fitted infimum can only err by floating-point noise, never by grid bias.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .chain import (Density, FiniteChain, dirichlet_form, entropy,
                    entropy_second_derivative)
from .entropy import ConvexEntropy
from .errors import DomainError, HypothesisError
from .reporting import CheckReport, VerificationReport

ENTROPY_FLOOR = 1e-14
# (s, t) pairs that dirichlet_decay_check evaluates at once: one pass up
# to T = 1024 samples, and a few arrays of 8 MB beyond
_PAIR_BLOCK = 2 ** 20


@dataclass(frozen=True)
class Trajectory:
    """Densities and functionals along increasing sample times."""
    times: np.ndarray
    densities: np.ndarray           # shape (T, S)
    entropy_values: np.ndarray
    dirichlet_values: np.ndarray    # E(phi'(rho_t), rho_t)

    def instantaneous_rate(self) -> np.ndarray:
        """-(d/dt) log Ent by central differences, NaN at both ends.

        Ent is floored at 1e-300 before the log, so a trajectory that
        reaches equilibrium still gives finite differences.
        """
        le = np.log(np.maximum(self.entropy_values, 1e-300))
        inst = np.full(len(self), np.nan)
        inst[1:-1] = -(le[2:] - le[:-2]) / (self.times[2:] - self.times[:-2])
        return inst

    def __len__(self) -> int:
        return len(self.times)


def evolve(chain: FiniteChain, e: ConvexEntropy, rho0: Density,
           times) -> Trajectory:
    """Propagate rho0 through exp(tL) at each requested time.

    Entropy pi[phi(rho_t)] and the production E(phi'(rho_t), rho_t) are
    tabulated alongside, each evaluated once on the (T, S) stack of
    densities.  rho_t tends to the flat density as t grows.

    Mass is conserved exactly: the deviation sqrt(pi)(rho - 1) is
    propagated with its component along sqrt(pi) (the stationary mode)
    projected out before and after, and 1 is added back, so
    pi[rho_t] = 1 to rounding at every t.  Eigenvector round-off can
    therefore not leak into the stationary mode and drift the mass.
    rho0 (a ``Density`` or a plain row) must be positive with pi-mean one;
    one off it by more than 1e-9 is rejected, not silently renormalized.
    """
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or len(times) == 0:
        raise DomainError("times must be a nonempty 1-D sequence")
    if not (np.all(np.isfinite(times)) and np.all(times >= 0.0)
            and np.all(np.diff(times) > 0.0)):
        raise DomainError("times must be finite, nonnegative and strictly "
                          "increasing")
    rho0 = np.asarray(rho0, dtype=float)
    if not (np.all(rho0 > 0.0) and abs(float(chain.pi @ rho0) - 1.0) <= 1e-9):
        raise DomainError("rho0 must be strictly positive with pi-mean one "
                          "(see normalize_density)")
    w, U, d = chain.symmetrized_spectrum()
    y0 = d * (rho0 - 1.0)
    y0 -= (d @ y0) * d
    dev = (np.exp(-np.outer(times, w)) * (U.T @ y0)) @ U.T    # (T, S)
    dev -= np.outer(dev @ d, d)
    dens = 1.0 + dev / d
    rho = np.maximum(dens, 1e-300)
    return Trajectory(times, dens, entropy(chain, e, rho),
                      dirichlet_form(chain, e.d1(rho), rho))


def evolve_rk4(chain: FiniteChain, rho0: Density, t_end: float,
               dt: float = 1e-4) -> np.ndarray:
    """Classical fixed-step RK4 for d rho/dt = L rho (oracle path)."""
    if t_end < 0.0 or dt <= 0.0:
        raise DomainError("t_end must be >= 0 and dt > 0")
    steps = int(round(t_end / dt))
    if abs(steps * dt - t_end) > 1e-12 * max(1.0, t_end):
        steps += 1
        dt = t_end / steps
    rho = np.array(rho0, dtype=float)
    L = chain.apply_generator
    for _ in range(steps):
        k1 = L(rho)
        k2 = L(rho + 0.5 * dt * k1)
        k3 = L(rho + 0.5 * dt * k2)
        k4 = L(rho + dt * k3)
        rho = rho + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return rho


def derivative_identity_check(chain: FiniteChain, e: ConvexEntropy,
                              traj: Trajectory) -> VerificationReport:
    """Differentiate the entropy trajectory and match the two identities

        d/dt  Ent = -E(phi'(rho_t), rho_t),
        d2/dt2 Ent = pi[L phi'(rho_t) L rho_t + phi''(rho_t)(L rho_t)^2],

    against central finite differences on the (uniform) sample grid.
    Residuals shrink at second order in the grid step and are held to
    50 dt^2.
    """
    if len(traj) < 3:
        raise DomainError("need at least 3 time points")
    t = traj.times
    dt = t[1] - t[0]
    if np.max(np.abs(np.diff(t) - dt)) > 1e-9 * dt:
        raise DomainError("trajectory grid must be uniform")

    ent = traj.entropy_values
    first_fd = (ent[2:] - ent[:-2]) / (2.0 * dt)
    second_fd = (ent[2:] - 2.0 * ent[1:-1] + ent[:-2]) / dt ** 2

    exact_first = -traj.dirichlet_values[1:-1]
    exact_second = entropy_second_derivative(
        chain, e, np.maximum(traj.densities[1:-1], 1e-300))

    scale1 = float(np.max(np.abs(exact_first)) + 1.0)
    scale2 = float(np.max(np.abs(exact_second)) + 1.0)
    res1 = float(np.max(np.abs(first_fd - exact_first))) / scale1
    res2 = float(np.max(np.abs(second_fd - exact_second))) / scale2
    tol1 = 50.0 * dt ** 2
    report = VerificationReport()
    report.add(CheckReport("entropy_first_derivative", res1 <= tol1, res1,
                           tol1, witness={"dt": dt}))
    report.add(CheckReport("entropy_second_derivative", res2 <= tol1, res2,
                           tol1, witness={"dt": dt}))
    return report


def fit_decay_rate(traj: Trajectory) -> float:
    """Infimum of -(d/dt) log Ent by central differences.

    Entropy samples below 1e-14 (converged to equilibrium) are excluded;
    the fit window is the longest contiguous run of the others, and one of
    fewer than 3 samples is an error.  A trajectory that starts at
    equilibrium has nothing to fit and returns an infinite rate (every
    decay bound holds vacuously).
    """
    ent = traj.entropy_values
    if np.all(ent <= ENTROPY_FLOOR):
        return math.inf
    # the longest contiguous run, for the differencing
    idx = np.flatnonzero(ent > ENTROPY_FLOOR)
    idx = max(np.split(idx, np.flatnonzero(np.diff(idx) > 1) + 1), key=len)
    if len(idx) < 3:
        raise DomainError("window holds fewer than 3 contiguous samples "
                          "above the entropy floor")
    return float(np.min(traj.instantaneous_rate()[idx[1:-1]]))


def dirichlet_decay_check(traj: Trajectory,
                          lambda_paper: float) -> CheckReport:
    """Pairwise production decay along the trajectory:

        E(phi'(rho_t), rho_t) <= exp(-lambda (t - s)) E(phi'(rho_s), rho_s)

    for every sampled s < t, with slack 1e-9 x scale.  All pairs are
    evaluated as one masked (T, T) array, in blocks of whole rows s when
    T^2 exceeds ``_PAIR_BLOCK``; the witness is the first worst pair in
    (s, t) order, kept only on a failure.
    """
    tol = 1e-9
    dval = traj.dirichlet_values
    t = traj.times
    scale = float(np.max(np.abs(dval)) + 1e-300)
    T = len(t)
    rows = max(1, _PAIR_BLOCK // T)
    worst, witness = 0.0, None
    # a production below 1e-30 throughout passes without a comparison
    blocks = range(0, T, rows) if scale >= 1e-30 else ()
    for s0 in blocks:
        s = np.arange(s0, min(s0 + rows, T))[:, None]
        later = s < np.arange(T)
        # t - s is clamped at 0 on the masked pairs, so exp cannot overflow
        bound = dval[s] * np.exp(-lambda_paper * np.maximum(t - t[s], 0.0))
        gap = np.where(later, dval - bound, -np.inf)
        k = int(np.argmax(gap))
        if gap.flat[k] > worst:
            worst = float(gap.flat[k])
            witness = {"s": float(t[s0 + k // T]), "t": float(t[k % T])}
    passed = worst <= tol * scale
    return CheckReport("dirichlet_exponential_decay", passed, worst / scale,
                       tol, witness=None if passed else witness)


def entropy_bound_check(traj: Trajectory, rate: float) -> CheckReport:
    """Ent(rho_t) <= Ent(rho_0) exp(-rate t) at every sample time.

    The slack is 1e-9 x Ent(rho_0); the witness is the worst time.
    """
    times = traj.times
    ent0 = traj.entropy_values[0]
    gap = traj.entropy_values - ent0 * np.exp(-rate * times)
    scale = float(ent0 + 1e-300)
    passed = bool(np.max(gap) <= 1e-9 * scale)
    return CheckReport(
        "entropy_exponential_bound", passed, float(np.max(gap) / scale), 1e-9,
        witness=None if passed else {"t": float(times[int(np.argmax(gap))])})


@dataclass(frozen=True)
class DecayReport:
    """Full decay experiment: trajectory, fitted rate, bound, verdict."""
    trajectory: Trajectory
    rate: float                     # fit_decay_rate of the trajectory
    lambda_paper: float
    entropy_bound: CheckReport
    dirichlet_bound: CheckReport
    certified: bool


def run_decay(chain: FiniteChain, e: ConvexEntropy, rho0: Density,
              lambda_paper: float, t_end: float | None = None,
              n_points: int = 61, tol: float = 1e-6) -> DecayReport:
    """Evolve, fit the rate, and compare against an explicit constant.

    ``certified`` means: the fitted infimum rate is >= lambda - tol, the
    entropy stays under Ent(0) exp(-lambda t) at all samples, and the
    production decays pairwise at rate lambda.  A constant that is not
    positive certifies no decay and raises :class:`HypothesisError`.
    """
    if not lambda_paper > 0.0:
        raise HypothesisError(
            f"explicit constant lambda = {lambda_paper:.6g} is not positive; "
            "the rates violate the theorem's hypothesis")
    if t_end is None:
        t_end = 5.0 / max(lambda_paper, 1e-6)
    times = np.linspace(0.0, t_end, n_points)
    traj = evolve(chain, e, rho0, times)
    rate = fit_decay_rate(traj)
    ent_check = entropy_bound_check(traj, lambda_paper)
    dir_check = dirichlet_decay_check(traj, lambda_paper)
    certified = (rate >= lambda_paper - tol and ent_check.passed
                 and dir_check.passed)
    return DecayReport(traj, rate, lambda_paper, ent_check, dir_check,
                       certified)
