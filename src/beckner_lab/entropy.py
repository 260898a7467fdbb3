"""Convex entropy generators and the two-point mean-function calculus.

Three entropy kinds are built in, all normalized so phi(1) = 0:

* ``log``        phi(s) = s(log s - 1) + 1        (relative entropy)
* ``quadratic``  phi(s) = (s - 1)^2               (variance)
* ``power``      phi(s) = (s^a - s)/(a - 1) - s + 1,  1 < a <= 2,

where the power family interpolates pointwise between the logarithmic
entropy (a -> 1) and the quadratic one (a = 2).

The central object is the mean function

    theta(s, t) = (s - t) / (phi'(s) - phi'(t)),   theta(s, s) = 1/phi''(s),

the discrete surrogate of 1/phi'' (logarithmic mean for ``log``, power
mean for ``power``, constant 1/2 for ``quadratic``).  Its closed-form
partial derivatives, a joint infimum functional over scaled second
derivatives, and sampled verifiers for the mean function's structural
identities (Euler-type homogeneity relation, concavity, tangent bound)
live here as well.

All evaluation paths are written against catastrophic cancellation: the
difference phi'(s) - phi'(t) is computed through expm1/log1p in ratio
form, and the partial derivatives switch to an explicit series of the
cancelling combination once log(t/s) is small.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import DomainError, NumericalError

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


# ---------------------------------------------------------------------------
# entropy kinds
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConvexEntropy:
    """A smooth convex function phi with phi(1) = 0 and its derivatives.

    ``eval``/``d1``/``d2``/``d3`` accept floats or numpy arrays (strictly
    positive) and return the same shape.  ``d1_diff(s, t)`` evaluates
    phi'(s) - phi'(t) in a cancellation-safe form; ``d1_inv`` inverts phi'
    where defined.
    """

    kind: str                 # "log" | "quadratic" | "power"
    alpha: float | None = None

    def __post_init__(self):
        if self.kind not in ("log", "quadratic", "power"):
            raise DomainError(f"unknown entropy kind {self.kind!r}")
        if self.kind == "power":
            a = self.alpha
            if a is None or not (1.0 < a <= 2.0):
                raise DomainError("power entropy requires alpha in (1, 2]")

    # -- basic derivatives ---------------------------------------------------

    def eval(self, s):
        """phi(s) in centered form, accurate in relative terms near s = 1.

        With L = log s, phi is s L - expm1(L) (log) or
        (expm1(a L) - a expm1(L))/(a - 1) (power).  Both terms share L,
        so its rounding cancels to first order and no O(s - 1) terms
        are subtracted to leave the O((s - 1)^2) value.
        """
        s = _check_positive(s)
        if self.kind == "quadratic":
            return (s - 1.0) ** 2
        L = np.log(s)
        if self.kind == "log":
            return s * L - np.expm1(L)
        a = self.alpha
        return (np.expm1(a * L) - a * np.expm1(L)) / (a - 1.0)

    def d1(self, s):
        s = _check_positive(s)
        if self.kind == "log":
            return np.log(s)
        if self.kind == "quadratic":
            return 2.0 * s - 2.0
        a = self.alpha
        return a * (s ** (a - 1.0) - 1.0) / (a - 1.0)

    def d2(self, s):
        s = _check_positive(s)
        if self.kind == "log":
            return 1.0 / s
        if self.kind == "quadratic":
            return 2.0 * np.ones_like(np.asarray(s, dtype=float))
        a = self.alpha
        return a * s ** (a - 2.0)

    def d3(self, s):
        s = _check_positive(s)
        if self.kind == "log":
            return -1.0 / s ** 2
        if self.kind == "quadratic":
            return np.zeros_like(np.asarray(s, dtype=float))
        a = self.alpha
        return a * (a - 2.0) * s ** (a - 3.0)

    # -- stable helpers -------------------------------------------------------

    def d1_diff(self, s, t):
        """phi'(s) - phi'(t), accurate in relative terms even for s ~ t."""
        s = _check_positive(s)
        t = _check_positive(t)
        if self.kind == "quadratic":
            return 2.0 * (s - t)
        L = np.log1p((s - t) / t)          # log(s/t)
        if self.kind == "log":
            return L
        a = self.alpha
        return (a / (a - 1.0)) * t ** (a - 1.0) * np.expm1((a - 1.0) * L)

    def d1_inv(self, y):
        """Inverse of phi' (domain-checked)."""
        y = np.asarray(y, dtype=float)
        if self.kind == "log":
            return np.exp(y)
        if self.kind == "quadratic":
            x = (y + 2.0) / 2.0
            if np.any(x <= 0.0):
                raise DomainError("value outside the range of phi' on (0, inf)")
            return x
        a = self.alpha
        base = 1.0 + (a - 1.0) * y / a
        if np.any(base <= 0.0):
            raise DomainError("value outside the range of phi' on (0, inf)")
        return base ** (1.0 / (a - 1.0))


def log_entropy() -> ConvexEntropy:
    return ConvexEntropy("log")


def quadratic_entropy() -> ConvexEntropy:
    return ConvexEntropy("quadratic")


def power_entropy(alpha: float) -> ConvexEntropy:
    return ConvexEntropy("power", float(alpha))


def _check_positive(s):
    arr = np.asarray(s, dtype=float)
    if np.any(~np.isfinite(arr)) or np.any(arr <= 0.0):
        raise DomainError("arguments must be finite and strictly positive")
    return arr if arr.ndim else float(arr)


# ---------------------------------------------------------------------------
# the mean function theta and its partial derivatives
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MeanFunction:
    """theta(s,t) = (s-t)/(phi'(s)-phi'(t)) with diagonal regularization.

    Within a relative band ``eps_diag`` around the diagonal the ratio is
    replaced by the midpoint Taylor form 1/phi''((s+t)/2), whose linear
    correction cancels by symmetry; the relative error of the switch is
    O(eps_diag^2).
    """

    entropy: ConvexEntropy
    eps_diag: float = 1e-7

    def theta(self, s, t):
        """The symmetric positive mean theta(s, t)."""
        e = self.entropy
        s_arr = np.asarray(_check_positive(s), dtype=float)
        t_arr = np.asarray(_check_positive(t), dtype=float)
        s_b, t_b = np.broadcast_arrays(s_arr, t_arr)
        out = np.empty(s_b.shape, dtype=float)
        near = np.abs(s_b - t_b) <= self.eps_diag * np.maximum(s_b, t_b)
        if np.any(near):
            m = 0.5 * (s_b[near] + t_b[near])
            out[near] = 1.0 / e.d2(m)
        far = ~near
        if np.any(far):
            sf, tf = s_b[far], t_b[far]
            out[far] = (sf - tf) / e.d1_diff(sf, tf)
        return out if out.ndim else float(out)

    def partials(self, s, t):
        """(d theta/ds, d theta/dt), closed forms, cancellation-safe.

        Both are nonnegative whenever phi''' <= 0.
        """
        d1 = _theta_partial1(self.entropy, s, t)
        d2 = _theta_partial1(self.entropy, t, s)   # symmetry of theta
        return d1, d2


def _theta_partial1(e: ConvexEntropy, s, t):
    """d/ds of theta(s, t).

    Written as (1 - theta(s,t) phi''(s)) / (phi'(s) - phi'(t)); the
    cancelling combination in the numerator is evaluated by a series in
    L = log(t/s) once |L| is small.
    """
    s = np.asarray(_check_positive(s), dtype=float)
    t = np.asarray(_check_positive(t), dtype=float)
    s_b, t_b = np.broadcast_arrays(s, t)
    if e.kind == "quadratic":
        out = np.zeros(s_b.shape)
        return out if out.ndim else 0.0

    L = np.log1p((t_b - s_b) / s_b)        # log(t/s)
    small = np.abs(L) <= 1e-3
    out = np.empty(s_b.shape, dtype=float)

    if e.kind == "log":
        # d1 theta = (expm1(L) - L) / L^2, -> 1/2 on the diagonal
        g = np.where(small, _series_expm1_minus_x(L), np.expm1(L) - L)
        with np.errstate(invalid="ignore", divide="ignore"):
            val = g / L ** 2
        out = np.where(L == 0.0, 0.5, val)
        return out if out.ndim else float(out)

    a = e.alpha
    am1 = a - 1.0
    # g = (a-1) expm1(L) - expm1((a-1) L); leading term (a-1)(2-a) L^2 / 2
    g = np.where(
        small,
        _series_power_g(L, am1),
        am1 * np.expm1(L) - np.expm1(am1 * L),
    )
    em = np.expm1(am1 * L)
    with np.errstate(invalid="ignore", divide="ignore"):
        val = g * am1 / (a * s_b ** am1 * em ** 2)
    diag = (2.0 - a) * s_b ** (1.0 - a) / (2.0 * a)
    out = np.where(L == 0.0, diag, val)
    return out if out.ndim else float(out)


def _series_expm1_minus_x(x):
    """sum_{k>=2} x^k / k!, for |x| <= 1e-3."""
    acc = np.zeros_like(x)
    term = np.ones_like(x)
    fact = 1.0
    for k in range(1, 10):
        term = term * x
        fact *= k
        if k >= 2:
            acc = acc + term / fact
    return acc


def _series_power_g(x, am1):
    """sum_{k>=2} am1 (1 - am1^{k-1}) x^k / k!, for |x| <= 1e-3."""
    acc = np.zeros_like(x)
    term = np.ones_like(x)
    fact = 1.0
    p = 1.0
    for k in range(1, 10):
        term = term * x
        fact *= k
        p *= am1
        if k >= 2:
            acc = acc + am1 * (1.0 - p / am1) * term / fact
    return acc


# ---------------------------------------------------------------------------
# the joint infimum functional Theta(A, B)
# ---------------------------------------------------------------------------

def big_theta_lower_bound(alpha: float, A: float, B: float) -> float:
    """Analytic floor (alpha-1)(A+B) of the infimum for the power family."""
    if not 1.0 < alpha <= 2.0:
        raise DomainError("alpha must lie in (1, 2]")
    if A < 0.0 or B < 0.0:
        raise DomainError("A and B must be nonnegative")
    return (alpha - 1.0) * (A + B)


def big_theta(entropy: ConvexEntropy, A: float, B: float, tol: float = 1e-8,
              max_iter: int = 200) -> float:
    """inf over s,t > 0 of theta(s,t) (A phi''(s) + B phi''(t)).

    For the power family the objective is jointly 0-homogeneous, so the
    search reduces to the ray ratio r = s/t; if A or B vanishes the
    infimum equals the boundary limit (alpha-1)(A+B) and is returned
    analytically (it is not attained).  Other kinds fall back to a 2-D
    log-grid scan plus simplex refinement.
    """
    value, _ = big_theta_with_argmin(entropy, A, B, tol=tol, max_iter=max_iter)
    return value


def big_theta_with_argmin(entropy: ConvexEntropy, A: float, B: float,
                          tol: float = 1e-8, max_iter: int = 200):
    """Like :func:`big_theta`, also returning the best (s, t) found.

    Attainment of the infimum is not claimed; the returned point is the
    best evaluated candidate (``None`` for the analytic boundary cases).
    """
    if A < 0.0 or B < 0.0:
        raise DomainError("A and B must be nonnegative")
    if tol <= 0.0:
        raise DomainError("tol must be positive")
    if A == 0.0 and B == 0.0:
        return 0.0, None

    if entropy.kind == "power":
        alpha = entropy.alpha
        if A == 0.0 or B == 0.0:
            return (alpha - 1.0) * (A + B), None
        if alpha == 2.0:
            return A + B, (1.0, 1.0)     # objective is constant
        value, w = _power_ray_infimum(alpha, A, B, tol, max_iter)
        return value, (math.exp(w), 1.0)

    return _grid_infimum_2d(entropy, A, B, tol, max_iter)


def _power_ray_value(alpha, A, B, w):
    """Objective along the ray (s, t) = (e^w, 1) for the power family."""
    w = np.asarray(w, dtype=float)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        num = (alpha - 1.0) * np.expm1(w) * (A * np.exp((alpha - 2.0) * w) + B)
        den = np.expm1((alpha - 1.0) * w)
        val = num / den
    return np.where(np.abs(w) < 1e-12, A + B, val)


def _power_ray_infimum(alpha, A, B, tol, max_iter):
    span = 60.0
    for _ in range(4):
        ws = np.linspace(-span, span, 2401)
        vals = _power_ray_value(alpha, A, B, ws)
        i = int(np.argmin(vals))
        if float(vals.max() - vals.min()) <= 1e-12 * (abs(float(vals.max())) + 1.0):
            return float(vals[i]), float(ws[i])    # flat objective
        if 0 < i < len(ws) - 1:
            break
        span *= 2.0
        if span > 600.0:
            raise NumericalError(
                f"ray scan did not bracket the minimizer; best bracket "
                f"w={ws[i]:.3g}, value={vals[i]:.17g}")
    lo, hi = ws[i - 1], ws[i + 1]
    f = lambda w: float(_power_ray_value(alpha, A, B, np.float64(w)))
    c = hi - _GOLDEN * (hi - lo)
    d = lo + _GOLDEN * (hi - lo)
    fc, fd = f(c), f(d)
    for it in range(max_iter):
        if hi - lo < 1e-12:
            break
        if fc < fd:
            hi, d, fd = d, c, fc
            c = hi - _GOLDEN * (hi - lo)
            fc = f(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + _GOLDEN * (hi - lo)
            fd = f(d)
    else:
        raise NumericalError(
            f"golden-section refinement exceeded {max_iter} iterations; "
            f"best bracket [{lo:.17g}, {hi:.17g}]")
    w = 0.5 * (lo + hi)
    return min(f(w), fc, fd), w


def _grid_infimum_2d(entropy, A, B, tol, max_iter):
    from scipy.optimize import minimize

    mean = MeanFunction(entropy)
    grid = np.linspace(-18.0, 18.0, 121)
    LS, LT = np.meshgrid(grid, grid, indexing="ij")
    S, T = np.exp(LS), np.exp(LT)
    obj = mean.theta(S, T) * (A * entropy.d2(S) + B * entropy.d2(T))
    i, j = np.unravel_index(np.argmin(obj), obj.shape)

    def fun(x):
        s, t = math.exp(x[0]), math.exp(x[1])
        return float(mean.theta(s, t) * (A * entropy.d2(s) + B * entropy.d2(t)))

    res = minimize(fun, np.array([grid[i], grid[j]]), method="Nelder-Mead",
                   options={"xatol": 1e-10, "fatol": tol * 1e-3,
                            "maxiter": 400 * max_iter})
    best = min(float(obj[i, j]), float(res.fun))
    return best, (math.exp(res.x[0]), math.exp(res.x[1]))


def theta_surface(alpha: float, A_grid, B_grid) -> np.ndarray:
    """Tabulate Theta over a grid, with its analytic bounds per node.

    Returns an array with columns (A, B, theta, lower_bound, upper_bound)
    in row-major grid order; every row satisfies
    (alpha-1)(A+B) <= theta <= A+B.
    """
    if not 1.0 < alpha <= 2.0:
        raise DomainError("alpha must lie in (1, 2]")
    A_grid = np.asarray(A_grid, dtype=float)
    B_grid = np.asarray(B_grid, dtype=float)
    if A_grid.ndim != 1 or B_grid.ndim != 1 or A_grid.size == 0 or B_grid.size == 0:
        raise DomainError("grids must be nonempty 1-D sequences")
    if np.any(A_grid < 0.0) or np.any(B_grid < 0.0):
        raise DomainError("grid values must be nonnegative")
    ent = power_entropy(alpha)
    rows = np.empty((A_grid.size * B_grid.size, 5))
    k = 0
    for a_val in A_grid:
        for b_val in B_grid:
            th = big_theta(ent, float(a_val), float(b_val))
            rows[k] = (a_val, b_val, th,
                       big_theta_lower_bound(alpha, a_val, b_val),
                       a_val + b_val)
            k += 1
    return rows


# ---------------------------------------------------------------------------
# sampled verifiers for the structural identities of the power mean
# ---------------------------------------------------------------------------

def verify_theta_identities(alpha: float, samples: int, seed: int,
                            box=(1e-2, 1e2), tol: float = 1e-9):
    """Check the Euler relation and the two comparison inequalities.

    On ``samples`` random tuples (r, s, t, l1, l2) from ``box``:

    (i)   s d1(s,t) + t d2(s,t) = (2-alpha) theta(s,t)   (exact identity);
    (ii)  2^{a-1} r (d1+d2)(s,t) - theta(r,s) - theta(r,t)
          >= -2^{a-1} theta(s,t);
    (iii) l1 d1(s,t)(s-t) - l2 d2(s,t)(s-t)
          <= (2-alpha)|l1-l2| theta(s,t).
    """
    from .reporting import CheckReport, VerificationReport

    if not 1.0 < alpha < 2.0:
        raise DomainError("alpha must lie in (1, 2)")
    if samples < 1:
        raise DomainError("samples must be >= 1")
    rng = np.random.default_rng(seed)
    lo, hi = box
    r, s, t, l1, l2 = (rng.uniform(lo, hi, size=samples) for _ in range(5))
    mean = MeanFunction(power_entropy(alpha))
    th_st = mean.theta(s, t)
    d1, d2 = mean.partials(s, t)

    res_i = np.abs(s * d1 + t * d2 - (2.0 - alpha) * th_st) / th_st
    worst_i = int(np.argmax(res_i))

    lhs_ii = 2.0 ** (alpha - 1.0) * r * (d1 + d2) - mean.theta(r, s) - mean.theta(r, t)
    slack_ii = lhs_ii + 2.0 ** (alpha - 1.0) * th_st
    worst_ii = int(np.argmin(slack_ii))

    lhs_iii = l1 * d1 * (s - t) - l2 * d2 * (s - t)
    slack_iii = (2.0 - alpha) * np.abs(l1 - l2) * th_st - lhs_iii
    worst_iii = int(np.argmin(slack_iii))

    report = VerificationReport()
    report.add(CheckReport(
        "euler_relation", bool(np.max(res_i) <= tol), float(np.max(res_i)), tol,
        witness=None if np.max(res_i) <= tol else
        {"s": s[worst_i], "t": t[worst_i]}))
    report.add(CheckReport(
        "three_point_inequality", bool(np.min(slack_ii) >= -tol),
        float(max(0.0, -np.min(slack_ii))), tol,
        witness=None if np.min(slack_ii) >= -tol else
        {"r": r[worst_ii], "s": s[worst_ii], "t": t[worst_ii]}))
    report.add(CheckReport(
        "weighted_gradient_inequality", bool(np.min(slack_iii) >= -tol),
        float(max(0.0, -np.min(slack_iii))), tol,
        witness=None if np.min(slack_iii) >= -tol else
        {"s": s[worst_iii], "t": t[worst_iii],
         "l1": l1[worst_iii], "l2": l2[worst_iii]}))
    return report


def _interpolant_Y(entropy: ConvexEntropy, s, t, m):
    """Y(s,t) = (phi')^{-1}((1-m) phi'(s) + m phi'(t))."""
    return entropy.d1_inv((1.0 - m) * entropy.d1(s) + m * entropy.d1(t))


def verify_concavity(entropy: ConvexEntropy, m_grid, samples: int, seed: int,
                     tol_exact: float = 1e-9, tol_fd: float = 1e-6):
    """Sampled concavity certificate for theta.

    (a) midpoint concavity of theta on random point pairs;
    (b) the tangent inequality
        theta(u,v) - theta(s,t) <= d1(s,t)(u-s) + d2(s,t)(v-t);
    (c) for each mixing weight m, numeric second partials of the
        phi'-interpolant Y satisfy Y11 <= eps, Y22 <= eps and
        Y11 Y22 - Y12^2 >= -eps;
    (d) for the power family, the mixed partial Y12 against its closed
        form (the determinant vanishes identically there).
    """
    from .reporting import CheckReport, VerificationReport

    if samples < 1:
        raise DomainError("samples must be >= 1")
    d3_vals = entropy.d3(np.array([0.5, 1.0, 2.0, 10.0]))
    if np.any(np.asarray(d3_vals) > 1e-12):
        raise DomainError("concavity verifier requires phi''' <= 0")
    rng = np.random.default_rng(seed)
    mean = MeanFunction(entropy)
    report = VerificationReport()

    # (a) midpoint concavity
    s1, t1, s2, t2 = (rng.uniform(1e-2, 1e2, size=samples) for _ in range(4))
    mid = mean.theta(0.5 * (s1 + s2), 0.5 * (t1 + t2))
    slack = mid - 0.5 * (mean.theta(s1, t1) + mean.theta(s2, t2))
    worst = int(np.argmin(slack))
    report.add(CheckReport(
        "midpoint_concavity", bool(np.min(slack) >= -tol_exact),
        float(max(0.0, -np.min(slack))), tol_exact,
        witness=None if np.min(slack) >= -tol_exact else
        {"s1": s1[worst], "t1": t1[worst], "s2": s2[worst], "t2": t2[worst]}))

    # (b) tangent inequality
    u, v, s, t = (rng.uniform(1e-2, 1e2, size=samples) for _ in range(4))
    d1, d2 = mean.partials(s, t)
    slack_b = d1 * (u - s) + d2 * (v - t) - (mean.theta(u, v) - mean.theta(s, t))
    worst = int(np.argmin(slack_b))
    report.add(CheckReport(
        "tangent_inequality", bool(np.min(slack_b) >= -tol_exact),
        float(max(0.0, -np.min(slack_b))), tol_exact,
        witness=None if np.min(slack_b) >= -tol_exact else
        {"u": u[worst], "v": v[worst], "s": s[worst], "t": t[worst]}))

    # (c) second partials of the interpolant, by central differences.
    # The sampling box is kept at (0.1, 10) so the O(h^2) difference noise
    # stays well under tol_fd.
    n_pts = max(4, samples // 10)
    ss = rng.uniform(0.1, 10.0, size=n_pts)
    tt = rng.uniform(0.1, 10.0, size=n_pts)
    worst_11 = worst_22 = -np.inf
    worst_det = np.inf
    worst_mixed = 0.0
    for m in m_grid:
        if not 0.0 < m < 1.0:
            raise DomainError("m_grid values must lie in (0, 1)")
        hs = 1e-4 * ss
        ht = 1e-4 * tt
        Y0 = _interpolant_Y(entropy, ss, tt, m)
        Y11 = (_interpolant_Y(entropy, ss + hs, tt, m) - 2.0 * Y0
               + _interpolant_Y(entropy, ss - hs, tt, m)) / hs ** 2
        Y22 = (_interpolant_Y(entropy, ss, tt + ht, m) - 2.0 * Y0
               + _interpolant_Y(entropy, ss, tt - ht, m)) / ht ** 2
        Y12 = (_interpolant_Y(entropy, ss + hs, tt + ht, m)
               - _interpolant_Y(entropy, ss + hs, tt - ht, m)
               - _interpolant_Y(entropy, ss - hs, tt + ht, m)
               + _interpolant_Y(entropy, ss - hs, tt - ht, m)) / (4.0 * hs * ht)
        worst_11 = max(worst_11, float(np.max(Y11)))
        worst_22 = max(worst_22, float(np.max(Y22)))
        worst_det = min(worst_det, float(np.min(Y11 * Y22 - Y12 ** 2)))
        if entropy.kind == "power":
            a = entropy.alpha
            closed = (m * (1.0 - m) * (2.0 - a) * (ss * tt) ** (a - 3.0)
                      * Y0 ** (3.0 - 2.0 * a) * ss * tt)
            rel = np.max(np.abs(Y12 - closed) / (np.abs(closed) + 1.0))
            worst_mixed = max(worst_mixed, float(rel))

    report.add(CheckReport("interpolant_Y11_nonpositive", worst_11 <= tol_fd,
                           max(0.0, worst_11), tol_fd))
    report.add(CheckReport("interpolant_Y22_nonpositive", worst_22 <= tol_fd,
                           max(0.0, worst_22), tol_fd))
    report.add(CheckReport("interpolant_determinant", worst_det >= -tol_fd,
                           max(0.0, -worst_det), tol_fd))
    if entropy.kind == "power":
        report.add(CheckReport("interpolant_mixed_partial_closed_form",
                               worst_mixed <= tol_fd, worst_mixed, tol_fd))
    return report
