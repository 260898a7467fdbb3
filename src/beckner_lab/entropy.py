"""Convex entropy generators and the two-point mean-function calculus.

Two entropy kinds are built in, both normalized so phi(1) = 0:

* ``log``    phi(s) = s(log s - 1) + 1                 (relative entropy)
* ``power``  phi(s) = (s^a - s)/(a - 1) - s + 1,  1 < a <= 2,

where the power family interpolates pointwise between the logarithmic
entropy (a -> 1) and the variance (s - 1)^2 at a = 2, which is
``quadratic_entropy()``.  phi and phi' are written once, as the kernels
:func:`phi_kernel` and :func:`dphi_kernel` of the order a (1 for log),
which ``ConvexEntropy`` and the constants quotient both call.

The central object is the mean function

    theta(s, t) = (s - t) / (phi'(s) - phi'(t)),   theta(s, s) = 1/phi''(s),

the discrete surrogate of 1/phi'' (logarithmic mean for ``log``, power
mean for ``power``, constant 1/2 at a = 2).  Its closed-form
partial derivatives, a joint infimum functional over scaled second
derivatives, and sampled verifiers for the mean function's structural
identities (Euler-type homogeneity relation, concavity, tangent bound)
live here as well.

All evaluation paths are written against catastrophic cancellation:
theta is the larger argument times a bounded ratio of expm1 terms of
-log(M/m) <= 0, and the partial derivatives switch to an explicit series
of the cancelling combination once log(t/s) is small.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NumericalError

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


# ---------------------------------------------------------------------------
# entropy kinds
# ---------------------------------------------------------------------------

def phi_kernel(rho, L, D, a):
    """phi(rho) of order a, elementwise, from rho, L = log rho and
    D = rho - 1 = expm1(L): rho L - D for the log entropy (a = 1), and
    (expm1(a L) - D)/(a - 1) - D for a float or per-row column a in
    (1, 2].  Each term is O(D), so the O(D^2) value keeps its accuracy
    only down to about eps/((a - 1)|D|) relative."""
    if isinstance(a, float) and a == 1.0:
        return rho * L - D
    return (np.expm1(a * L) - D) / (a - 1.0) - D


def dphi_kernel(G, a, w=1.0):
    """w phi'(rho) of order a, elementwise: w G for the log entropy
    (a = 1, G = log rho), and w a G/(a - 1) for a float or per-row
    column a in (1, 2], with G = rho^{a-1} - 1 = expm1((a - 1) log rho),
    the term the quotient's numerator shares.  The weight multiplies
    first, so w = 1 gives phi' and w = pi the quotient gradient's row."""
    if isinstance(a, float) and a == 1.0:
        return w * G
    return w * a * G / (a - 1.0)


@dataclass(frozen=True)
class ConvexEntropy:
    """A smooth convex function phi with phi(1) = 0 and its derivatives.

    ``eval``/``d1``/``d2``/``d3`` accept floats or numpy arrays (strictly
    positive) and return the same shape; ``d1_inv`` inverts phi' where
    defined.
    """

    kind: str                 # "log" | "power"
    alpha: float | None = None

    def __post_init__(self):
        if self.kind not in ("log", "power"):
            raise DomainError(f"unknown entropy kind {self.kind!r}")
        if self.kind == "power":
            check_alpha(self.alpha)

    # -- basic derivatives ---------------------------------------------------

    def eval(self, s):
        """phi(s), by :func:`phi_kernel` at L = log s."""
        s = _check_positive(s)
        L = np.log(s)
        return phi_kernel(s, L, np.expm1(L), _order(self))

    def d1(self, s):
        L = np.log(_check_positive(s))
        if self.kind == "log":
            return dphi_kernel(L, 1.0)
        return dphi_kernel(np.expm1((self.alpha - 1.0) * L), self.alpha)

    def d2(self, s):
        s = _check_positive(s)
        if self.kind == "log":
            return 1.0 / s
        a = self.alpha
        return a * s ** (a - 2.0)

    def d3(self, s):
        s = _check_positive(s)
        if self.kind == "log":
            return -1.0 / s ** 2
        a = self.alpha
        return a * (a - 2.0) * s ** (a - 3.0)

    def d1_inv(self, y):
        """Inverse of phi' (domain-checked)."""
        y = np.asarray(y, dtype=float)
        if self.kind == "log":
            return np.exp(y)
        a = self.alpha
        base = 1.0 + (a - 1.0) * y / a
        if np.any(base <= 0.0):
            raise DomainError("value outside the range of phi' on (0, inf)")
        return base ** (1.0 / (a - 1.0))


def log_entropy() -> ConvexEntropy:
    return ConvexEntropy("log")


def quadratic_entropy() -> ConvexEntropy:
    """The variance (s - 1)^2: the power entropy of order 2."""
    return power_entropy(2.0)


def power_entropy(alpha: float) -> ConvexEntropy:
    return ConvexEntropy("power", float(alpha))


def check_alpha(alpha) -> None:
    """Raise :class:`DomainError` unless alpha is a number in (1, 2]."""
    if alpha is None or not 1.0 < alpha <= 2.0:
        raise DomainError("alpha must lie in (1, 2]")


def _order(entropy: ConvexEntropy) -> float:
    """The power-family order a of phi: alpha, and 1 for log (the a -> 1
    limit)."""
    return 1.0 if entropy.kind == "log" else entropy.alpha


def _check_positive(s):
    arr = np.asarray(s, dtype=float)
    if not ((arr > 0.0) & (arr < np.inf)).all():
        raise DomainError("arguments must be finite and strictly positive")
    return arr if arr.ndim else float(arr)


# ---------------------------------------------------------------------------
# the mean function theta and its partial derivatives
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MeanFunction:
    """theta(s, t) = (s - t)/(phi'(s) - phi'(t)), theta(s, s) = 1/phi''(s).

    With M and m the larger and smaller argument and L = log(M/m),
    theta = M^{2-a} cr_a(L)/a (:func:`_power_ratio`), a the order of the
    entropy: both argument orders run the same operations, so theta is
    symmetric bit for bit, and it is accurate for every positive pair.
    """

    entropy: ConvexEntropy

    def theta(self, s, t):
        """The symmetric positive mean theta(s, t)."""
        a = _order(self.entropy)
        M, L = _ordered_log(_check_positive(s), _check_positive(t))
        with np.errstate(invalid="ignore"):        # 0/0 at L = 0
            cr = _power_ratio(a, L)
        out = np.where(L > 0.0, cr, 1.0) * M ** (2.0 - a) / a
        return out if out.ndim else float(out)

    def partials(self, s, t):
        """(d theta/ds, d theta/dt), closed forms, cancellation-safe.

        Both are nonnegative whenever phi''' <= 0.
        """
        d1 = _theta_partial1(self.entropy, s, t)
        d2 = _theta_partial1(self.entropy, t, s)   # symmetry of theta
        return d1, d2


def _ordered_log(s, t):
    """max(s, t) and L = log(max/min) >= 0 of positive s and t, as
    log1p((M - m)/m), whose M - m is exact near the diagonal, or as
    log M - log m where (M - m)/m overflows."""
    M, m = np.maximum(s, t), np.minimum(s, t)
    with np.errstate(over="ignore"):
        L = np.log1p((M - m) / m)
    over = L == np.inf
    if np.any(over):
        L = np.where(over, np.log(M) - np.log(m), L)
    return M, L


def _power_ratio(a, L):
    """cr_a(L) = (a - 1) expm1(-L)/expm1((1 - a) L) of L > 0, and
    -expm1(-L)/L at a = 1: in [a - 1, 1], tending to 1 as L -> 0, and no
    term cancels.  theta(s, t) is M^{2-a} cr_a(log(M/m))/a, and Theta's
    objective at (e^w, 1) is theta times the curvature weights, so the
    ray (:func:`_ray_value`) runs on this ratio too."""
    if a == 1.0:
        return -np.expm1(-L) / L
    return (a - 1.0) * np.expm1(-L) / np.expm1((1.0 - a) * L)


def _theta_partial1(e: ConvexEntropy, s, t):
    """d/ds of theta(s, t).

    With c = a - 1, L = log(t/s) and E = expm1(c L)/c (L at c = 0, the
    log kind), it is G/(a s^c E^2), G = expm1(L) - E.  G cancels near the
    diagonal: it is summed by its series once |L| <= 1e-3; above that,
    c > 0 takes it as (c expm1(L) - expm1(c L))/c, which rounds less.
    """
    s, t = np.broadcast_arrays(_check_positive(s), _check_positive(t))
    L = np.where(t < s, -1.0, 1.0) * _ordered_log(s, t)[1]
    a = _order(e)
    c = a - 1.0
    if c == 0.0:
        E, G = L, np.expm1(L) - L
    else:
        em = np.expm1(c * L)
        E, G = em / c, (c * np.expm1(L) - em) / c
    G = np.where(np.abs(L) <= 1e-3, _series_g(L, c), G)
    with np.errstate(invalid="ignore", divide="ignore"):
        val = G / (a * s ** c * E ** 2)
    out = np.where(L == 0.0, (2.0 - a) * s ** -c / (2.0 * a), val)
    return out if out.ndim else float(out)


def _series_g(x, c):
    """sum_{k=2}^{9} (1 - c^{k-1}) x^k / k!, by Horner's rule, for |x| <=
    1e-3."""
    acc = 0.0
    for k in range(9, 1, -1):
        acc = (1.0 - c ** (k - 1)) / math.factorial(k) + x * acc
    return acc * x * x


# ---------------------------------------------------------------------------
# the joint infimum functional Theta(A, B)
# ---------------------------------------------------------------------------

def _weights(A, B):
    """A and B broadcast to float arrays of one shape, each entry finite
    and nonnegative."""
    A, B = np.broadcast_arrays(np.asarray(A, dtype=float),
                               np.asarray(B, dtype=float))
    if not np.all(np.isfinite(A) & np.isfinite(B) & (A >= 0.0) & (B >= 0.0)):
        raise DomainError("A and B must be finite and nonnegative")
    return A, B


def big_theta_lower_bound(alpha: float, A, B):
    """Analytic floor (alpha-1)(A+B) of the infimum for the power family,
    elementwise; a float pair gives a float."""
    check_alpha(alpha)
    A, B = _weights(A, B)
    out = (alpha - 1.0) * (A + B)
    return out if out.ndim else float(out)


def big_theta(entropy: ConvexEntropy, A, B, max_iter: int = 200):
    """inf over s,t > 0 of theta(s,t) (A phi''(s) + B phi''(t)), for every
    pair of weights at once.

    A and B are finite nonnegative floats or arrays, broadcast together;
    a float pair gives a float, arrays give an array of their shape.  The
    objective is jointly 0-homogeneous for every kind, so the search
    reduces to the ray (s, t) = (e^w, 1).  If A or B vanishes the infimum
    equals the boundary limit (a-1)(A+B), a the order of the entropy
    (alpha; 1 for log), and is returned analytically (it is not
    attained); at a = 2 the objective is the constant A + B.

    The other pairs run as one lockstep golden section
    (:func:`_ray_infimum`) on the closed-form bracket [0, log(M/m)/(2-a)],
    M and m the larger and smaller weight, where the log-convex objective
    changes slope; each row stops at its own step, so it gets the bits it
    gets alone, and the result is M times a ratio, so it is 1-homogeneous.
    """
    A, B = _weights(A, B)
    a = _order(entropy)
    ray = (A > 0.0) & (B > 0.0)
    out = np.where(ray, A + B, (a - 1.0) * (A + B))
    out[(A == 0.0) & (B == 0.0)] = 0.0
    if a < 2.0 and ray.any():
        out[ray] = _ray_infimum(a, A[ray], B[ray], max_iter)
    return out if out.ndim else float(out)


def _ray_value(a, w, w0):
    """The ray objective over its larger weight M at w in (0, w0]:
    cr_a(w) (1 + e^{(2-a)(w - w0)}), cr_a from :func:`_power_ratio`.  On
    the bracket cr_a lies in [a - 1, 1] and the exponential is at most 1,
    so nothing overflows."""
    return _power_ratio(a, w) * (1.0 + np.exp((2.0 - a) * (w - w0)))


# M/m overflows where the log's difference replaces it, and a row with
# A = B has w0 = 0, where c r is 0/0 and the result is A + B
@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def _ray_infimum(a, A, B, max_iter):
    """The ray infimum for 1-D arrays of positive weights, order a < 2.

    With the larger weight M first (f_{A,B}(w) = f_{B,A}(-w)), (log f)' =
    h'(w) - (2-a) sigma(w): h' rises (f is log-convex) from (2-a)/2 at 0,
    and sigma falls from M/(M+m) >= 1/2 to 1/2 at w0 = log(M/m)/(2-a), so
    f has its minimum in [0, w0].

    Golden section keeps a row while hi - lo > 1e-12 max(1, hi),
    for at most ``max_iter`` steps, and ends with the least of the
    midpoint value and its last two probes (the first of them on a tie).
    The loop holds the active rows only; a row's final bracket and probe
    values are stored when it retires.  The result is clamped into
    [(a-1)(A+B), A+B], and A = B (w0 = 0) gives A + B exactly.
    """
    M, m = np.maximum(A, B), np.minimum(A, B)
    ratio = M / m
    w0 = np.where(ratio < np.inf, np.log(ratio),
                  np.log(M) - np.log(m)) / (2.0 - a)
    lo, hi = np.zeros_like(w0), w0
    c = hi - _GOLDEN * (hi - lo)
    d = lo + _GOLDEN * (hi - lo)
    fc, fd = _ray_value(a, c, w0), _ray_value(a, d, w0)
    final = np.empty((4, w0.size))          # lo, hi, fc, fd at retirement
    act, v0 = np.arange(w0.size), w0
    for _ in range(max_iter):
        keep = hi - lo > 1e-12 * np.maximum(1.0, hi)
        if not keep.all():
            final[:, act[~keep]] = lo[~keep], hi[~keep], fc[~keep], fd[~keep]
            act, v0, lo, hi, c, d, fc, fd = (
                x[keep] for x in (act, v0, lo, hi, c, d, fc, fd))
            if not act.size:
                break
        left = fc < fd
        lo, hi = np.where(left, lo, c), np.where(left, d, hi)
        step = _GOLDEN * (hi - lo)
        new = np.where(left, hi - step, lo + step)
        f = _ray_value(a, new, v0)
        c, d = np.where(left, new, d), np.where(left, c, new)
        fc, fd = np.where(left, f, fd), np.where(left, fc, f)
    else:
        raise NumericalError(
            f"golden-section refinement exceeded {max_iter} iterations; "
            f"best bracket [{lo[0]:.17g}, {hi[0]:.17g}]")
    lo, hi, fc, fd = final
    best = _ray_value(a, 0.5 * (lo + hi), w0)
    best = np.where(fc < best, fc, best)
    best = np.where(fd < best, fd, best)
    return np.where(w0 > 0.0, np.clip(M * best, (a - 1.0) * (A + B), A + B),
                    A + B)


def theta_surface(alpha: float, A_grid, B_grid) -> np.ndarray:
    """Tabulate Theta over a grid, with its analytic bounds per node.

    Returns an array with columns (A, B, theta, lower_bound, upper_bound)
    in row-major grid order (A outer, B inner); every row satisfies
    (alpha-1)(A+B) <= theta <= A+B.  Grid values must be finite and
    nonnegative.  The whole mesh goes to one :func:`big_theta` call, so
    each node gets the bits a call of its own gives, and memory grows by
    a few floats per node besides the output.
    """
    A_grid = np.asarray(A_grid, dtype=float)
    B_grid = np.asarray(B_grid, dtype=float)
    if A_grid.ndim != 1 or B_grid.ndim != 1 or A_grid.size == 0 or B_grid.size == 0:
        raise DomainError("grids must be nonempty 1-D sequences")
    A, B = (m.ravel() for m in np.meshgrid(A_grid, B_grid, indexing="ij"))
    return np.column_stack((A, B, big_theta(power_entropy(alpha), A, B),
                            big_theta_lower_bound(alpha, A, B), A + B))


# ---------------------------------------------------------------------------
# sampled verifiers for the structural identities of the power mean
# ---------------------------------------------------------------------------

def _worst(name, slack, tol, **points):
    """Check ``slack >= -tol`` at every sample; a failure is witnessed by
    the sample with the least slack."""
    from .reporting import CheckReport

    shape = np.shape(slack)
    k = np.unravel_index(np.argmin(slack), shape)
    ok = bool(slack[k] >= -tol)
    return CheckReport(name, ok, float(np.maximum(0.0, -slack[k])), tol,
                       witness=None if ok else
                       {n: np.broadcast_to(x, shape)[k]
                        for n, x in points.items()})


def verify_theta_identities(alpha: float, samples: int, seed: int,
                            tol: float = 1e-9):
    """Check the Euler relation and the two comparison inequalities.

    On ``samples`` random tuples (r, s, t, l1, l2), each uniform on
    [1e-2, 1e2]:

    (i)   s d1(s,t) + t d2(s,t) = (2-alpha) theta(s,t)   (exact identity);
    (ii)  2^{a-1} r (d1+d2)(s,t) - theta(r,s) - theta(r,t)
          >= -2^{a-1} theta(s,t);
    (iii) l1 d1(s,t)(s-t) - l2 d2(s,t)(s-t)
          <= (2-alpha)|l1-l2| theta(s,t).
    """
    from .reporting import VerificationReport

    if not 1.0 < alpha < 2.0:
        raise DomainError("alpha must lie in (1, 2)")
    if samples < 1:
        raise DomainError("samples must be >= 1")
    rng = np.random.default_rng(seed)
    r, s, t, l1, l2 = (rng.uniform(1e-2, 1e2, size=samples)
                       for _ in range(5))
    mean = MeanFunction(power_entropy(alpha))
    th_st = mean.theta(s, t)
    d1, d2 = mean.partials(s, t)

    res_i = np.abs(s * d1 + t * d2 - (2.0 - alpha) * th_st) / th_st
    lhs_ii = 2.0 ** (alpha - 1.0) * r * (d1 + d2) - mean.theta(r, s) - mean.theta(r, t)
    slack_ii = lhs_ii + 2.0 ** (alpha - 1.0) * th_st
    lhs_iii = l1 * d1 * (s - t) - l2 * d2 * (s - t)
    slack_iii = (2.0 - alpha) * np.abs(l1 - l2) * th_st - lhs_iii

    report = VerificationReport()
    report.add(_worst("euler_relation", -res_i, tol, s=s, t=t))
    report.add(_worst("three_point_inequality", slack_ii, tol, r=r, s=s, t=t))
    report.add(_worst("weighted_gradient_inequality", slack_iii, tol,
                      s=s, t=t, l1=l1, l2=l2))
    return report


def _interpolant_Y(entropy: ConvexEntropy, s, t, m):
    """Y(s,t) = (phi')^{-1}((1-m) phi'(s) + m phi'(t))."""
    return entropy.d1_inv((1.0 - m) * entropy.d1(s) + m * entropy.d1(t))


def verify_concavity(entropy: ConvexEntropy, m_grid, samples: int,
                     seed: int):
    """Sampled concavity certificate for theta.

    (a) midpoint concavity of theta on random point pairs;
    (b) the tangent inequality
        theta(u,v) - theta(s,t) <= d1(s,t)(u-s) + d2(s,t)(v-t);
    (c) for each mixing weight m, the second partials of the
        phi'-interpolant Y in closed form satisfy Y11 <= 0, Y22 <= 0 and
        Y11 Y22 - Y12^2 = 0, the latter as the Euler relations
        s Y11 + t Y12 = 0 = s Y12 + t Y22 in relative form;
    (d) central differences of Y against those closed forms, each held to
        its own rounding bound.

    Checks (a) to (c) allow a slack of 1e-9.

    Y is the power mean of exponent a - 1 (a the order of the entropy:
    alpha, 1 for log), homogeneous of degree one, and
    with c = m(1-m)(2-a) Y^{3-2a}

        Y12 = c (st)^{a-2},  Y11 = -c s^{a-3} t^{a-1},  Y22 = -c s^{a-1} t^{a-3}.
    """
    from .reporting import VerificationReport

    if samples < 1:
        raise DomainError("samples must be >= 1")
    d3_vals = entropy.d3(np.array([0.5, 1.0, 2.0, 10.0]))
    if np.any(np.asarray(d3_vals) > 1e-12):
        raise DomainError("concavity verifier requires phi''' <= 0")
    rng = np.random.default_rng(seed)
    mean = MeanFunction(entropy)
    report = VerificationReport()
    tol_exact = 1e-9

    # (a) midpoint concavity
    s1, t1, s2, t2 = (rng.uniform(1e-2, 1e2, size=samples) for _ in range(4))
    mid = mean.theta(0.5 * (s1 + s2), 0.5 * (t1 + t2))
    slack = mid - 0.5 * (mean.theta(s1, t1) + mean.theta(s2, t2))
    report.add(_worst("midpoint_concavity", slack, tol_exact,
                      s1=s1, t1=t1, s2=s2, t2=t2))

    # (b) tangent inequality
    u, v, s, t = (rng.uniform(1e-2, 1e2, size=samples) for _ in range(4))
    d1, d2 = mean.partials(s, t)
    slack_b = d1 * (u - s) + d2 * (v - t) - (mean.theta(u, v) - mean.theta(s, t))
    report.add(_worst("tangent_inequality", slack_b, tol_exact,
                      u=u, v=v, s=s, t=t))

    # (c) closed-form second partials of the interpolant, one row per m
    n_pts = max(4, samples // 10)
    s = rng.uniform(0.1, 10.0, size=n_pts)
    t = rng.uniform(0.1, 10.0, size=n_pts)
    m = np.asarray(m_grid, dtype=float)[:, None]
    if np.any((m <= 0.0) | (m >= 1.0)):
        raise DomainError("m_grid values must lie in (0, 1)")
    a = _order(entropy)
    Y0 = _interpolant_Y(entropy, s, t, m)
    c = m * (1.0 - m) * (2.0 - a) * Y0 ** (3.0 - 2.0 * a)
    Y12 = c * (s * t) ** (a - 2.0)
    Y11 = -c * s ** (a - 3.0) * t ** (a - 1.0)
    Y22 = -c * s ** (a - 1.0) * t ** (a - 3.0)
    euler = np.maximum(*(np.abs(x + y) / np.fmax(np.abs(x) + np.abs(y),
                                                 np.finfo(float).tiny)
                         for x, y in ((s * Y11, t * Y12), (s * Y12, t * Y22))))
    report.add(_worst("interpolant_Y11_nonpositive", -Y11, tol_exact,
                      s=s, t=t, m=m))
    report.add(_worst("interpolant_Y22_nonpositive", -Y22, tol_exact,
                      s=s, t=t, m=m))
    report.add(_worst("interpolant_determinant", -euler, tol_exact,
                      s=s, t=t, m=m))

    # (d) central differences with steps h = 1e-4 s, 1e-4 t.  An
    # evaluation of Y rounds by about 4 eps kappa Y, with kappa = 1 + (sum
    # of the magnitudes of the terms of (1-m) phi'(s) + m phi'(t))/(phi''(Y) Y),
    # that is 1 + (1 + Y^{1-a})/(a-1), or 1 + (1-m)|log s| + m|log t| for
    # log; a stencil multiplies that by its weights over h^2 (4/h^2, or
    # 1/(hs ht) for the mixed partial), and its O(h^2) truncation stays
    # well below.  The checks report their error in units of that bound.
    hs, ht = 1e-4 * s, 1e-4 * t

    def Y(ds, dt):
        return _interpolant_Y(entropy, s + ds, t + dt, m)

    kappa = (1.0 + (1.0 - m) * np.abs(np.log(s)) + m * np.abs(np.log(t))
             if a == 1.0 else 1.0 + (1.0 + Y0 ** (1.0 - a)) / (a - 1.0))
    err = 4.0 * np.finfo(float).eps * kappa * Y0
    fd11 = (Y(hs, 0.0) - 2.0 * Y0 + Y(-hs, 0.0)) / hs ** 2
    fd22 = (Y(0.0, ht) - 2.0 * Y0 + Y(0.0, -ht)) / ht ** 2
    fd12 = (Y(hs, ht) - Y(hs, -ht) - Y(-hs, ht) + Y(-hs, -ht)) / (4.0 * hs * ht)
    report.add(_worst("interpolant_mixed_partial_closed_form",
                      -np.abs(fd12 - Y12) * hs * ht / err, 1.0, s=s, t=t, m=m))
    report.add(_worst("interpolant_pure_partials_closed_form", -np.maximum(
        np.abs(fd11 - Y11) * hs ** 2, np.abs(fd22 - Y22) * ht ** 2) / (4.0 * err),
        1.0, s=s, t=t, m=m))
    return report
