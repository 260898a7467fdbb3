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
        return a * np.expm1((a - 1.0) * np.log(s)) / (a - 1.0)

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


def _order(entropy: ConvexEntropy) -> float:
    """The power-family order a of phi: alpha, 1 for log (the a -> 1
    limit) and 2 for quadratic (equal to the power entropy at a = 2)."""
    return {"log": 1.0, "quadratic": 2.0}.get(entropy.kind, entropy.alpha)


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

# rows per ray-scan block, evaluated into one reused (rows, 2401) float
# buffer, about 300 kB at 16 rows (the acceptance CLI benchmark peaked at
# 42.0-42.2 MB RSS with 16 rows and 45.9 MB with 256, which ran slower)
_SCAN_ROWS = 16


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
    if not 1.0 < alpha <= 2.0:
        raise DomainError("alpha must lie in (1, 2]")
    A, B = _weights(A, B)
    out = (alpha - 1.0) * (A + B)
    return out if out.ndim else float(out)


def big_theta(entropy: ConvexEntropy, A, B, max_iter: int = 200):
    """inf over s,t > 0 of theta(s,t) (A phi''(s) + B phi''(t)), for every
    pair of weights at once.

    A and B are finite nonnegative floats or arrays, broadcast together;
    a float pair gives a float, arrays give an array of their shape.  The
    objective is jointly 0-homogeneous for every kind, so the search
    reduces to the ray ratio r = s/t.  If A or B vanishes the infimum
    equals the boundary limit (a-1)(A+B), a the order of the entropy
    (alpha; 1 for log, 2 for quadratic), and is returned analytically (it
    is not attained); at a = 2 the objective is the constant A + B.

    The other pairs run as one lockstep stack (:func:`_ray_infimum`), and
    each gets the bits it gets alone: the stack shares only factors that
    depend on the ray coordinate, and every row combines them in the
    one-pair order, with its own bracket and its own ``max_iter``
    golden-section steps.  The scan takes 16 rows at a time
    (``_SCAN_ROWS``): wider blocks run no faster and only raise the peak
    memory, so the stack costs a few arrays of one float per pair.
    """
    A, B = _weights(A, B)
    a = _order(entropy)
    ray = (A > 0.0) & (B > 0.0)
    out = np.where(ray, A + B, (a - 1.0) * (A + B))
    out[(A == 0.0) & (B == 0.0)] = 0.0
    if a < 2.0 and ray.any():
        out[ray] = _ray_infimum(a, A[ray], B[ray], max_iter)
    return out if out.ndim else float(out)


def _ray_factors(a, w):
    """Factors of the ray objective P (A E + B) / D along (s, t) = (e^w, 1)
    that depend on w alone: the power family's, and at a = 1 its a -> 1
    limit, the log entropy's (D = 1, an exact division).  The last one
    masks |w| < 1e-12, where the form is 0/0 and the value is A + B."""
    if a == 1.0:
        return np.expm1(w) / w, np.exp(-w), 1.0, np.abs(w) < 1e-12
    return ((a - 1.0) * np.expm1(w), np.exp((a - 2.0) * w),
            np.expm1((a - 1.0) * w), np.abs(w) < 1e-12)


def _ray_value(factors, A, B):
    P, E, D, zero = factors
    return np.where(zero, A + B, P * (A * E + B) / D)


def _ray_infimum(a, A, B, max_iter):
    """The ray infimum for 1-D arrays of positive weights, order a < 2.

    A 2401-point scan of w in [-60, 60] brackets each row's minimizer;
    rows whose minimum sits on the boundary are rescanned at twice the
    span, up to 480.  A row still on the boundary there returns the
    boundary limit (a-1)(A+B) if its edge value lies within 1e-9 relative
    of it, and raises otherwise.  A flat row returns its scan minimum; the
    others are refined by :func:`_golden`.  The scan runs ``_SCAN_ROWS``
    rows at a time on factors computed once per span, in place in one
    buffer.
    """
    n = A.size
    out, lo, hi = np.empty(n), np.empty(n), np.empty(n)
    refine = np.zeros(n, dtype=bool)
    buf = np.empty((_SCAN_ROWS, 2401))
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        todo, span = np.arange(n), 60.0
        while todo.size:
            ws = np.linspace(-span, span, 2401)
            P, E, D, zero = _ray_factors(a, ws)
            zero = np.flatnonzero(zero)
            wider = []
            for k in range(0, todo.size, _SCAN_ROWS):
                rows = todo[k:k + _SCAN_ROWS]
                # P (A E + B) / D in the order _ray_value takes, in place
                vals = buf[:rows.size]
                np.multiply(A[rows, None], E, out=vals)
                np.add(vals, B[rows, None], out=vals)
                np.multiply(P, vals, out=vals)
                np.divide(vals, D, out=vals)
                vals[:, zero] = (A[rows] + B[rows])[:, None]
                i = np.argmin(vals, axis=1)
                vi = vals[np.arange(rows.size), i]
                vmax = vals.max(axis=1)
                flat = vmax - vi <= 1e-12 * (np.abs(vmax) + 1.0)
                edge = ~flat & ((i == 0) | (i == ws.size - 1))
                inner = ~flat & ~edge
                out[rows[flat]] = vi[flat]
                refine[rows[inner]] = True
                lo[rows[inner]] = ws[i[inner] - 1]
                hi[rows[inner]] = ws[i[inner] + 1]
                if span * 2.0 > 600.0:
                    # an edge row of the last span approaches the limit
                    # of the objective as |w| grows
                    floor = (a - 1.0) * (A[rows] + B[rows])
                    limit = edge & (np.abs(vi - floor) <= 1e-9 * floor)
                    out[rows[limit]] = floor[limit]
                    edge &= ~limit
                    if edge.any():
                        j = np.flatnonzero(edge)[0]
                        raise NumericalError(
                            f"ray scan did not bracket the minimizer; best "
                            f"bracket w={ws[i[j]]:.3g}, value={vi[j]:.17g}")
                wider.append(rows[edge])
            todo, span = np.concatenate(wider), span * 2.0
        if refine.any():
            out[refine] = _golden(a, A[refine], B[refine], lo[refine],
                                  hi[refine], max_iter)
    return out


def _golden(a, A, B, lo, hi, max_iter):
    """Golden-section refinement of every bracket [lo, hi] in lockstep.

    A row stays active while hi - lo >= 1e-12, for at most ``max_iter``
    steps, and ends with the least of the midpoint value and its last two
    probes (the first of them on a tie).  The loop holds the active rows
    only; a row's final bracket and probe values are stored when it
    retires.
    """
    c = hi - _GOLDEN * (hi - lo)
    d = lo + _GOLDEN * (hi - lo)
    fc = _ray_value(_ray_factors(a, c), A, B)
    fd = _ray_value(_ray_factors(a, d), A, B)
    final = np.empty((4, lo.size))          # lo, hi, fc, fd at retirement
    act, wa, wb = np.arange(lo.size), A, B
    for _ in range(max_iter):
        keep = hi - lo >= 1e-12
        if not keep.all():
            final[:, act[~keep]] = lo[~keep], hi[~keep], fc[~keep], fd[~keep]
            act, wa, wb, lo, hi, c, d, fc, fd = (
                x[keep] for x in (act, wa, wb, lo, hi, c, d, fc, fd))
            if not act.size:
                break
        left = fc < fd
        lo, hi = np.where(left, lo, c), np.where(left, d, hi)
        new = np.where(left, hi - _GOLDEN * (hi - lo),
                       lo + _GOLDEN * (hi - lo))
        f = _ray_value(_ray_factors(a, new), wa, wb)
        c, d = np.where(left, new, d), np.where(left, c, new)
        fc, fd = np.where(left, f, fd), np.where(left, fc, f)
    else:
        raise NumericalError(
            f"golden-section refinement exceeded {max_iter} iterations; "
            f"best bracket [{lo[0]:.17g}, {hi[0]:.17g}]")
    lo, hi, fc, fd = final
    best = _ray_value(_ray_factors(a, 0.5 * (lo + hi)), A, B)
    best = np.where(fc < best, fc, best)
    return np.where(fd < best, fd, best)


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
                            box=(1e-2, 1e2), tol: float = 1e-9):
    """Check the Euler relation and the two comparison inequalities.

    On ``samples`` random tuples (r, s, t, l1, l2) from ``box``:

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
    lo, hi = box
    r, s, t, l1, l2 = (rng.uniform(lo, hi, size=samples) for _ in range(5))
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


def verify_concavity(entropy: ConvexEntropy, m_grid, samples: int, seed: int,
                     tol_exact: float = 1e-9):
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

    Y is the power mean of exponent a - 1 (a the order of the entropy:
    alpha, 1 for log, 2 for quadratic), homogeneous of degree one, and
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
