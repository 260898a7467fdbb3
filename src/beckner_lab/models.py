"""Builders for the concrete chain families and their decay constants.

Four families: birth-death chains on a truncated ladder, zero-range
particle systems, Bernoulli-Laplace exclusion models, and the random
transposition walk on the symmetric group, plus the finite-volume
discretization of a one-dimensional drift-diffusion equation whose
induced chain is again birth-death.

``paper_lambda`` evaluates the explicit entropy-decay constants these
families admit:

* birth-death: the infimum over levels of
  a(n)-a(n+1) + b(n+1)-b(n) + Theta(a(n)-a(n+1), b(n+1)-b(n))
  (requires a nonincreasing, b nondecreasing);
* zero-range with increment bounds c <= c_x(n+1)-c_x(n) <= c+delta and
  delta < 2^{2-a} c:   a c - (3 + 2^{a-2} - a) delta;
* Bernoulli-Laplace with intensity bounds c <= lambda_x <= c+delta and
  delta <= 2^{2-a} c:  a c - (5/2 + 2^{a-3} - a) delta;
* random transposition: 8/(n(n-1));
* finite-volume chain with V'' >= lambda: 2 a lambda_h with
  lambda_h = 2 h^{-2} Phi(h^2 lambda / 8),
  Phi(s^2) = (3 erf(s) - erf(3s)) / (2 erf(s)).
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .chain import FiniteChain
from .entropy import big_theta, check_alpha, power_entropy
from .errors import (ConfigError, DomainError, HypothesisError, SizeError)

STATE_CAP = 20000
RT_MAX_N = 7


# ---------------------------------------------------------------------------
# model specification
# ---------------------------------------------------------------------------

_VARIANTS = ("birth_death", "zero_range", "bernoulli_laplace",
             "random_transposition", "fokker_planck_fv")


@dataclass(frozen=True)
class ModelSpec:
    """Declarative description of one chain instance."""
    kind: str
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in _VARIANTS:
            raise ConfigError(f"unknown model variant {self.kind!r}")


@dataclass(frozen=True)
class PaperConstant:
    """An explicit decay constant, its inputs and any reference values."""
    value: float
    parameters: dict
    references: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# birth-death
# ---------------------------------------------------------------------------

def build_birth_death(a, b) -> FiniteChain:
    """Birth-death chain on {0, ..., n_max}, n_max = len(a) - 1, from
    rate sequences.

    Requires b(0) = 0 and a(n_max) = 0 (truncation closure).  The
    invariant law follows the detailed-balance recursion
    pi(n+1) = pi(n) a(n)/b(n+1).
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    n_max = len(a) - 1
    if len(a) < 2:      # one level: no move, and every check is vacuous
        raise DomainError("need at least two levels")
    if len(b) != len(a):
        raise DomainError("rate sequences must cover 0..n_max")
    if not all(np.all(np.isfinite(r)) and np.all(r >= 0.0) for r in (a, b)):
        raise DomainError("rates must be finite and nonnegative")
    if b[0] != 0.0:
        raise DomainError("death rate must vanish at 0")
    if a[n_max] != 0.0:
        raise DomainError("birth rate must vanish at n_max (truncation closure)")

    log_pi = np.zeros(n_max + 1)
    for n in range(n_max):
        if a[n] > 0.0 and b[n + 1] == 0.0:
            raise DomainError(
                f"detailed-balance recursion breaks at n={n}: "
                f"a({n}) > 0 but b({n + 1}) = 0")
        if a[n] == 0.0:
            raise DomainError(
                f"chain is reducible: level {n + 1} unreachable (a({n}) = 0)")
        log_pi[n + 1] = log_pi[n] + math.log(a[n]) - math.log(b[n + 1])
    log_pi -= log_pi.max()
    pi = np.exp(log_pi)

    S = n_max + 1
    up = np.minimum(np.arange(S) + 1, n_max)
    down = np.maximum(np.arange(S) - 1, 0)
    rates = np.column_stack([a, b])
    return FiniteChain(
        keys=range(S), move_names=("+", "-"),
        targets=np.vstack([up, down]), inverse=np.array([1, 0]),
        rates=rates, pi=pi,
        meta={"model": "birth_death", "a": a.tolist(), "b": b.tolist(),
              "n_max": int(n_max)})


# ---------------------------------------------------------------------------
# zero range
# ---------------------------------------------------------------------------

def _occupations(L: int, N: int):
    """All occupation vectors of L sites holding N particles, lex order."""
    if L == 1:
        yield (N,)
        return
    for k in range(N, -1, -1):
        for rest in _occupations(L - 1, N - k):
            yield (k,) + rest


def _rate_table(c_x, L: int, N: int) -> np.ndarray:
    """Per-site jump rates tabulated on occupancies 0..N, shape (L, N+1)."""
    arr = np.asarray(c_x, dtype=float)
    if arr.ndim == 1:
        arr = np.tile(arr, (L, 1))
    if arr.shape != (L, N + 1):
        raise DomainError(
            f"rate table must have shape ({L}, {N + 1}) or ({N + 1},)")
    if not np.all(np.isfinite(arr)):
        raise DomainError("site rates c_x must be finite")
    if np.any(arr[:, 0] != 0.0):
        raise DomainError("site rates must vanish at occupancy 0")
    if N >= 1 and np.any(arr[:, 1:] <= 0.0):
        raise DomainError("site rates must be positive at occupancy > 0")
    return arr


def _site_pairs(L: int):
    """The moves x -> y, x != y, of L sites: pairs, names and reverses."""
    pairs = [(x, y) for x in range(L) for y in range(L) if x != y]
    index = {p: m for m, p in enumerate(pairs)}
    return pairs, [f"{x}->{y}" for x, y in pairs], np.array(
        [index[y, x] for x, y in pairs], dtype=np.intp)


def build_zero_range(L: int, N: int, c_x) -> FiniteChain:
    """Zero-range process: particle hops x -> y at rate c_x(eta_x)/L.

    The invariant product law weighs each configuration by
    prod_x prod_{k=1}^{eta_x} 1/c_x(k); the normalization constant is
    recorded in ``meta['Z']``.
    """
    if L < 2 or N < 1:
        raise DomainError("need at least 2 sites and 1 particle")
    n_states = math.comb(N + L - 1, L - 1)
    if n_states > STATE_CAP:
        raise SizeError(f"{n_states} configurations exceed cap {STATE_CAP}")
    table = _rate_table(c_x, L, N)

    keys = list(_occupations(L, N))
    idx = {k: i for i, k in enumerate(keys)}
    occ = np.array(keys, dtype=np.intp)
    pairs, names, inverse = _site_pairs(L)

    targets = np.empty((len(pairs), n_states), dtype=np.intp)
    rates = np.zeros((n_states, len(pairs)))
    for m, (x, y) in enumerate(pairs):
        for i, k in enumerate(keys):
            if k[x] > 0:
                moved = list(k)
                moved[x] -= 1
                moved[y] += 1
                targets[m, i] = idx[tuple(moved)]
            else:
                targets[m, i] = i
            rates[i, m] = table[x, k[x]] / L

    log_w = np.zeros(n_states)
    log_c = np.zeros_like(table)
    log_c[:, 1:] = np.log(table[:, 1:])
    csum = np.cumsum(log_c, axis=1)          # sum_{k<=n} log c_x(k)
    for i, k in enumerate(keys):
        log_w[i] = -sum(csum[x, k[x]] for x in range(L))
    w = np.exp(log_w - log_w.max())
    Z = w.sum() * math.exp(log_w.max())

    return FiniteChain(
        keys=keys, move_names=names, targets=targets, inverse=inverse,
        rates=rates, pi=w,
        meta={"model": "zero_range", "L": L, "N": N,
              "rate_table": table.tolist(), "Z": Z,
              "occupancy": occ, "pairs": pairs})


# ---------------------------------------------------------------------------
# Bernoulli-Laplace
# ---------------------------------------------------------------------------

def build_bernoulli_laplace(L: int, N: int, lambda_x) -> FiniteChain:
    """Exclusion exchange model: at most one particle per site.

    Site x fires with intensity lambda_x; the particle moves to a random
    site y when eta_x(1 - eta_y) = 1, giving c(eta, xy) =
    (lambda_x / L) eta_x (1 - eta_y).  States are stored as integer
    bitmasks with N set bits.
    """
    if not 0 < N < L:
        raise DomainError("need 0 < N < L")
    lam = np.asarray(lambda_x, dtype=float)
    if lam.ndim == 0:
        lam = np.full(L, float(lam))
    if lam.shape != (L,) or np.any(lam <= 0.0):
        raise DomainError("intensities must be positive, one per site")
    if not np.all(np.isfinite(lam)):
        raise DomainError("intensities lambda_x must be finite")
    n_states = math.comb(L, N)
    if n_states > STATE_CAP:
        raise SizeError(f"{n_states} configurations exceed cap {STATE_CAP}")

    combos = list(itertools.combinations(range(L), N))
    keys = [sum(1 << x for x in c) for c in combos]
    idx = {k: i for i, k in enumerate(keys)}
    occ = np.zeros((n_states, L), dtype=np.intp)
    for i, c in enumerate(combos):
        occ[i, list(c)] = 1

    pairs, names, inverse = _site_pairs(L)
    targets = np.empty((len(pairs), n_states), dtype=np.intp)
    rates = np.zeros((n_states, len(pairs)))
    for m, (x, y) in enumerate(pairs):
        for i, k in enumerate(keys):
            if occ[i, x] == 1 and occ[i, y] == 0:
                targets[m, i] = idx[(k & ~(1 << x)) | (1 << y)]
                rates[i, m] = lam[x] / L
            else:
                targets[m, i] = i

    log_site = occ * np.log(1.0 / (1.0 + lam)) \
        + (1 - occ) * np.log(lam / (1.0 + lam))
    log_w = log_site.sum(axis=1)
    w = np.exp(log_w - log_w.max())
    Z = w.sum() * math.exp(log_w.max())

    return FiniteChain(
        keys=keys, move_names=names, targets=targets, inverse=inverse,
        rates=rates, pi=w,
        meta={"model": "bernoulli_laplace", "L": L, "N": N,
              "lambda_x": lam.tolist(), "Z": Z,
              "occupancy": occ, "pairs": pairs})


# ---------------------------------------------------------------------------
# random transposition
# ---------------------------------------------------------------------------

def build_random_transposition(n: int) -> FiniteChain:
    """Transposition walk on S_n: sigma -> tau sigma at rate 2/(n(n-1)).

    Every move is its own inverse and the uniform law 1/n! is invariant.
    """
    if not 2 <= n <= RT_MAX_N:
        raise SizeError(f"n must lie in [2, {RT_MAX_N}] (n! state count)")
    keys = list(itertools.permutations(range(n)))
    idx = {k: i for i, k in enumerate(keys)}
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    names = [f"({i} {j})" for i, j in pairs]
    rate = 2.0 / (n * (n - 1))

    targets = np.empty((len(pairs), len(keys)), dtype=np.intp)
    for m, (i, j) in enumerate(pairs):
        swap = {i: j, j: i}
        for k, sigma in enumerate(keys):
            targets[m, k] = idx[tuple(swap.get(v, v) for v in sigma)]
    inverse = np.arange(len(pairs), dtype=np.intp)
    rates = np.full((len(keys), len(pairs)), rate)
    pi = np.full(len(keys), 1.0 / len(keys))
    return FiniteChain(
        keys=keys, move_names=names, targets=targets, inverse=inverse,
        rates=rates, pi=pi,
        meta={"model": "random_transposition", "n": n,
              "pairs": pairs, "words": np.array(keys, dtype=np.intp)})


# ---------------------------------------------------------------------------
# finite-volume drift-diffusion chain
# ---------------------------------------------------------------------------

@functools.cache
def _gauss_legendre(npts: int):
    """Read-only Gauss-Legendre nodes and weights on [-1, 1], computed
    once per order (numpy.polynomial is imported on first use only)."""
    from numpy.polynomial.legendre import leggauss

    x, w = leggauss(npts)
    x.flags.writeable = w.flags.writeable = False
    return x, w


def fv_cell_averages(V, n_cells: int, order: int = 16) -> np.ndarray:
    """Cell averages of exp(-V) over the uniform partition of [0, 1].

    Gauss-Legendre quadrature per cell; the order doubles until the
    averages are stable to 1e-12 in relative terms.  ``n_cells`` is at
    least 3 (see :func:`_check_fv_mesh`).
    """
    h = 1.0 / n_cells
    edges = np.linspace(0.0, 1.0, n_cells + 1)

    def averages(npts):
        xg, wg = _gauss_legendre(npts)
        lo = edges[:-1][:, None]
        hi = edges[1:][:, None]
        xs = 0.5 * (hi - lo) * xg[None, :] + 0.5 * (hi + lo)
        vals = np.exp(-np.asarray(V(xs), dtype=float))
        if np.any(~np.isfinite(vals)):
            raise DomainError("exp(-V) overflowed or is undefined on [0, 1]")
        return (0.5 * (hi - lo) * (wg[None, :] * vals)).sum(axis=1) / h

    cur = averages(order)
    for _ in range(6):
        order *= 2
        nxt = averages(order)
        if np.max(np.abs(nxt - cur) / np.abs(nxt)) <= 1e-12:
            return nxt
        cur = nxt
    raise DomainError("cell quadrature failed to stabilize; V too rough")


def fv_rates(cell_avg: np.ndarray, h: float):
    """Ladder rates a(n) = k_n / (h^2 p_n), b(n) = k_{n-1} / (h^2 p_n)
    with k_n = sqrt(p_n p_{n+1}); reflecting closure at both ends."""
    p = np.asarray(cell_avg, dtype=float)
    n = len(p)
    a = np.zeros(n)
    b = np.zeros(n)
    a[:-1] = np.sqrt(p[1:] / p[:-1]) / h ** 2
    b[1:] = np.sqrt(p[:-1] / p[1:]) / h ** 2
    return a, b


def build_fokker_planck_fv(V, n_cells: int, lambda_conv: float) -> FiniteChain:
    """Finite-volume chain of the drift-diffusion equation on [0, 1].

    The chain weights are h times the cell averages of exp(-V)/Z; the
    induced ladder rates satisfy detailed balance exactly by the
    geometric-mean flux construction.  ``lambda_conv`` (a lower bound on
    V'') is recorded for downstream decay constants.
    """
    _check_fv_mesh(n_cells, lambda_conv)     # before h = 1 / n_cells
    cells = fv_cell_averages(V, n_cells)
    h = 1.0 / n_cells
    a, b = fv_rates(cells, h)
    chain = build_birth_death(a, b)
    chain.meta.update({"model": "fokker_planck_fv", "n_cells": int(n_cells),
                       "h": h, "lambda_conv": float(lambda_conv),
                       "cell_averages": cells / (h * cells.sum())})
    return chain


def _check_fv_mesh(n_cells: int, lambda_conv: float) -> None:
    """Require a finite convexity bound lambda > 0 and at least 3 cells."""
    if not 0.0 < lambda_conv < math.inf:       # NaN fails too
        raise HypothesisError("convexity bound lambda must be finite and > 0")
    if n_cells < 3:
        raise DomainError("need at least 3 cells")


def check_convexity(Vpp, lambda_conv: float) -> None:
    """Require V'' >= lambda, to 1e-6 relative, at 2001 points of [0, 1]."""
    vpp = np.asarray(Vpp(np.linspace(0.0, 1.0, 2001)), dtype=float)
    if not np.min(vpp) >= lambda_conv - 1e-6 * lambda_conv:   # NaN fails
        raise HypothesisError(
            f"V'' >= {lambda_conv} fails: min sampled V'' = {np.min(vpp):.6g}")


def phi_mielke(u: float) -> float:
    """Phi(u) = (3 erf(s) - erf(3s)) / (2 erf(s)) at u = s^2.

    For tiny u the erf difference cancels; the series
    4u (1 - 8u/3 + 248 u^2/45) takes over below u = 1e-5.
    """
    if u < 0.0:
        raise DomainError("argument must be nonnegative")
    if u < 1e-5:
        return 4.0 * u * (1.0 - 8.0 * u / 3.0 + 248.0 * u * u / 45.0)
    s = math.sqrt(u)
    return (3.0 * math.erf(s) - math.erf(3.0 * s)) / (2.0 * math.erf(s))


def lambda_h(h: float, lambda_conv: float) -> float:
    """Mesh-dependent decay rate 2 h^{-2} Phi(h^2 lambda / 8).

    Increases to ``lambda_conv`` as h -> 0 and stays strictly below it.
    """
    if h <= 0.0 or lambda_conv <= 0.0:
        raise DomainError("h and lambda must be positive")
    return 2.0 / h ** 2 * phi_mielke(h ** 2 * lambda_conv / 8.0)


# ---------------------------------------------------------------------------
# explicit decay constants
# ---------------------------------------------------------------------------

def _ladder_curvature(alpha: float, a, A, B):
    """(min, first argmin) over the live levels n (a_n > 0, n < len(A)) of
    A_n + B_n + Theta(A_n, B_n), Theta of the power entropy of order
    alpha, A and B a ladder's birth decrements and death increments; a
    level with a negative increment counts as -inf, and no live level
    gives (inf, None)."""
    live = np.flatnonzero(a[:-1] > 0.0)
    if not live.size:
        return math.inf, None
    A, B = A[live], B[live]
    pos = (A >= 0.0) & (B >= 0.0)
    val = np.full(live.size, -math.inf)
    val[pos] = A[pos] + B[pos] + big_theta(power_entropy(alpha), A[pos], B[pos])
    k = int(np.argmin(val))
    return float(val[k]), int(live[k])


def paper_lambda(spec: ModelSpec, alpha: float) -> PaperConstant:
    """Evaluate the explicit decay constant for a model instance.

    Raises :class:`HypothesisError` naming the violated condition when
    the instance falls outside the respective theorem's assumptions, and
    a finite-volume instance fails the checks of its builder as it does.
    """
    check_alpha(alpha)
    p = spec.params

    if spec.kind == "birth_death":
        a = np.asarray(p["a"], dtype=float)
        b = np.asarray(p["b"], dtype=float)
        if np.any(np.diff(a) > 1e-12):
            raise HypothesisError("birth rate sequence must be nonincreasing")
        if np.any(np.diff(b) < -1e-12):
            raise HypothesisError("death rate sequence must be nondecreasing")
        # a step the wrong way within the 1e-12 tolerance counts as flat
        best, best_n = _ladder_curvature(alpha, a,
                                         np.maximum(a[:-1] - a[1:], 0.0),
                                         np.maximum(b[1:] - b[:-1], 0.0))
        if best_n is None:
            raise HypothesisError("no active birth level; chain is frozen")
        return PaperConstant(best, {"alpha": alpha, "argmin_level": best_n})

    if spec.kind == "zero_range":
        table = _rate_table(p["c_x"], p["L"], p["N"])
        inc = np.diff(table, axis=1)
        c = float(inc.min())
        delta = float(inc.max() - inc.min())
        if c <= 0.0:
            raise HypothesisError(
                "increment lower bound must be positive: "
                "c <= c_x(n+1) - c_x(n)")
        if not delta < 2.0 ** (2.0 - alpha) * c:
            raise HypothesisError(
                "increment spread violates delta < 2^{2-alpha} c")
        val = alpha * c - (3.0 + 2.0 ** (alpha - 2.0) - alpha) * delta
        return PaperConstant(val, {"alpha": alpha, "c": c, "delta": delta})

    if spec.kind == "bernoulli_laplace":
        lam = np.asarray(p["lambda_x"], dtype=float)
        if lam.ndim == 0:
            lam = np.full(p["L"], float(lam))
        c = float(lam.min())
        delta = float(lam.max() - lam.min())
        if not delta <= 2.0 ** (2.0 - alpha) * c:
            raise HypothesisError(
                "intensity spread violates delta <= 2^{2-alpha} c")
        val = alpha * c - (2.5 + 2.0 ** (alpha - 3.0) - alpha) * delta
        refs = {}
        if delta == 0.0:
            L, N = p["L"], p["N"]
            # reference values for the homogeneous case, scaled linearly
            # from the normalization lambda_x = L/(N(L-N))
            refs["sharper_homogeneous"] = (alpha * L + 4.0 - 2.0 * alpha) * c / L
            refs["bobkov_tetali"] = alpha * (L + 2.0) * c / (2.0 * L)
        return PaperConstant(val, {"alpha": alpha, "c": c, "delta": delta},
                             references=refs)

    if spec.kind == "random_transposition":
        n = p["n"]
        if n < 2:
            raise HypothesisError("need n >= 2")
        return PaperConstant(8.0 / (n * (n - 1)), {"alpha": alpha, "n": n})

    if spec.kind == "fokker_planck_fv":
        lam = p["lambda_conv"]
        _check_fv_mesh(p["n_cells"], lam)
        check_convexity(potential_from_config(p["potential"])[1], lam)
        h = 1.0 / p["n_cells"]
        lh = lambda_h(h, lam)
        return PaperConstant(2.0 * alpha * lh,
                             {"alpha": alpha, "h": h, "lambda_conv": lam,
                              "lambda_h": lh})

    raise ConfigError(f"unknown model variant {spec.kind!r}")


# ---------------------------------------------------------------------------
# dispatch and configuration parsing
# ---------------------------------------------------------------------------

def build_model(spec: ModelSpec) -> FiniteChain:
    p = spec.params
    if spec.kind == "birth_death":
        return build_birth_death(p["a"], p["b"])
    if spec.kind == "zero_range":
        return build_zero_range(p["L"], p["N"], p["c_x"])
    if spec.kind == "bernoulli_laplace":
        return build_bernoulli_laplace(p["L"], p["N"], p["lambda_x"])
    if spec.kind == "random_transposition":
        return build_random_transposition(p["n"])
    if spec.kind == "fokker_planck_fv":
        V, _ = potential_from_config(p["potential"])
        return build_fokker_planck_fv(V, p["n_cells"], p["lambda_conv"])
    raise ConfigError(f"unknown model variant {spec.kind!r}")


def potential_from_config(cfg: dict):
    """Potential on [0, 1] from a config block.

    ``{"kind": "quadratic", "coeff": c}`` gives V(x) = c x^2 (so V'' = 2c);
    ``{"kind": "table", "x": [...], "v": [...]}`` interpolates samples with
    a cubic spline.  Returns (V, V'') with V'' possibly spline-based.
    """
    if not isinstance(cfg, dict):
        raise ConfigError("potential block must be a JSON object")
    kind = cfg.get("kind")
    if kind == "quadratic":
        c = float(cfg["coeff"])
        return (lambda x: c * np.asarray(x) ** 2,
                lambda x: 2.0 * c * np.ones_like(np.asarray(x, dtype=float)))
    if kind == "table":
        try:
            from scipy.interpolate import CubicSpline
        except ImportError as exc:
            raise ConfigError(
                "a tabulated potential needs scipy, the 'table' extra: "
                "pip install 'beckner-lab[table]'") from exc
        xs = np.asarray(cfg["x"], dtype=float)
        vs = np.asarray(cfg["v"], dtype=float)
        if len(xs) < 4 or np.any(np.diff(xs) <= 0):
            raise ConfigError("tabulated potential needs >= 4 increasing nodes")
        spl = CubicSpline(xs, vs)
        return spl, spl.derivative(2)
    raise ConfigError(f"unknown potential kind {cfg.get('kind')!r}")


def linear_rate_table(L: int, N: int, c: float = 1.0) -> np.ndarray:
    """Zero-range rates c_x(n) = c n, identical across sites."""
    if not 0.0 < c < math.inf:
        raise ConfigError("linear rate coefficient c must be finite and > 0")
    return np.tile(c * np.arange(N + 1, dtype=float), (L, 1))


def mm_infinity_rates(K: int):
    """The trap family a(n) = K - n, b(n) = n on {0..K}."""
    n = np.arange(K + 1, dtype=float)
    return K - n, n
