"""Variational and spectral estimation of sharp inequality constants.

Four constants are estimated, the last three by quotient minimization
over positive pi-mean-one densities:

* Poincare / spectral gap  lambda_P: smallest nonzero eigenvalue of -L
  in L^2(pi) (computed spectrally, not variationally);
* power-entropy constant   lambda_B(a):
      min (a/(a-1)) E(rho^{a-1}, rho) / pi[phi_a(rho)];
* modified log-Sobolev     lambda_M:  min E(log rho, rho) / pi[phi_1(rho)];
* log-Sobolev              lambda_L:  min E(sqrt rho, sqrt rho) / pi[phi_1(rho)].

Minimization runs L-BFGS with an Armijo line search on the
log-parameterization rho = exp(u)/pi[exp(u)] (positivity for free,
normalization by projection), from multistart initializations built from
the spectral-gap eigenvector and random log-Gaussian fields.
:func:`constants_report` is the one way to request the three.  Its
estimates advance in lockstep as the rows of one array, a block of rows
each (every alpha, then mlsi, then lsi); each round makes one evaluation
of value, density and gradient for the rows still running, and each row
gets the bits of its start run alone, unless the least value its block
has reached leads it by more than 1e-3 relative: then it retires with
the bits of its lone run cut there.  Every quotient at a fixed density
comes from one evaluator, every spec at every density of a stack, in two
evaluations: the linearization rays rho = 1 + eps f_gap (which pin
lambda_B(2) = 2 lambda_P and keep every estimate at or below it), then
every quotient at every minimizer (the rechecks, the mlsi estimate's
alpha -> 1 reading and the pooled fold).

The estimates bracket the sharp constants from above only away from the
flat density: near it the O((rho - 1)^2) denominator is formed from
O(rho - 1) parts, and the descent can walk into that noise below the
sharp value.  On ``build_birth_death([1, 0], [0, 1])`` (sharp value 4,
1 for lsi) the report at alpha = 1.1 reads lambda_B(1.1) = 3.93855,
lambda_M = 3.99658 and lambda_L = 0.999146; its fold over the pooled
minimizers carries the noise of one kind's minimizer to the others.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field

import numpy as np

from .chain import Density, FiniteChain
from .entropy import check_alpha, dphi_kernel, phi_kernel
from .errors import DegeneracyError, DomainError, NumericalError, SizeError
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


def _matvec(A, x):
    return (A @ x[..., None])[..., 0]       # one product per row


_KINDS = ("beckner", "mlsi", "lsi")     # a row's kind is its index here


class _Quotient:
    """Quotients on a (K, S) stack of densities, one per row.

    ``_Quotient(chain, specs, block)`` evaluates a stack of blocks, specs
    a list of (kind, alpha): the row with id r in the descent stack
    evaluates ``specs[r // block]``; without ``block`` all rows form one
    block, so ``_Quotient(chain, [(kind, alpha)])`` evaluates one quotient
    on every row.  Each kind keeps one formula, run on every run of
    consecutive rows of that kind as slice views; the beckner formula
    takes alpha as a per-row column.  Terms the kinds share (log rho,
    rho - 1, the product with Q, the log-kind entropy and its derivative,
    the projection) are computed once for all rows.

    Every row gets the bits it would get in a stack of its own: products
    with Q run as one matrix-vector product per row (a single matrix
    product over the stack rounds differently), sums are per-row
    reductions, and scalar factors keep the order of the one-row formulas.
    rho - 1 and rho^{a-1} - 1 are built from expm1 of log rho, and phi
    and phi' by the kernels of :mod:`entropy`, so the denominator is
    ``entropy(chain, e, rho)`` bit for bit.
    """

    def __init__(self, chain: FiniteChain, specs, block: int | None = None):
        self.specs = list(specs)
        for k, _ in self.specs:
            if k not in _KINDS:
                raise DomainError(f"unknown quotient kind {k!r}")
        self.codes = np.array([_KINDS.index(k) for k, _ in self.specs])
        self.alphas = np.array([math.nan if a is None else a
                                for _, a in self.specs])
        # numerator coefficient a/(a-1) of the beckner kind, 1 of the others
        self.coef = np.where(self.codes == 0,
                             self.alphas / (self.alphas - 1.0), 1.0)
        self.block = block
        self.Q = chain.dense_generator()
        self.pi = chain.pi

    def _runs(self, spec):
        """(kind, slice, alpha column of a beckner run) for each run of
        consecutive rows of one kind among the rows of specs ``spec``."""
        code = self.codes[spec]
        if not len(code):       # an empty column has no runs
            return
        cut = [0, *(np.flatnonzero(code[1:] != code[:-1]) + 1).tolist(),
               len(code)]
        for lo, hi in zip(cut[:-1], cut[1:]):
            kind = _KINDS[code[lo]]
            yield kind, slice(lo, hi), (self.alphas[spec[lo:hi], None]
                                        if kind == "beckner" else None)

    def parts(self, rho, ids=None, grad=False):
        """Numerator and denominator per row of ``rho``, the rows with
        stack ids ``ids`` (by default the first rows of the stack), and
        with ``grad`` the gradient in u of the quotient at
        rho = exp(u)/pi[exp(u)], projected on pi-mean-one directions."""
        ids = np.arange(len(rho)) if ids is None else ids
        spec = ids // self.block if self.block else np.zeros_like(ids)
        pi, c, runs = self.pi, self.coef[spec], list(self._runs(spec))
        lg = np.log(rho)
        rho_c = np.expm1(lg)                    # rho - 1
        X, F = rho_c.copy(), lg.copy()          # num = -c pi[F Q X]
        E = phi_kernel(rho, lg, rho_c, 1.0)     # den = pi[E]
        for kind, r, a in runs:
            if kind == "beckner":
                F[r] = np.expm1((a - 1.0) * lg[r])      # rho^{a-1} - 1
                E[r] = phi_kernel(rho[r], lg[r], rho_c[r], a)
            elif kind == "lsi":
                F[r] = X[r] = np.expm1(0.5 * lg[r])     # sqrt(rho) - 1
        QX = _matvec(self.Q, X)
        num, den = -(c * _rowsum(pi * F * QX)), _rowsum(pi * E)
        if not grad:
            return num, den
        QF, dnum = _matvec(self.Q, F), np.empty_like(rho)
        dden = dphi_kernel(lg, 1.0, pi)         # pi phi'(rho)
        for kind, r, a in runs:
            if kind == "beckner":
                dnum[r] = -c[r, None] * pi * (
                    (a - 1.0) * rho[r] ** (a - 2.0) * QX[r] + QF[r])
                dden[r] = dphi_kernel(F[r], a, pi)
            elif kind == "mlsi":
                dnum[r] = -pi * (QX[r] / rho[r] + QF[r])
            else:
                dnum[r] = -pi * QX[r] / np.sqrt(rho[r])
        G = rho * ((dnum - (num / den)[:, None] * dden) / den[:, None])
        return num, den, G - pi * rho * _rowsum(G)[:, None]

    def evaluate(self, U, ids=None):
        """Quotient value, density and projected gradient in u at
        rho = exp(u)/pi[exp(u)] for each row u of U, the rows with stack
        ids ``ids`` (by default the first rows)."""
        V = np.exp(U - U.max(axis=-1, keepdims=True))
        rho = V / _rowsum(self.pi * V)[:, None]
        num, den, G = self.parts(rho, ids, grad=True)
        return num / den, rho, G


def _fixed_parts(chain: FiniteChain, specs, rho):
    """Numerator and denominator of spec i at density j of the (n, S)
    stack ``rho`` as entry (i, j), in one evaluation with the bits of the
    one-row ``_Quotient``.  Warnings are off, as each caller applies its
    own rule to an entropy that is not positive, and may do so later."""
    with np.errstate(all="ignore"):
        num, den = _Quotient(chain, specs=specs, block=len(rho)).parts(
            np.tile(rho, (len(specs), 1)))
    return num.reshape(len(specs), -1), den.reshape(len(specs), -1)


def quotient_value(chain: FiniteChain, kind: str, alpha: float | None,
                   rho):
    """Direct evaluation of the named quotient at a density.

    One ``Density`` or 1-D row gives a float; a (K, S) stack of strictly
    positive pi-mean-one rows gives a (K,) array, each row with the bits
    of its one-density call.  Raises when ``rho`` is not one row or one
    stack of rows over the chain's states, or when any entropy is not
    positive.
    """
    if kind == "beckner":
        check_alpha(alpha)
    rho = np.asarray(rho, float)
    S = chain.n_states
    if rho.ndim not in (1, 2) or rho.shape[-1] != S:
        raise DomainError(f"rho must be one row or a (K, {S}) stack of "
                          f"densities, got shape {rho.shape}")
    (num,), (den,) = _fixed_parts(chain, [(kind, alpha)], np.atleast_2d(rho))
    if not np.all(den > 0.0):       # a row off (0, inf) gives a nan
        raise DomainError("entropy vanished at the evaluation point")
    return float(num[0] / den[0]) if rho.ndim == 1 else num / den


# ---------------------------------------------------------------------------
# L-BFGS in log coordinates, all starts in lockstep
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OptimizerOptions:
    starts: int = 32
    max_iter: int = 400
    tol: float = 1e-8
    seed: int = 0

    def __post_init__(self):
        for name in ("starts", "max_iter", "seed"):
            try:
                operator.index(getattr(self, name))
            except TypeError:
                raise DomainError(f"{name} must be an integer, got "
                                  f"{getattr(self, name)!r}") from None
        if self.seed < 0:
            raise DomainError(f"seed must be >= 0, got {self.seed}")
        if self.starts < 1:
            raise DomainError(f"starts must be >= 1, got {self.starts}")
        if self.max_iter < 1:
            raise DomainError(f"max_iter must be >= 1, got {self.max_iter}")
        if not (math.isfinite(self.tol) and self.tol > 0.0):
            raise DomainError(f"tol must be finite and > 0, got {self.tol}")


# start statuses; "gradient" and "stalled" count as converged, "maxiter"
# and "dominated" (retired behind its block's lead) do not
STATUSES = ("gradient", "stalled", "maxiter", "dominated")

_MEMORY = 10        # curvature pairs kept per start
STACK_MAX_BYTES = 2 ** 30   # cap on the descent stack of all estimates


@dataclass(frozen=True)
class _Descent:
    """Per-start results of one lockstep descent (row k is start k)."""
    value: np.ndarray
    rho: np.ndarray
    gnorm: np.ndarray
    status: list[str]
    trials: np.ndarray      # line-search trial points evaluated per row
    iterations: np.ndarray  # iterations completed per row

    def block(self, rows: slice) -> _Descent:
        """The results of the rows ``rows``."""
        return _Descent(self.value[rows], self.rho[rows], self.gnorm[rows],
                        self.status[rows], self.trials[rows],
                        self.iterations[rows])

    @property
    def evaluations(self) -> int:
        """Rows evaluated, the starting points included."""
        return len(self.status) + int(self.trials.sum())

    @property
    def rounds(self) -> int:
        """Lockstep line-search rounds: a row is evaluated in every round
        from the first until it stops."""
        return int(self.trials.max(initial=0))


def _rowdot(A, B):
    # one dot product per row, bitwise equal to np.dot(a, b)
    # (einsum and summed products round differently)
    return (A[:, None, :] @ B[:, :, None])[:, 0, 0]


class _Pairs:
    """Each row's last ``_MEMORY`` curvature pairs (s, y) for the compact
    form of the L-BFGS matrix (Byrd, Nocedal & Schnabel 1994):
    H g = gamma g + S^T w - gamma Y^T t, t = R^{-1} S g and
    w = R^{-T} (D t + gamma Y Y^T t - gamma Y g), with R the upper
    triangle of S Y^T in arrival order, D its diagonal and gamma = s.y/y.y
    of the newest pair.  Pairs sit in a ring of slots; R^{-1}, Y Y^T and D
    are kept in slot order and bordered as a pair arrives, and dropping
    the oldest pair clears its slot, so no round refactors a matrix.
    Directions cover the whole stack; a new pair goes to the rows of a mask.
    """

    def __init__(self, K: int, n: int):
        m = _MEMORY
        self.W = np.zeros((K, 2 * m, n))    # s_i in slot i, y_i in m + i
        self.Ri, self.YY = np.zeros((K, m, m)), np.zeros((K, m, m))
        self.sy = np.zeros((K, m))          # D
        self.count = np.zeros(K, dtype=int)

    def compact(self, keep):
        """Keep the rows where ``keep`` holds."""
        self.W, self.Ri, self.YY, self.sy, self.count = (
            x[keep] for x in (self.W, self.Ri, self.YY, self.sy, self.count))

    def add(self, keep, s, y, sy):
        """Store pair (s[k], y[k]), s.y = sy[k], in each row k where
        ``keep`` holds."""
        m, W, Ri, YY = _MEMORY, self.W, self.Ri, self.YY
        r = np.flatnonzero(keep)
        s, y, sy = s[r], y[r], sy[r]
        o = self.count[r] % m               # the oldest slot, or a free one
        W[r, o] = W[r, m + o] = Ri[r, o] = Ri[r, :, o] = 0.0
        b = _matvec(W[r], y)                # S y over Y y
        Ri[r, :, o] = -_matvec(Ri[r], b[:, :m]) / sy[:, None]
        Ri[r, o, o] = 1.0 / sy
        YY[r, o] = YY[r, :, o] = b[:, m:]   # row and column o of Y Y^T
        YY[r, o, o], self.sy[r, o] = _rowdot(y, y), sy
        W[r, o], W[r, m + o] = s, y
        self.count[r] += 1

    def directions(self, G):
        """-H g for each row g of G (nan for a row without pairs)."""
        m, W, Ri, YY, sy = _MEMORY, self.W, self.Ri, self.YY, self.sy
        k, new = np.arange(len(G)), (self.count - 1) % m
        gamma = (sy[k, new] / YY[k, new, new])[:, None]
        q = _matvec(W, G)                   # S g over Y g
        t = _matvec(Ri, q[:, :m])
        w = _matvec(Ri.transpose(0, 2, 1), sy * t + gamma * _matvec(
            YY, t) - gamma * q[:, m:])
        return -(gamma * G + _matvec(W.transpose(0, 2, 1),
                                     np.concatenate((w, -gamma * t), axis=1)))


def _descend(quot: _Quotient, U0, max_iter: int, gtol: float,
             block: int | None = None) -> _Descent:
    """L-BFGS in log coordinates from each row of the (K, S) stack ``U0``.

    Each row has its own pairs (kept when s.y > 1e-12 |s| |y|),
    direction, step, iteration count, stall anchor and status, so until
    it stops it follows exactly the path it follows alone.  The rows
    with stack id r form blocks r // ``block`` (one block without it),
    and each block keeps its lead: the least value any of its rows has
    reached, taken at the first evaluation and after every accepted step.
    A round tries one step per running row with one evaluation of value,
    density and gradient for all of them.  A trial with a finite gradient
    that meets the Armijo test (c1 = 1e-4) is accepted, and the row's
    next iteration starts at once: its stopping tests run and it gets a
    new direction; otherwise the step shrinks to the minimizer of the
    interpolating quadratic, clamped to [0.1, 0.5] of the step.  Without
    pairs a row steps along -g, first scaled by 1/max(1, |g|_inf); a
    quasi-Newton direction starts at unit step and gives way to -g if it
    does not descend.  Every running row goes through every test of a
    round: ``fresh`` marks the rows starting an iteration (every row at
    first, then those whose trial was accepted) and masks the stopping
    tests, the stall anchor and the new direction, g.d and step, so a row
    in its line search keeps its direction and step (the direction
    computed for it is thrown away); the trial is merged by the acceptance
    mask.  Masks select exact values, so no row's bits depend on another.
    The evaluator sees each trial stack with its rows' ids, so a stacked
    quotient evaluates every row with its own kind and alpha.  The state
    arrays hold the running rows only: a row's results are written out
    when it stops, and its state is dropped.

    Statuses, in order of precedence: "gradient" (gradient test met),
    "stalled" (the predicted decrease of the line search, an accepted
    step's gain or 25 iterations' progress fell below floating-point
    resolution; the iterate is then the best the arithmetic supports and
    counts as converged), "maxiter" (``max_iter`` iterations ran out) and
    "dominated": a row that starts an iteration with ``_MEMORY`` or more
    iterations done and more than 1e-3 max(1, |val|) above its block's
    lead retires, as in multi-level single-linkage (Rinnooy Kan & Timmer
    1987).  It holds the iterate its run alone has when cut there, and
    since other blocks never touch the lead, a block gets the same bits
    stacked or alone.
    """
    U = np.array(U0, dtype=float)
    K, n = U.shape
    value, rho_out, gnorm = np.empty(K), np.empty((K, n)), np.empty(K)
    status, trials = np.empty(K, dtype=int), np.empty(K, dtype=int)
    iters = np.empty(K, dtype=int)
    live = np.arange(K)                     # stack ids of the running rows
    size = block or K                       # stack id // size: the block
    lead = np.full(K, math.inf)             # least value per block
    with np.errstate(all="ignore"):         # inf/nan iterates are rejected
        val, rho, G = quot.evaluate(U, live)
        np.fmin.at(lead, live // size, val)
        pairs = _Pairs(K, n)
        D, gd, step = np.empty((K, n)), np.empty(K), np.empty(K)  # d, g.d
        its, anchor = np.zeros(K, dtype=int), val.copy()
        # the rows starting an iteration, and whether their step gained
        # nothing; every row starts one at first
        fresh, flat, rounds = np.ones(K, dtype=bool), False, 0
        while True:
            gmax = np.abs(G).max(axis=1)
            scale = np.fmax(1.0, np.abs(val))         # max(1, |val|)
            check = fresh & (its % 25 == 24)
            done = fresh & (gmax <= gtol * scale)
            stall = (fresh & flat) | (check & (anchor - val <= 1e-13 * scale))
            anchor = np.where(check, val, anchor)
            qn = pairs.count > 0
            d = np.where(qn[:, None], pairs.directions(G), -G)
            dg = _rowdot(G, d)
            bad = ~(dg < 0.0)
            d[bad], dg[bad] = -G[bad], -_rowdot(G[bad], G[bad])
            D, gd = np.where(fresh[:, None], d, D), np.where(fresh, dg, gd)
            step = np.where(fresh, np.where(qn, 1.0, 1.0 / np.fmax(1.0, gmax)),
                            step)
            # a predicted decrease below float resolution ends the row
            stop = ~(step * np.abs(gd) >= 1e-15 * scale)
            maxed = fresh & (its >= max_iter)
            # a row with a full memory left behind by its block's lead retires
            dom = (fresh & (its >= _MEMORY) & ~stop
                   & (val - lead[live // size] > 1e-3 * scale))
            stop |= done | stall | maxed | dom
            if stop.any():
                code = np.select((done, stall, maxed, dom), (0, 1, 2, 3), 1)
                out = live[stop]                # code indexes STATUSES
                value[out], rho_out[out], gnorm[out] = (val[stop], rho[stop],
                                                        gmax[stop])
                status[out], trials[out], iters[out] = (code[stop], rounds,
                                                        its[stop])
                keep = ~stop
                live, U, val, rho, G, D, gd, step, its, anchor = (
                    x[keep] for x in (live, U, val, rho, G, D, gd, step, its,
                                      anchor))
                pairs.compact(keep)
                if live.size == 0:
                    break
            U_try = U + step[:, None] * D
            v, rho_try, G_try = quot.evaluate(U_try, live)
            rounds += 1
            ok = (np.isfinite(v) & (v <= val + 1e-4 * step * gd)
                  & np.isfinite(G_try).all(axis=1))
            ds, dy = U_try - U, G_try - G
            sy = _rowdot(ds, dy)
            pairs.add(ok & (sy > 1e-12 * np.sqrt(_rowdot(ds, ds)
                                                 * _rowdot(dy, dy))),
                      ds, dy, sy)
            flat = val - v <= 1e-16 * np.fmax(1.0, np.abs(val))
            # a rejected row: minimizer of the quadratic through val, gd
            # and the trial
            quad = -gd * step * step / (2.0 * (v - val - step * gd))
            step = np.fmin(np.fmax(quad, 0.1 * step), 0.5 * step)
            U, rho, G = (np.where(ok[:, None], new, old) for new, old in
                         ((U_try, U), (rho_try, rho), (G_try, G)))
            val, its, fresh = np.where(ok, v, val), its + ok, ok
            np.fmin.at(lead, live // size, np.where(ok, v, math.inf))
    return _Descent(value, rho_out, gnorm, [STATUSES[c] for c in status],
                    trials, iters)


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
    alpha: float | None = None
    convergence: dict = field(default_factory=dict)


def _estimate(chain: FiniteChain, specs, opts: OptimizerOptions):
    """One estimate per (kind, alpha) spec, all descended as one stack,
    and the parts of spec i at estimate j's minimizer as entry (i, j).

    Every spec owns a block of ``opts.starts`` rows, in spec order,
    started from the same fields, so each row gets the bits its
    estimate's own descent gives.  Two fixed-density evaluations follow:
    the gap rays join every block's candidates, then every quotient is
    taken at every block's best as is and rescaled to pi-mean one, with
    the power quotient at alpha = 1 + 1e-4 (mlsi's alpha -> 1 reading,
    nan where its entropy is not positive).  Blocks finish in spec order,
    raising if no start converged, then if either recheck entropy is not
    positive.  A stack over ``STACK_MAX_BYTES`` raises
    :class:`SizeError` before any start is drawn.
    """
    # a row holds its pairs (2 _MEMORY floats per state, R^{-1} and Y Y^T)
    # and about twenty working arrays of one float per state
    K, S, n = opts.starts, chain.n_states, len(specs)
    need = 8 * n * K * ((2 * _MEMORY + 20) * S + 2 * _MEMORY ** 2)
    if need > STACK_MAX_BYTES:
        raise SizeError(
            f"{K} starts need about {need / 2 ** 20:.0f} MiB of descent "
            f"stack, over the cap of {STACK_MAX_BYTES / 2 ** 20:.0f} MiB")
    f_gap = poincare_eigenvector(chain)
    starts, rays = _start_fields(chain, f_gap, opts), _gap_rays(chain, f_gap)
    run = _descend(_Quotient(chain, specs=specs, block=K),
                   np.tile(starts, (n, 1)), opts.max_iter, opts.tol, K)
    blocks = [run.block(slice(i * K, (i + 1) * K)) for i in range(n)]
    best = []       # (value, density) per block: the first least candidate
    for blk, num, den in zip(blocks, *_fixed_parts(chain, specs, rays)):
        cands = [(float(v), rho) for v, rho in zip(blk.value, blk.rho)
                 if math.isfinite(v)]
        cands += [(float(p / q), rho) for p, q, rho in zip(num, den, rays)
                  if q > 0.0 and math.isfinite(p)]
        best.append(min(cands, key=lambda c: c[0]))
    # column j (n + j): block j's best (rescaled); row n: alpha -> 1
    mins = np.array([rho for _, rho in best])
    mins = np.vstack((mins, mins / _rowsum(chain.pi * mins)[:, None]))
    num, den = _fixed_parts(chain, [*specs, ("beckner", 1.0 + 1e-4)], mins)
    ests = []
    for i, ((kind, alpha), blk, (val, rho)) in enumerate(
            zip(specs, blocks, best)):
        best_gnorm = float(np.fmin.reduce(blk.gnorm, initial=math.inf))
        status_counts = {s: blk.status.count(s) for s in STATUSES}
        n_conv = status_counts["gradient"] + status_counts["stalled"]
        if n_conv == 0:
            raise NumericalError(
                f"no start converged (best gradient norm {best_gnorm:.3g}); "
                f"best quotient found {val:.17g}")
        minimizer = Density(rho)
        if not (den[i, i] > 0.0 and den[i, n + i] > 0.0):
            raise DomainError("entropy vanished at the evaluation point")
        recheck = float(num[i, i] / den[i, i])  # its quotient re-evaluated
        # spread of the final values over the converged starts
        v = blk.value[np.isfinite(blk.value)
                      & np.isin(blk.status, STATUSES[:2])]
        spread = (float((v.max() - v.min()) / max(1.0, abs(v.min())))
                  if v.size else math.nan)
        conv = {"converged_starts": n_conv, "starts": len(blk.status),
                "best_gradient_norm": best_gnorm,
                "value_recheck_gap": abs(recheck - val),
                "renormalization_gap": abs(
                    float(num[i, n + i] / den[i, n + i]) - recheck),
                "status_counts": status_counts, "value_spread": spread,
                "evaluations": blk.evaluations, "rounds": blk.rounds}
        if kind == "mlsi":
            one = float(num[n, i] / den[n, i]) if den[n, i] > 0.0 else math.nan
            conv.update(alpha_to_one_gap=abs(one - val)
                        / max(abs(val), 1e-300), alpha_to_one_value=one)
        ests.append(ConstantEstimate(kind, val, minimizer, alpha, conv))
    return ests, num[:n, :n], den[:n, :n]


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
    estimates: list[ConstantEstimate]   # each alpha, then mlsi and lsi


def constants_report(chain: FiniteChain, alphas,
                     spec: ModelSpec | None = None,
                     opts: OptimizerOptions | None = None) -> ConstantsTable:
    """One row per alpha plus the log-case constants and their orderings.

    Every estimate (each alpha, then mlsi and lsi) runs in one stacked
    descent, one block each in that order; mlsi's alpha -> 1 reading
    gives ``mlsi_continuity_gap``.  Each constant is the least of its
    estimate and its quotient at every estimate's minimizer, from the
    evaluation that rechecks them, so the pointwise relations (the
    log-production dominates four times the square-root production,
    every quotient linearizes to 2 lambda_P) transfer to the reported
    estimates.  The orderings allow a slack of 1e-6.
    """
    tol = 1e-6
    opts = opts or OptimizerOptions()
    lam_p = spectral_gap(chain)
    distinct = list(dict.fromkeys(alphas))
    for a in distinct:
        check_alpha(a)
    specs = [("beckner", a) for a in distinct] + [("mlsi", None),
                                                  ("lsi", None)]
    ests, num, den = _estimate(chain, specs, opts)

    # every quotient at every pooled minimizer
    if np.any(den <= 0.0):
        raise DomainError("entropy vanished at the evaluation point")
    vals = (num / den).tolist()
    *lam_b, lam_m, lam_l = [min([e.value] + v) for e, v in zip(ests, vals)]
    beckner = dict(zip(distinct, lam_b))

    references, rows = {}, []
    global_ok = (4.0 * lam_l <= lam_m + tol) and (lam_m <= 2.0 * lam_p + tol)
    for a in alphas:
        val = beckner[a]
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
        mlsi_continuity_gap=ests[-2].convergence["alpha_to_one_gap"],
        references=references,
        ordering_pass=global_ok and all(r.ordering_pass for r in rows),
        estimates=ests)
