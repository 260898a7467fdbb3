"""The auxiliary function R, the remainder Gamma, and their identities.

For each chain family an auxiliary weight R(eta, gamma, delta) over
state/move/move triples satisfies three structural properties:

(i)   symmetry in the two moves;
(ii)  the adjointness identity
      pi[sum R(eta,g,d) psi(eta,g,d)] = pi[sum R(eta,g,d) psi(g eta, g^{-1}, d)]
      for all bounded psi;
(iii) moves commute, g d eta = d g eta, wherever R > 0.

The remainder Gamma(eta,g,d) = c(eta,g) c(eta,d) - R(eta,g,d) carries the
curvature content: for any positive density rho and admissible entropy,

    pi[L phi'(rho) L rho + phi''(rho)(L rho)^2]
        >= pi[sum Gamma (grad_g phi'(rho) grad_d rho
                         + phi''(rho) grad_g rho grad_d rho)],

and the decay constant certified at rho is that right side divided by
the entropy production E(phi'(rho), rho).  The left side (d2/dt2 Ent)
and the production are the chain's functionals, in ``chain``.

R is stored sparsely (COO over nonzero triples), built from the chain
alone on the c c > 0 support, by the family its ``meta["model"]``
records; all checks are vectorized gathers over the support, summed in
a fixed state-major, move-lexicographic order so residuals are
reproducible.  The structure checks are exact: each triple is looked up
against its partner by its sorted linear key.

The pointwise checks take one density (or function) or a (K, S) stack
of rows.  Rows are gathered with ``np.take(., idx, axis=-1)``, which
keeps them C-contiguous, and summed with ``np.add.reduce(., axis=-1)``,
so each row gets the bits of its one-density call.  (A fancy index
``A[:, idx]`` returns a column-major copy, whose row sums round
differently.)  Callers cut long stacks into row chunks of at most
``STACK_ELEMENTS`` elements per array with ``row_chunks``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .chain import FiniteChain, entropy_second_derivative
from .entropy import ConvexEntropy
from .errors import CapabilityError, DomainError
from .reporting import CheckReport, VerificationReport

# elements in the widest array of one row chunk of a stacked check (256 KiB
# of floats); a row wider than this runs alone, so large chains hold one
# row at a time.  It fits verify-bochner's 20 densities on every acceptance
# chain in one chunk; 2^16 gained no time there and lifted peak RSS.
STACK_ELEMENTS = 2 ** 15


def row_chunks(n_rows: int, row_elements: int) -> list[slice]:
    """Consecutive slices of ``n_rows`` rows, each of at most
    ``STACK_ELEMENTS`` elements when a row has ``row_elements`` (and at
    least one row)."""
    step = max(1, STACK_ELEMENTS // max(1, row_elements))
    return [slice(k, min(k + step, n_rows)) for k in range(0, n_rows, step)]


@dataclass
class BochnerStructure:
    """Sparse R over (state, move, move) triples plus the derived Gamma.

    ``eta``/``gamma``/``delta``/``value`` list the nonzero R entries in
    state-major, move-lexicographic order without duplicates; the
    pointwise lookups (``at``) rely on that order and raise
    ``DomainError`` when a structure breaks it.  The Gamma support (all
    triples with c(eta,g) c(eta,d) > 0) is materialized lazily on first
    use.
    """
    eta: np.ndarray
    gamma: np.ndarray
    delta: np.ndarray
    value: np.ndarray
    _gamma_coo: tuple | None = field(default=None, repr=False)

    @property
    def nnz(self) -> int:
        return len(self.value)

    def r_dense(self, chain: FiniteChain) -> np.ndarray:
        """Dense (S, G, G) view of R for inspection; no check uses it."""
        R = np.zeros((chain.n_states, chain.n_moves, chain.n_moves))
        R[self.eta, self.gamma, self.delta] = self.value
        return R

    def at(self, chain: FiniteChain, keys: np.ndarray) -> np.ndarray:
        """R at the linear triple keys (eta G + gamma) G + delta, zero off
        the stored support."""
        S, G = chain.n_states, chain.n_moves
        own = (self.eta * G + self.gamma) * G + self.delta
        inside = all(np.all((0 <= a) & (a < n)) for a, n in
                     ((self.eta, S), (self.gamma, G), (self.delta, G)))
        if not inside or np.any(np.diff(own) <= 0):
            raise DomainError("R triples must be in range and sorted "
                              "state-major, move-lexicographic, without "
                              "duplicates")
        if self.nnz == 0:
            return np.zeros(len(keys))
        pos = np.searchsorted(own, keys)
        np.minimum(pos, self.nnz - 1, out=pos)
        out = np.asarray(self.value, dtype=float)[pos]
        out[own[pos] != keys] = 0.0
        return out

    def gamma_coo(self, chain: FiniteChain):
        """COO triples of Gamma = c c - R over the support of c c > 0.

        Cached per structure; a structure belongs to the chain it was
        built for, which the cache enforces.
        """
        if self._gamma_coo is not None and self._gamma_coo[0] is not chain:
            self._gamma_coo = None
        if self._gamma_coo is None:
            ii, gg, dd, cc = _cc_support(chain)
            G = chain.n_moves
            gam = self.at(chain, (ii * G + gg) * G + dd)
            np.subtract(cc, gam, out=gam)
            self._gamma_coo = (chain, ii, gg, dd, gam)
        return self._gamma_coo[1:]


def _cc_support(chain: FiniteChain):
    """(eta, gamma, delta, c(eta,g) c(eta,d)) over the triples where the
    product is positive, in state-major, move-lexicographic order."""
    act_i, act_g = np.nonzero(chain.rates > 0.0)    # state-major
    per_state = np.bincount(act_i, minlength=chain.n_states)
    reps = per_state[act_i]
    ii, gg = np.repeat(act_i, reps), np.repeat(act_g, reps)
    first = np.cumsum(per_state) - per_state     # where a state's moves start
    # entry j of the block of (eta, gamma) pairs it with the j-th active
    # move at eta
    shift = first[act_i] - (np.cumsum(reps) - reps)
    dd = act_g[np.repeat(shift, reps) + np.arange(len(ii))]
    cc = chain.rates[ii, gg]
    cc *= chain.rates[ii, dd]
    keep = cc > 0.0                 # a product of positive rates can underflow
    return ii[keep], gg[keep], dd[keep], cc[keep]


def r_function(chain: FiniteChain) -> BochnerStructure:
    """Construct the auxiliary function R of a chain's model family, read
    from ``chain.meta["model"]`` (which ``chain_from_json`` keeps).

    Nonzero triples, by family (rates written in the chain's units):

    * birth-death:  R(n,+,+) = a(n) a(n+1), R(n,-,-) = b(n) b(n-1),
      R(n,+,-) = R(n,-,+) = a(n) b(n);
    * zero-range:   R(eta, xy, uv) = c_x(eta_x) c_u(eta_u) / L^2 for
      x != u and c_x(eta_x) c_x(eta_x - 1) / L^2 for x = u;
    * Bernoulli-Laplace:  c(eta,xy) c(eta,uv) when the four sites are
      pairwise distinct, else 0;
    * random transposition:  4/(n^2 (n-1)^2) when the two transpositions
      are disjoint, else 0.

    The finite-volume chain reuses the birth-death construction.  Each
    family is evaluated on the triples with c(eta,g) c(eta,d) > 0, which
    hold every nonzero R; the nonzero values are kept in that
    state-major, move-lexicographic order.  A chain with no known model
    raises ``CapabilityError``.
    """
    kind = chain.meta.get("model")
    family = _FAMILIES.get(kind)
    if family is None:
        raise CapabilityError(f"no auxiliary function for variant {kind!r}")
    ii, gg, dd, cc = _cc_support(chain)
    value = family(chain, ii, gg, dd, cc)
    keep = value != 0.0
    return BochnerStructure(ii[keep], gg[keep], dd[keep], value[keep])


def _r_birth_death(chain, ii, gg, dd, cc):
    a = np.asarray(chain.meta["a"], dtype=float)
    b = np.asarray(chain.meta["b"], dtype=float)
    a_next = np.append(a[1:], 0.0)
    b_prev = np.concatenate([[0.0], b[:-1]])
    # column 2 gamma + delta, with move 0 up and move 1 down
    table = np.column_stack([a * a_next, a * b, a * b, b * b_prev])
    return table[ii, 2 * gg + dd]


def _r_zero_range(chain, ii, gg, dd, cc):
    occ = np.asarray(chain.meta["occupancy"], dtype=np.intp)
    table = np.asarray(chain.meta["rate_table"], dtype=float)
    src = np.array([x for x, _ in chain.meta["pairs"]])
    x, u = src[gg], src[dd]
    # x != u: product of the two standing rates; x = u: second factor at
    # one particle fewer on the shared source site
    return (table[x, occ[ii, x]] * table[u, occ[ii, u] - (x == u)]
            / int(chain.meta["L"]) ** 2)


def _disjoint(chain, gg, dd):
    """Whether the site pairs of moves gamma and delta share no site."""
    pairs = np.asarray(chain.meta["pairs"], dtype=np.intp)
    (x, y), (u, v) = pairs[gg].T, pairs[dd].T
    return (x != u) & (x != v) & (y != u) & (y != v)


def _r_bernoulli_laplace(chain, ii, gg, dd, cc):
    return cc * _disjoint(chain, gg, dd)


def _r_random_transposition(chain, ii, gg, dd, cc):
    n = int(chain.meta["n"])
    return _disjoint(chain, gg, dd) * (4.0 / (n ** 2 * (n - 1) ** 2))


_FAMILIES = {"birth_death": _r_birth_death,
             "fokker_planck_fv": _r_birth_death,
             "zero_range": _r_zero_range,
             "bernoulli_laplace": _r_bernoulli_laplace,
             "random_transposition": _r_random_transposition}


# ---------------------------------------------------------------------------
# structural checks
# ---------------------------------------------------------------------------

def _triple(chain: FiniteChain, i, g, d) -> dict:
    return {"state": chain.keys[int(i)],
            "moves": (chain.move_names[int(g)], chain.move_names[int(d)])}


def verify_assumption(chain: FiniteChain, bs: BochnerStructure,
                      tol: float = 1e-10) -> VerificationReport:
    """Check symmetry, adjointness and commutation of R, exactly and
    pointwise on its support.

    (i) Each triple is compared with its (eta, delta, gamma) partner.
    (ii) Let w = pi R and T(eta, g, d) = (g eta, g^-1, d), an involution
    wherever c(eta, g) > 0.  The adjointness identity holds for every
    bounded psi exactly when w(x) = w(Tx) on the support; the residual
    is max |w(x) - w(Tx)| / sum |w|.
    (iii) g d eta = d g eta on the support, on state indices.

    The witness of (i) and (ii) is the first worst triple, of (iii) the
    first failing one.
    """
    G = chain.n_moves
    ii, gg, dd = bs.eta, bs.gamma, bs.delta
    report = VerificationReport()

    def add(name, gap, scale, tolerance):
        worst = float(gap.max(initial=0.0))
        passed = worst <= tolerance * scale
        k = 0 if passed else int(np.argmax(gap))
        report.add(CheckReport(name, passed, worst / scale, tolerance,
                               witness=None if passed else
                               _triple(chain, ii[k], gg[k], dd[k])))

    add("symmetry", np.abs(bs.value - bs.at(chain, (ii * G + dd) * G + gg)),
        1.0, 0.0)
    tg = chain.targets[gg, ii]          # gamma eta
    w = chain.pi[ii] * bs.value
    w_moved = chain.pi[tg] * bs.at(chain, (tg * G + chain.inverse[gg]) * G
                                   + dd)
    add("adjointness", np.abs(w - w_moved),
        max(float(np.sum(np.abs(w))), 1e-300), tol)
    bad = np.flatnonzero(chain.targets[gg, chain.targets[dd, ii]]
                         != chain.targets[dd, tg])
    report.add(CheckReport(
        "commutation", len(bad) == 0, float(len(bad)), 0.0,
        witness=None if len(bad) == 0 else
        _triple(chain, ii[bad[0]], gg[bad[0]], dd[bad[0]])))
    return report


def bochner_identity_check(chain: FiniteChain, bs: BochnerStructure,
                           chi, psi, rho, e: ConvexEntropy):
    """Two sides of the summation-by-parts identity

        pi[sum R beta(eta, d eta) grad_d chi grad_g psi]
        = 1/4 pi[sum R grad_g(beta(eta, d eta) grad_d chi)
                       grad_d grad_g psi]

    with the weight beta(x, y) = theta(rho(x), rho(y)), theta the mean
    function of ``e``, which is symmetric bit for bit.  ``chi``, ``psi``
    and ``rho`` are functions on states (``rho`` also a ``Density``), or
    (K, S) stacks with one function per row.

    Returns |lhs - rhs| scaled by the summed term magnitudes of both
    sides: a float for one function, a (K,) array for a stack, each row
    with the bits of its one-function call.
    """
    chi = np.asarray(chi, dtype=float)
    psi = np.asarray(psi, dtype=float)
    r = np.asarray(rho, float)
    ii, gg, dd, vv = bs.eta, bs.gamma, bs.delta, bs.value
    g_eta = chain.targets[gg, ii]
    d_eta = chain.targets[dd, ii]
    dg_eta = chain.targets[dd, g_eta]          # delta gamma eta

    def at(f, idx):
        return np.take(f, idx, axis=-1)

    b_here = e.theta(at(r, ii), at(r, d_eta))
    b_moved = e.theta(at(r, g_eta), at(r, dg_eta))
    w = chain.pi[ii] * vv
    grad_d_chi = at(chi, d_eta) - at(chi, ii)
    grad_g_psi = at(psi, g_eta) - at(psi, ii)
    lhs_terms = w * b_here * grad_d_chi * grad_g_psi
    lhs = np.add.reduce(lhs_terms, axis=-1)

    F_here = b_here * grad_d_chi
    F_moved = b_moved * (at(chi, dg_eta) - at(chi, g_eta))
    grad_g_F = F_moved - F_here
    # grad_d of (eta -> grad_g psi(eta))
    grad_dg_psi = (at(psi, chain.targets[gg, d_eta]) - at(psi, d_eta)) \
        - grad_g_psi
    rhs_terms = 0.25 * w * grad_g_F * grad_dg_psi
    rhs = np.add.reduce(rhs_terms, axis=-1)

    scale = np.maximum(np.add.reduce(np.abs(lhs_terms), axis=-1)
                       + np.add.reduce(np.abs(rhs_terms), axis=-1), 1e-300)
    res = np.abs(lhs - rhs) / scale
    return res if res.ndim else float(res)


def identity_3id_check(chain: FiniteChain, bs: BochnerStructure,
                       rho, e: ConvexEntropy,
                       samples: int = 200, seed: int = 0):
    """Pointwise second-gradient identity at sampled support triples.

    With psi = phi'(rho) and hat(eta, xi) = theta(rho(eta), rho(xi)):

        grad_g hat(eta, d eta) (grad_d psi)^2
          + grad_g(hat(eta, d eta) grad_d psi) grad_d grad_g psi
        = hat(g eta, g d eta)(grad_g grad_d psi)^2
          - hat(eta, d eta) grad_d psi(g eta) grad_d psi(eta)
          + hat(g eta, d g eta) grad_d psi(g eta) grad_d psi(eta).

    Returns the maximum residual scaled by each triple's term sizes: a
    float for one density (a ``Density`` or 1-D row), a (K,) array for a
    (K, S) stack, whose row k samples its triples with seed ``seed + k``.
    """
    if samples < 1:
        raise DomainError("samples must be >= 1")
    r = np.asarray(rho, float)
    stack = np.atleast_2d(r)
    if bs.nnz == 0:
        return np.zeros(len(stack)) if r.ndim == 2 else 0.0
    take = min(samples, bs.nnz)
    sel = np.array([np.random.default_rng(seed + k).choice(
        bs.nnz, size=take, replace=False) for k in range(len(stack))])
    ii, gg, dd = bs.eta[sel], bs.gamma[sel], bs.delta[sel]

    psi = e.d1(stack)
    g_eta = chain.targets[gg, ii]
    d_eta = chain.targets[dd, ii]
    gd_eta = chain.targets[gg, d_eta]     # gamma delta eta
    dg_eta = chain.targets[dd, g_eta]     # delta gamma eta

    def at(f, idx):
        return np.take_along_axis(f, idx, axis=-1)

    hat = e.theta(at(stack, ii), at(stack, d_eta))
    hat_g = e.theta(at(stack, g_eta), at(stack, gd_eta))
    hat_dg = e.theta(at(stack, g_eta), at(stack, dg_eta))

    grad_d_psi = at(psi, d_eta) - at(psi, ii)
    grad_d_psi_g = at(psi, dg_eta) - at(psi, g_eta)
    grad_dg = (at(psi, gd_eta) - at(psi, d_eta)) - (at(psi, g_eta)
                                                    - at(psi, ii))

    # grad_g of (eta -> hat(eta, d eta)) lands at hat(g eta, d g eta);
    # on the R-support the moves commute so hat_dg and hat_g coincide
    lhs = ((hat_dg - hat) * grad_d_psi ** 2
           + (hat_dg * grad_d_psi_g - hat * grad_d_psi) * grad_dg)
    rhs = (hat_g * (grad_d_psi_g - grad_d_psi) ** 2
           - hat * grad_d_psi_g * grad_d_psi
           + hat_dg * grad_d_psi_g * grad_d_psi)
    scale = (np.abs(lhs) + np.abs(hat_g * grad_dg ** 2)
             + np.abs(hat * grad_d_psi_g * grad_d_psi)
             + np.abs(hat_dg * grad_d_psi_g * grad_d_psi) + 1e-300)
    out = np.max(np.abs(lhs - rhs) / scale, axis=-1)
    return out if r.ndim == 2 else float(out[0])


# ---------------------------------------------------------------------------
# the key inequality
# ---------------------------------------------------------------------------

def proposition_sides(chain: FiniteChain, bs: BochnerStructure,
                      e: ConvexEntropy, rho):
    """(lhs, rhs) of the curvature inequality

        pi[L phi'(rho) L rho + phi''(rho)(L rho)^2]
        >= pi[sum Gamma (grad_g phi'(rho) grad_d rho
                         + phi''(rho) grad_g rho grad_d rho)].

    One density (a ``Density`` or a 1-D row) gives two floats, a (K, S)
    stack two (K,) arrays, each row with the bits of its one-density call.
    """
    r = np.asarray(rho, float)
    lhs = entropy_second_derivative(chain, e, r)
    f = e.d1(r)
    ii, gg, dd, gam = bs.gamma_coo(chain)
    g_eta = chain.targets[gg, ii]
    d_eta = chain.targets[dd, ii]
    r_here = np.take(r, ii, axis=-1)
    grad_g_r = np.take(r, g_eta, axis=-1) - r_here
    grad_d_r = np.take(r, d_eta, axis=-1) - r_here
    grad_g_f = np.take(f, g_eta, axis=-1) - np.take(f, ii, axis=-1)
    term = grad_g_f * grad_d_r + e.d2(r_here) * grad_g_r * grad_d_r
    rhs = np.add.reduce(chain.pi[ii] * gam * term, axis=-1)
    return (lhs, rhs) if rhs.ndim else (lhs, float(rhs))
