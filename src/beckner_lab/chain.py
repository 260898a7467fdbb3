"""Finite reversible Markov chains in move/rate form.

A chain is a finite state set S, a finite set G of moves (total maps
S -> S with an inverse-move table), jump rates c : S x G -> [0, inf) and
a strictly positive invariant probability vector pi.  The generator acts
as

    L f(eta) = sum_g c(eta, g) (f(g eta) - f(eta)).

Every chain is reversible: construction checks detailed balance
pi(eta) c(eta, g) = pi(g eta) c(g eta, g^{-1}) at each (state, move)
pair, so the Dirichlet form has the symmetric gradient representation

    E(f, g) = 1/2 pi[ sum_g c (grad_g f)(grad_g g) ] = -pi[f L g].

States carry opaque canonical keys (ints, tuples, ...) hashed into an
index map once at construction; all numerical work runs on index arrays.
Dense |S| x |S| matrices are materialized lazily and only below a desk
scale cap.

A density's functionals live here too: the entropy, the Dirichlet form
(whose E(phi'(rho), rho) is the entropy production) and d2/dt2 Ent.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .entropy import ConvexEntropy
from .errors import (DomainError, ReversibilityError, SizeError)

DENSE_CAP = 20000
DENSITY_FLOOR = 1e-12


class FiniteChain:
    """Immutable finite chain; arrays are write-protected after init."""

    def __init__(self, keys, move_names, targets, inverse, rates, pi,
                 meta=None):
        self.keys = tuple(keys)
        self.move_names = tuple(str(m) for m in move_names)
        self.targets = np.ascontiguousarray(targets, dtype=np.intp)
        self.inverse = np.ascontiguousarray(inverse, dtype=np.intp)
        self.rates = np.ascontiguousarray(rates, dtype=float)
        pi = np.ascontiguousarray(pi, dtype=float)
        if not (np.all(np.isfinite(pi)) and np.all(pi > 0.0)):
            raise DomainError(
                "invariant measure must be finite and strictly positive")
        total = pi.sum()
        # renormalize only when needed so serialization round-trips bit-exact
        self.pi = pi if abs(total - 1.0) <= 1e-15 else pi / total
        self.meta = dict(meta or {})
        self._dense = None
        self._spectral = None
        self._validate()
        for arr in (self.targets, self.inverse, self.rates, self.pi):
            arr.setflags(write=False)

    # -- shape ---------------------------------------------------------------

    @property
    def n_states(self) -> int:
        return len(self.keys)

    @property
    def n_moves(self) -> int:
        return len(self.move_names)

    def _validate(self):
        S, G = self.n_states, self.n_moves
        if self.targets.shape != (G, S):
            raise DomainError("targets must have shape (n_moves, n_states)")
        if self.rates.shape != (S, G):
            raise DomainError("rates must have shape (n_states, n_moves)")
        if self.pi.shape != (S,) or abs(self.pi.sum() - 1.0) > 1e-12:
            raise DomainError("pi must be a probability vector")
        if not (np.all(np.isfinite(self.rates)) and np.all(self.rates >= 0.0)):
            raise DomainError("rates must be finite and nonnegative")
        if np.any(self.targets < 0) or np.any(self.targets >= S):
            raise DomainError("a move leads outside the state space")
        if self.inverse.shape != (G,) or np.any(self.inverse < 0) \
                or np.any(self.inverse >= G):
            raise DomainError("inverse table must list one move per move")
        # inverse consistency wherever the rate is positive; the witness is
        # the first failure in move-then-state order
        bad = np.argwhere((self.targets[self.inverse[:, None], self.targets]
                           != np.arange(S)) & (self.rates.T > 0.0))
        if len(bad):
            g, i = bad[0]
            raise DomainError(
                f"inverse of move {self.move_names[g]!r} fails at state "
                f"{self.keys[i]!r}")
        # detailed balance pi(eta) c(eta, g) = pi(g eta) c(g eta, g^{-1}) to
        # 1e-10 of the largest flow; a zero-rate move that fixes its state
        # carries no constraint
        tg = self.targets.T
        flow = self.pi[:, None] * self.rates
        back = self.pi[tg] * self.rates[tg, self.inverse]
        active = (self.rates > 0.0) | ((tg != np.arange(S)[:, None])
                                       & (back > 0.0))
        gap = np.where(active, np.abs(flow - back), 0.0)
        if gap.max(initial=0.0) > 1e-10 * max(flow.max(initial=0.0), 1e-300):
            i, g = np.unravel_index(np.argmax(gap), gap.shape)
            raise ReversibilityError(
                f"detailed balance fails at state {self.keys[i]!r}, move "
                f"{self.move_names[g]!r}: flow {flow[i, g]:.17g} there, "
                f"{back[i, g]:.17g} back")

    # -- operators -------------------------------------------------------------

    def apply_generator(self, f):
        """(L f)(eta) = sum_g c(eta, g)(f(g eta) - f(eta)); L 1 = 0.

        ``f`` is one function (shape (S,)) or a (..., S) stack of rows;
        the moves are added in move order, so each row gets the bits of
        its one-row call.
        """
        f = np.asarray(f, dtype=float)
        if f.ndim == 0 or f.shape[-1] != self.n_states:
            raise DomainError("f must assign one value per state")
        out = np.zeros_like(f)
        for g in range(self.n_moves):
            out += self.rates[:, g] * (np.take(f, self.targets[g], axis=-1) - f)
        return out

    def dense_generator(self) -> np.ndarray:
        if self.n_states > DENSE_CAP:
            raise SizeError(
                f"dense generator capped at {DENSE_CAP} states "
                f"(requested {self.n_states})")
        if self._dense is None:
            S = self.n_states
            Q = np.zeros((S, S))
            rows = np.arange(S)
            for g in range(self.n_moves):
                np.add.at(Q, (rows, self.targets[g]), self.rates[:, g])
                Q[rows, rows] -= self.rates[:, g]
            Q.setflags(write=False)
            self._dense = Q
        return self._dense

    def symmetrized_spectrum(self):
        """Eigen-decomposition of D^{1/2} L D^{-1/2}, D = diag(pi).

        Returns (eigenvalues ascending of -L, orthonormal eigenvectors in
        the symmetrized basis, sqrt(pi)).  The symmetrization is exact
        because the chain is reversible (checked at construction).
        """
        if self._spectral is None:
            Q = self.dense_generator()
            d = np.sqrt(self.pi)
            M = Q * d[:, None] / d[None, :]
            M = 0.5 * (M + M.T)
            w, U = np.linalg.eigh(-M)
            self._spectral = (w, U, d)
        return self._spectral


@dataclass(frozen=True)
class Density:
    """Strictly positive function on states with pi-mean one.

    Only positivity is checked here, since a density carries no chain.
    The pi-mean is enforced by the consumers whose results depend on it:
    ``dynamics.evolve`` and ``fokker_planck.discrete_power_inequality``
    raise ``DomainError`` when it is off one by more than 1e-9.  It is
    array-like: ``np.asarray(rho, float)`` is its read-only ``values``.
    """
    values: np.ndarray

    def __post_init__(self):
        v = np.ascontiguousarray(self.values, dtype=float)
        if np.any(v <= 0.0):
            raise DomainError("density must be strictly positive")
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    def __array__(self, dtype=None, copy=None):    # numpy < 2 passes no copy
        v = self.values.astype(float if dtype is None else dtype, copy=False)
        return v.copy() if copy else v


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def dirichlet_form(chain: FiniteChain, f, g):
    """E(f, g) = 1/2 pi[sum_g c grad_g f grad_g g] = -pi[f Lg].

    One pair of functions gives a float, a pair of (T, S) stacks a (T,)
    array: each move's terms are summed per row (``np.add.reduce``) and
    added in move order, then halved once, so each row gets the bits of
    its one-pair call.
    """
    f = np.asarray(f, dtype=float)
    g = np.asarray(g, dtype=float)
    total = np.zeros(f.shape[:-1])
    for mv in range(chain.n_moves):
        tg = chain.targets[mv]
        total += np.add.reduce(chain.pi * chain.rates[:, mv]
                               * (f[..., tg] - f) * (g[..., tg] - g), axis=-1)
    total *= 0.5
    return total if total.ndim else float(total)


def entropy(chain: FiniteChain, e: ConvexEntropy, rho):
    """pi[phi(rho)] >= 0, vanishing iff rho is identically one.

    One density (a ``Density`` or a 1-D row) gives a float, a (T, S)
    stack of rows a (T,) array.  Each row is summed on its own
    (``np.add.reduce`` along the last axis), so it gets the bits of its
    one-density call.
    """
    r = np.asarray(rho, float)
    out = np.add.reduce(chain.pi * e.eval(r), axis=-1)
    return out if out.ndim else float(out)


def entropy_second_derivative(chain: FiniteChain, e: ConvexEntropy, rho):
    """pi[L phi'(rho) L rho + phi''(rho)(L rho)^2], which is d2/dt2 Ent
    along the flow and the left side of the curvature inequality.

    One density (a ``Density`` or a 1-D row) gives a float, a (K, S)
    stack a (K,) array, each row with the bits of its one-density call.
    """
    r = np.asarray(rho, float)
    Lr = chain.apply_generator(r)
    Lf = chain.apply_generator(e.d1(r))
    out = np.add.reduce(chain.pi * (Lf * Lr + e.d2(r) * Lr * Lr), axis=-1)
    return out if out.ndim else float(out)


def normalize_density(chain: FiniteChain, raw) -> Density:
    """Clamp below ``DENSITY_FLOOR`` and rescale to pi-mean one."""
    raw = np.asarray(raw, dtype=float)
    if raw.shape != (chain.n_states,):
        raise DomainError("raw vector must assign one value per state")
    if np.any(raw < 0.0) or np.any(~np.isfinite(raw)):
        raise DomainError("raw vector must be finite and nonnegative")
    if np.all(raw == 0.0):
        raise DomainError("raw vector must not be identically zero")
    clamped = np.maximum(raw, DENSITY_FLOOR)
    mean = float(np.sum(chain.pi * clamped))
    return Density(clamped / mean)


def random_density(chain: FiniteChain, rng: np.random.Generator,
                   amplitude: float) -> Density:
    """Log-space Gaussian perturbation of the flat density, normalized."""
    raw = np.exp(amplitude * rng.standard_normal(chain.n_states))
    return normalize_density(chain, raw)


# ---------------------------------------------------------------------------
# JSON export / import
# ---------------------------------------------------------------------------

def chain_to_json(chain: FiniteChain, indent: int | None = None) -> str:
    """Serialize; floats use shortest round-trip ``repr`` (<= 17 digits)."""
    triples = []
    for g in range(chain.n_moves):
        active = np.flatnonzero(chain.rates[:, g])
        for i in active:
            triples.append([int(i), g, float(chain.rates[i, g])])
    doc = {
        "states": [_key_out(k) for k in chain.keys],
        "pi": [float(p) for p in chain.pi],
        "moves": [
            {"name": chain.move_names[g],
             "inverse": chain.move_names[int(chain.inverse[g])],
             "map": [int(t) for t in chain.targets[g]]}
            for g in range(chain.n_moves)
        ],
        "rates": triples,
        "meta": _meta_out(chain.meta),
    }
    return json.dumps(doc, indent=indent)


def chain_from_json(text: str) -> FiniteChain:
    doc = json.loads(text)
    keys = [_key_in(k) for k in doc["states"]]
    names = [m["name"] for m in doc["moves"]]
    name_to_idx = {n: i for i, n in enumerate(names)}
    targets = np.array([m["map"] for m in doc["moves"]], dtype=np.intp)
    inverse = np.array([name_to_idx[m["inverse"]] for m in doc["moves"]],
                       dtype=np.intp)
    rates = np.zeros((len(keys), len(names)))
    for i, g, v in doc["rates"]:
        rates[i, g] = v
    return FiniteChain(keys, names, targets, inverse, rates,
                       np.array(doc["pi"]), meta=doc.get("meta", {}))


def _key_out(k):
    if isinstance(k, tuple):
        return list(k)
    return k


def _key_in(k):
    if isinstance(k, list):
        return tuple(k)
    return k


def _meta_out(meta: dict) -> dict:
    out = {}
    for k, v in meta.items():
        if isinstance(v, np.ndarray):
            out[k] = v.tolist()
        elif isinstance(v, (np.floating, np.integer)):
            out[k] = v.item()
        elif isinstance(v, (str, int, float, bool, type(None), list, dict)):
            out[k] = v
    return out
