"""Spectral gap and variational constant estimation."""

import functools

import numpy as np
import pytest

import beckner_lab as bl
from beckner_lab import DegeneracyError, NumericalError, constants
from beckner_lab.chain import DENSITY_FLOOR
from beckner_lab.constants import (STATUSES, OptimizerOptions, _descend,
                                   _estimate, _fixed_parts, _gap_rays,
                                   _Quotient, _start_fields,
                                   poincare_eigenvector, quotient_value)


def alone(chain, kind, alpha=None, opts=OptimizerOptions()):
    """The estimate of one (kind, alpha) descended as a stack of its own."""
    return _estimate(chain, [(kind, alpha)], opts)[0][0]


def complete_graph_chain(m, r):
    """Uniform rate r between every pair of m states (gap = m r)."""
    pairs = [(i, j) for i in range(m) for j in range(i + 1, m)]
    targets = np.empty((len(pairs), m), dtype=np.intp)
    rates = np.zeros((m, len(pairs)))
    for k, (i, j) in enumerate(pairs):
        tgt = np.arange(m)
        tgt[i], tgt[j] = j, i
        targets[k] = tgt
        rates[i, k] = rates[j, k] = r
    return bl.FiniteChain(list(range(m)), [f"({i},{j})" for i, j in pairs],
                          targets, np.arange(len(pairs)), rates,
                          np.full(m, 1.0 / m))


def scan_two_state_quotient(chain, kind, n=200001):
    """1-D brute-force scan over rho = (1 + x, 1 - x)/mean, as one stack
    (normalized per row as ``normalize_density`` does)."""
    xs = np.linspace(-0.999, 0.999, n)
    xs = xs[np.abs(xs) > 1e-6]
    raw = np.column_stack((1.0 + xs, 1.0 - xs))
    rho = raw / np.add.reduce(chain.pi * raw, axis=-1)[:, None]
    return float(quotient_value(chain, kind, None, rho).min())


class TestSpectralGap:
    def test_two_state(self, two_state):
        assert bl.spectral_gap(two_state) == pytest.approx(2.0, rel=1e-12)

    def test_complete_graph(self):
        for m, r in ((4, 0.7), (6, 1.3)):
            assert bl.spectral_gap(complete_graph_chain(m, r)) == pytest.approx(
                m * r, rel=1e-12)

    def test_double_oracle(self, rt3, rt4):
        for chain in (rt3, rt4):
            gap = bl.spectral_gap(chain)
            # oracle 1: eigenvalues of the plain dense generator
            ev = np.linalg.eigvals(chain.dense_generator())
            nonzero = np.sort(-np.real(ev))
            oracle1 = nonzero[nonzero > 1e-10][-1] if False else \
                np.sort(nonzero[nonzero > 1e-10])[0]
            assert gap == pytest.approx(oracle1, abs=1e-8)
            # oracle 2: Rayleigh quotient at the gap eigenvector through
            # the Dirichlet-form code path
            f = poincare_eigenvector(chain)
            ray = bl.dirichlet_form(chain, f, f) / float(
                np.sum(chain.pi * f * f))
            assert gap == pytest.approx(ray, abs=1e-8)

    def test_reducible_detected(self):
        frozen = bl.FiniteChain([0, 1], ["swap"], np.array([[1, 0]]),
                                np.array([0]), np.array([[0.0], [0.0]]),
                                np.array([0.5, 0.5]))
        with pytest.raises(DegeneracyError):
            bl.spectral_gap(frozen)


class TestBecknerConstant:
    def test_alpha_two_equals_twice_gap(self, chains):
        for name, chain in chains.items():
            est = alone(chain, "beckner", 2.0)
            gap = bl.spectral_gap(chain)
            assert est.value == pytest.approx(2.0 * gap, rel=1e-6), name

    def test_bracketed_by_random_search(self, rt3):
        est = alone(rt3, "beckner", 1.5)
        assert 8.0 / 6.0 - 1e-9 <= est.value <= 2.0 * bl.spectral_gap(rt3) + 1e-6
        # the densities random_density draws for k = 0, 1, ... with
        # amplitude (0.1, 1.0, 3.0)[k % 3], as one stack
        rng = np.random.default_rng(0)
        amp = np.resize([0.1, 1.0, 3.0], 200000)[:, None]
        raw = np.maximum(np.exp(amp * rng.standard_normal(
            (200000, rt3.n_states))), DENSITY_FLOOR)
        rho = raw / np.add.reduce(rt3.pi * raw, axis=-1)[:, None]
        search = quotient_value(rt3, "beckner", 1.5, rho).min()
        assert est.value <= search + 1e-9

    def test_linearization_limit(self, bd8):
        # quotient at 1 + eps f tends to 2 E(f,f)/Var(f) = 2 lambda_P
        f = poincare_eigenvector(bd8)
        rho = bl.normalize_density(bd8, 1.0 + 1e-5 * f)
        val = quotient_value(bd8, "beckner", 1.5, rho)
        assert val == pytest.approx(2.0 * bl.spectral_gap(bd8), rel=1e-4)

    def test_optimizer_validity(self, rt4):
        est = alone(rt4, "beckner", 1.5)
        assert est.convergence["value_recheck_gap"] <= 1e-12 * max(1.0, est.value)
        assert est.convergence["renormalization_gap"] <= 1e-12 * max(1.0, est.value)
        assert est.convergence["converged_starts"] >= 1

    def test_status_counts_sum_to_starts(self, rt4):
        opts = OptimizerOptions(starts=8)
        for est in (alone(rt4, "beckner", 1.5, opts),
                    alone(rt4, "lsi", opts=opts)):
            conv = est.convergence
            counts = conv["status_counts"]
            assert set(counts) == set(STATUSES)
            assert sum(counts.values()) == conv["starts"] == 8
            assert conv["converged_starts"] == (counts["gradient"]
                                                + counts["stalled"])
            assert conv["evaluations"] > conv["rounds"] > 0

    def test_value_spread_over_converged_starts(self, rt4):
        opts = OptimizerOptions(starts=8)
        est = alone(rt4, "beckner", 1.5, opts)
        run = _descend(_Quotient(rt4, [("beckner", 1.5)]),
                       _start_fields(rt4, poincare_eigenvector(rt4), opts),
                       opts.max_iter, opts.tol)
        conv = np.isin(run.status, ["gradient", "stalled"])
        assert conv.sum() == est.convergence["converged_starts"]
        vals = run.value[conv]
        assert est.convergence["value_spread"] == (
            (vals.max() - vals.min()) / max(1.0, abs(vals.min())))
        assert est.convergence["value_spread"] >= 0.0

    def test_nonpositive_starts_rejected(self):
        for starts in (0, -1):
            with pytest.raises(bl.DomainError, match="starts must be >= 1"):
                OptimizerOptions(starts=starts)

    @pytest.mark.parametrize("options,match", [
        ({"starts": 2.5}, "starts must be an integer"),
        ({"max_iter": 2.5}, "max_iter must be an integer"),
        ({"seed": -1}, "seed must be >= 0"),
        ({"seed": 1.5}, "seed must be an integer"),
        ({"seed": np.nan}, "seed must be an integer"),
        ({"seed": "3"}, "seed must be an integer")])
    def test_ill_typed_options_rejected(self, options, match):
        with pytest.raises(bl.DomainError, match=match):
            OptimizerOptions(**options)

    def test_bad_iteration_limit_or_tolerance_rejected(self):
        for max_iter in (0, -5):
            with pytest.raises(bl.DomainError, match="max_iter must be >= 1"):
                OptimizerOptions(max_iter=max_iter)
        for tol in (-1.0, 0.0, np.nan, np.inf):
            with pytest.raises(bl.DomainError, match="tol must be finite"):
                OptimizerOptions(tol=tol)

    def test_range_check(self, rt3):
        with pytest.raises(bl.DomainError):
            bl.constants_report(rt3, [2.5])

    def test_quotient_value_checks_alpha(self, zr33):
        rho = bl.normalize_density(zr33, 1.0 + 0.1 * poincare_eigenvector(
            zr33))
        for alpha in (None, np.nan, 1.0, 3.0):
            with pytest.raises(bl.DomainError, match="alpha must lie"):
                quotient_value(zr33, "beckner", alpha, rho)


    @pytest.mark.parametrize("kind,alpha", [("beckner", 1.5), ("beckner", 2.0),
                                            ("mlsi", None), ("lsi", None)])
    def test_quotient_value_stack_matches_one_density_calls(self, rt4, kind,
                                                            alpha):
        rng = np.random.default_rng(3)
        rows = [bl.random_density(rt4, rng, (0.1, 1.0, 3.0)[k % 3])
                for k in range(30)]
        stacked = quotient_value(rt4, kind, alpha,
                                 np.array([r.values for r in rows]))
        assert stacked.shape == (30,)
        assert stacked.tolist() == [quotient_value(rt4, kind, alpha, r)
                                    for r in rows]

    @pytest.mark.parametrize("entry", [0.0, -0.5, np.nan])
    def test_quotient_value_rejects_a_row_off_the_positive_axis(self, rt4,
                                                                 entry):
        rng = np.random.default_rng(3)
        rows = np.array([bl.random_density(rt4, rng, 1.0).values
                         for _ in range(3)])
        assert np.all(quotient_value(rt4, "mlsi", None, rows) > 0.0)
        rows[1, 0] = entry
        with np.errstate(divide="ignore", invalid="ignore"), \
                pytest.raises(bl.DomainError, match="entropy vanished"):
            quotient_value(rt4, "mlsi", None, rows)

    @pytest.mark.parametrize("kind,alpha", [("mlsi", None), ("lsi", None),
                                            ("beckner", 1.5)])
    def test_quotient_value_of_an_empty_stack_is_empty(self, rt4, kind,
                                                       alpha):
        val = quotient_value(rt4, kind, alpha, np.empty((0, rt4.n_states)))
        assert isinstance(val, np.ndarray) and val.shape == (0,)

    def test_quotient_value_checks_the_shape(self, rt4):
        rng = np.random.default_rng(3)
        rho = bl.random_density(rt4, rng, 1.0).values
        for bad in (np.append(rho, 1.0), np.tile(rho, (2, 2, 1)),
                    np.float64(1.0)):
            with pytest.raises(bl.DomainError, match="one row or a"):
                quotient_value(rt4, "mlsi", None, bad)


class TestLogCaseConstants:
    def test_two_state_scan_oracles(self, two_state):
        est_m = alone(two_state, "mlsi")
        est_l = alone(two_state, "lsi")
        scan_m = scan_two_state_quotient(two_state, "mlsi")
        scan_l = scan_two_state_quotient(two_state, "lsi")
        assert est_m.value <= scan_m + 1e-9
        assert est_m.value == pytest.approx(scan_m, rel=1e-5)
        assert est_l.value <= scan_l + 1e-9
        assert est_l.value == pytest.approx(scan_l, rel=1e-4)

    def test_orderings(self, chains):
        for name, chain in chains.items():
            gap = bl.spectral_gap(chain)
            # the log-case constants alone; the report folds every
            # quotient over the pooled minimizers
            table = bl.constants_report(chain, [])
            assert table.lambda_m <= 2.0 * gap + 1e-6, name
            assert 4.0 * table.lambda_l <= table.lambda_m + 1e-6, name

    def test_alpha_to_one_continuity(self, rt4):
        est = alone(rt4, "mlsi")
        assert est.convergence["alpha_to_one_gap"] <= 1e-2

    @pytest.mark.parametrize("chain_name", ["zr33", "bl52", "rt4"])
    def test_alpha_to_one_reading_is_one_evaluation(self, zr33, bl52, rt4,
                                                    chain_name):
        # the power quotient at alpha = 1 + 1e-4, evaluated once at the
        # mlsi minimizer: no descent of its own
        chain = {"zr33": zr33, "bl52": bl52, "rt4": rt4}[chain_name]
        table = bl.constants_report(chain, [1.5],
                                    opts=OptimizerOptions(starts=8))
        est = table.estimates[-2]
        num, den = _Quotient(chain, [("beckner", 1.0 + 1e-4)]).parts(
            est.minimizer.values[None, :])
        value = est.convergence["alpha_to_one_value"]
        assert value == num[0] / den[0]
        assert est.convergence["alpha_to_one_gap"] == \
            abs(value - est.value) / abs(est.value)
        assert table.mlsi_continuity_gap == \
            est.convergence["alpha_to_one_gap"]

    def test_two_state_reports_complete(self):
        # the descent walks to within rounding of the flat density, where
        # the alpha -> 1 reading's entropy can vanish: it reads nan there
        # and the report still completes
        chain = bl.build_birth_death([1, 0], [0, 1])
        quot = _Quotient(chain, [("beckner", 1.0 + 1e-4)])
        flat = 0
        for seed in range(20):
            table = bl.constants_report(chain, [1.5],
                                        opts=OptimizerOptions(seed=seed))
            est = table.estimates[-2]
            (num,), (den,) = quot.parts(est.minimizer.values[None, :])
            if den > 0.0:
                assert est.convergence["alpha_to_one_value"] == num / den
            else:
                flat += 1
                assert np.isnan(est.convergence["alpha_to_one_value"]), seed
                assert np.isnan(table.mlsi_continuity_gap), seed
        assert flat > 0

    def test_near_flat_quotient_linearizes(self, zr33):
        f = poincare_eigenvector(zr33)
        rho = bl.normalize_density(zr33, 1.0 + 1e-5 * f)
        val = quotient_value(zr33, "mlsi", None, rho)
        assert val == pytest.approx(2.0 * bl.spectral_gap(zr33), rel=1e-4)


class TestConstantsReport:
    def test_random_transposition_rows(self, rt4, specs):
        table = bl.constants_report(rt4, [1.1, 1.5, 2.0],
                                    spec=specs["random_transposition_4"])
        assert table.ordering_pass
        gap = bl.spectral_gap(rt4)
        for row in table.rows:
            assert row.paper_bound <= row.beckner_hat + 1e-6
            assert row.beckner_hat <= 2.0 * gap + 1e-6
        last = table.rows[-1]
        assert last.alpha == 2.0
        assert last.beckner_hat == pytest.approx(2.0 * gap, rel=1e-6)

    @pytest.mark.parametrize("chain_name", ["zr33", "rt4"])
    def test_stacked_estimates_equal_standalone_calls(self, zr33, rt4,
                                                      chain_name):
        chain = {"zr33": zr33, "rt4": rt4}[chain_name]
        table = bl.constants_report(chain, [1.1, 1.5, 2.0])
        ones = [alone(chain, "beckner", a) for a in (1.1, 1.5, 2.0)]
        ones += [alone(chain, "mlsi"), alone(chain, "lsi")]
        assert len(table.estimates) == len(ones)
        for est, one in zip(table.estimates, ones):
            assert (est.name, est.alpha) == (one.name, one.alpha)
            assert est.value == one.value, est.name
            assert np.array_equal(est.minimizer.values, one.minimizer.values)
            assert est.convergence == one.convergence, est.name
        assert "alpha_to_one_value" in table.estimates[3].convergence

    def test_one_block_per_reported_estimate(self, zr33, monkeypatch):
        runs = []

        def recorded(*args):
            runs.append(_descend(*args))
            return runs[-1]

        monkeypatch.setattr(constants, "_descend", recorded)
        opts = OptimizerOptions(starts=8)
        table = bl.constants_report(zr33, [1.1, 1.5, 2.0], opts=opts)
        run, = runs
        assert len(run.status) == 5 * opts.starts
        assert run.evaluations == sum(e.convergence["evaluations"]
                                      for e in table.estimates)

    def test_alpha_order_keeps_estimate_bytes(self, zr33):
        opts = OptimizerOptions(starts=8)
        one = bl.constants_report(zr33, [1.1, 1.5, 2.0], opts=opts)
        other = bl.constants_report(zr33, [2.0, 1.1, 1.5], opts=opts)
        by_alpha = {(e.name, e.alpha): e for e in other.estimates}
        assert len(by_alpha) == len(one.estimates) == 5
        for est in one.estimates:
            alt = by_alpha[est.name, est.alpha]
            assert est.value == alt.value, est.alpha
            assert est.minimizer.values.tobytes() == \
                alt.minimizer.values.tobytes()
            assert est.convergence == alt.convergence, est.alpha
            # each block is finished with its own quotient
            assert est.convergence["value_recheck_gap"] == 0.0

    def test_homogeneous_exclusion_references(self, bl52, specs):
        table = bl.constants_report(bl52, [1.5],
                                    spec=specs["bernoulli_laplace"])
        assert "bobkov_tetali" in table.references
        assert "sharper_homogeneous" in table.references
        assert table.ordering_pass


def reference_descend(quot, u0, max_iter=400, gtol=1e-8, memory=10):
    """One start in a plain per-iteration L-BFGS loop, the control flow
    the lockstep descent must reproduce row by row.  The pairs sit in a
    ring of ``memory`` slots, s over y in W; R^{-1}, Y Y^T and D are
    bordered as each pair arrives.  Returns (value, rho, gnorm, status)."""

    def value_grad(u):
        val, rho, G = quot.evaluate(u[None, :])
        return float(val[0]), G[0], rho[0]

    m, n = memory, len(u0)
    W = np.zeros((2 * m, n))
    Ri, YY, D = np.zeros((m, m)), np.zeros((m, m)), np.zeros(m)
    count, its = 0, 0
    u = np.array(u0, dtype=float)
    with np.errstate(all="ignore"):
        val, g, rho = value_grad(u)
        anchor, flat, status = val, False, "maxiter"
        while True:
            scale = max(1.0, abs(val))
            if np.max(np.abs(g)) <= gtol * scale:
                status = "gradient"
                break
            check = its % 25 == 24
            if flat or (check and anchor - val <= 1e-13 * scale):
                status = "stalled"
                break
            if check:
                anchor = val
            if its >= max_iter:
                break
            d = -g
            if count:
                k = (count - 1) % m
                gamma = D[k] / YY[k, k]
                q = W @ g
                t = Ri @ q[:m]
                w = Ri.T @ (D * t + gamma * (YY @ t) - gamma * q[m:])
                d = -(gamma * g + W.T @ np.concatenate((w, -gamma * t)))
            dg = float(np.dot(g, d))
            if not dg < 0.0:
                d, dg = -g, -float(np.dot(g, g))
            step = 1.0 if count else 1.0 / max(1.0, float(np.max(np.abs(g))))
            while step * abs(dg) >= 1e-15 * scale:
                u_try = u + step * d
                v_try, g_try, rho_try = value_grad(u_try)
                if (np.isfinite(v_try) and v_try <= val + 1e-4 * step * dg
                        and np.all(np.isfinite(g_try))):
                    break
                quad = -dg * step * step / (2.0 * (v_try - val - step * dg))
                step = np.fmin(np.fmax(quad, 0.1 * step), 0.5 * step)
            else:
                status = "stalled"
                break
            ds, dy = u_try - u, g_try - g
            sy = float(np.dot(ds, dy))
            if sy > 1e-12 * np.sqrt(np.dot(ds, ds) * np.dot(dy, dy)):
                o = count % m
                W[o] = W[m + o] = Ri[o] = Ri[:, o] = YY[o] = YY[:, o] = 0.0
                b = W @ dy
                Ri[:, o] = -(Ri @ b[:m]) / sy
                Ri[o, o] = 1.0 / sy
                YY[o] = YY[:, o] = b[m:]
                YY[o, o] = np.dot(dy, dy)
                D[o] = sy
                W[o], W[m + o] = ds, dy
                count += 1
            flat = val - v_try <= 1e-16 * scale
            u, val, g, rho = u_try, v_try, g_try, rho_try
            its += 1
    return val, rho, float(np.max(np.abs(g))), status


LOCKSTEP_CASES = [("beckner", 1.1), ("beckner", 2.0), ("mlsi", None),
                  ("lsi", None)]
MIXED_SPECS = [("beckner", 1.1), ("beckner", 1.5), ("beckner", 2.0),
               ("beckner", 1.0 + 1e-4), ("mlsi", None), ("lsi", None)]


# a limit below the 10 iterations a start runs before it can be
# dominated, so the starts that run longest end "maxiter"
SHORT_MAX_ITER = 8


@pytest.fixture(scope="module")
def fv16():
    """The finite-volume chain of V = 2 x^2 on 16 cells: stiff line
    searches, with many rejected trials."""
    return bl.build_fokker_planck_fv(lambda x: 2.0 * np.asarray(x) ** 2, 16,
                                     4.0)


@pytest.fixture(scope="module")
def lockstep(zr33, rt4, fv16):
    """(quotient, starts, 32-start lockstep descent) per chain, case and
    iteration limit."""
    cache = {}

    def get(chain_name, kind, alpha, max_iter=400):
        key = (chain_name, kind, alpha, max_iter)
        if key not in cache:
            chain = {"zr33": zr33, "rt4": rt4, "fv16": fv16}[chain_name]
            quot = _Quotient(chain, [(kind, alpha)])
            starts = _start_fields(chain, poincare_eigenvector(chain),
                                   OptimizerOptions())
            cache[key] = quot, starts, _descend(quot, starts, max_iter, 1e-8)
        return cache[key]

    return get


class TestTrapChainConstants:
    """BD(K) with a(n) = K - n and b(n) = n counts the ones among K
    independent symmetric two-state chains, whose constants tensorize:
    lambda_P = 2, lambda_B(alpha) = lambda_M = 4 and lambda_L = 1 at every
    K.  The estimates sit within flat-limit noise of the sharp values:
    over seeds 0 to 9 the worst relative gap was 2.1e-8 (alpha = 1.1,
    K = 2, seed 8), so the bound is 1e-7."""

    @pytest.mark.parametrize("K", [2, 4, 8, 12, 24])
    def test_exact_constants(self, K):
        chain = bl.build_birth_death(*bl.mm_infinity_rates(K))
        table = bl.constants_report(chain, [1.1, 1.5, 2.0])
        assert abs(table.lambda_p - 2.0) <= 1e-14 * 2.0
        for value, sharp in [(r.beckner_hat, 4.0) for r in table.rows] + [
                (table.lambda_m, 4.0), (table.lambda_l, 1.0)]:
            assert abs(value - sharp) <= 1e-7 * sharp, (value, sharp)


@functools.cache
def walker_report(L):
    """The report of one walker on L sites, BL(L, 1)."""
    return bl.constants_report(bl.build_bernoulli_laplace(L, 1, 1.0),
                               [1.1, 1.5])


def _known_failure(L, N, raises, reason):
    return pytest.param(L, N, marks=pytest.mark.xfail(
        strict=True, raises=raises, reason=reason))


class TestLinearZeroRangeConstants:
    """ZR(L, N) with c_x(n) = n moves N independent walkers, each BL(L, 1).
    The log-case constants tensorize and a product density is symmetric,
    so the sharp lambda_M and lambda_L equal BL(L, 1)'s at every N, and
    each sharp lambda_B(alpha) is at least BL(L, 1)'s (Bobkov & Tetali
    2006).  At the default options the estimates agree to 4.8e-12
    relative (lambda_L of ZR(5,4)), and each lambda_B(alpha) stays 2.5e-3
    to 3.3e-2 above the walker's."""

    @pytest.mark.parametrize("L,N", [
        (3, 2), (3, 3), (3, 4), (3, 6), (4, 2), (4, 3), (4, 4), (5, 2),
        (5, 3), (5, 4),
        _known_failure(3, 8, NumericalError,
                       "the alpha = 1.1 block's lead sits on the flat "
                       "plateau 2 lambda_P and retires every other start: "
                       "no start converged"),
        _known_failure(5, 6, NumericalError,
                       "the mlsi block's lead ends at maxiter with best "
                       "gradient 4.7e-7: no start converged"),
        _known_failure(4, 6, AssertionError,
                       "lambda_L reads 3.27e-7 high: one start ends at "
                       "maxiter short of the minimum (max_iter 6400 brings "
                       "the gap to 1.4e-11)")])
    def test_walker_constants(self, L, N):
        one = walker_report(L)
        table = bl.constants_report(
            bl.build_zero_range(L, N, bl.linear_rate_table(L, N)), [1.1, 1.5])
        for got, want in ((table.lambda_m, one.lambda_m),
                          (table.lambda_l, one.lambda_l)):
            assert abs(got - want) <= 1e-9 * want, (got, want)
        for row, walker in zip(table.rows, one.rows):
            assert row.beckner_hat >= walker.beckner_hat * (1.0 - 1e-9), \
                (row.alpha, row.beckner_hat, walker.beckner_hat)


class TestFixedDensityEvaluator:
    """One evaluation gives every spec at every fixed density, each entry
    with the bits of its one-row quotient."""

    def test_entries_equal_one_row(self, zr33, rt4):
        rng = np.random.default_rng(8)
        for chain in (zr33, rt4):
            f = poincare_eigenvector(chain)
            # random densities, then ever closer to the flat density, where
            # the entropies round to zero or below, and the flat density
            R = [bl.random_density(chain, rng, (0.1, 1.0, 3.0)[k % 3]).values
                 for k in range(9)]
            R += [bl.normalize_density(chain, 1.0 + eps * f).values
                  for eps in (1e-6, 1e-8, 1e-10, 1e-12)]
            R = np.array(R + [np.ones(chain.n_states)])
            num, den = _fixed_parts(chain, MIXED_SPECS, R)
            assert num.shape == den.shape == (len(MIXED_SPECS), len(R))
            positive = den > 0.0
            assert positive.any() and not positive.all()
            for i, (kind, alpha) in enumerate(MIXED_SPECS):
                quot = _Quotient(chain, [(kind, alpha)])
                for j, rho in enumerate(R):
                    one = quot.parts(rho[None, :])
                    assert np.array_equal(one, (num[i, j:j + 1],
                                                den[i, j:j + 1])), (i, j)
                    if positive[i, j]:
                        assert quotient_value(chain, kind, alpha, rho) == \
                            num[i, j] / den[i, j]
                    else:
                        with pytest.raises(bl.DomainError,
                                           match="entropy vanished"):
                            quotient_value(chain, kind, alpha, rho)

    @pytest.mark.parametrize("chain_name", ["zr33", "rt4"])
    def test_fold_and_rechecks_are_one_row_quotients(self, zr33, rt4,
                                                     chain_name):
        chain = {"zr33": zr33, "rt4": rt4}[chain_name]
        table = bl.constants_report(chain, [1.1, 1.5, 2.0])
        ests = table.estimates
        folds = [min([est.value] + [quotient_value(chain, est.name, est.alpha,
                                                   e.minimizer) for e in ests])
                 for est in ests]
        assert [row.beckner_hat for row in table.rows] + [
            table.lambda_m, table.lambda_l] == folds
        for est in ests:
            rho = est.minimizer.values
            recheck = quotient_value(chain, est.name, est.alpha, rho)
            scaled = quotient_value(chain, est.name, est.alpha,
                                    rho / np.sum(chain.pi * rho))
            assert est.convergence["value_recheck_gap"] == \
                abs(recheck - est.value)
            assert est.convergence["renormalization_gap"] == \
                abs(scaled - recheck)

    def test_report_evaluates_fixed_densities_twice(self, rt4, monkeypatch):
        # the gap rays, then every quotient at every minimizer
        calls = dict.fromkeys(("__init__", "parts", "evaluate"), 0)

        def counted(name):
            method = getattr(_Quotient, name)

            def call(*args, **kwargs):
                calls[name] += 1
                return method(*args, **kwargs)
            return call

        for name in calls:
            monkeypatch.setattr(_Quotient, name, counted(name))
        bl.constants_report(rt4, [1.1, 1.5, 2.0])
        # each descent evaluation makes one parts call of its own
        assert calls["parts"] - calls["evaluate"] == 2
        # the descent stack's quotient, and one per fixed-density evaluation
        assert calls["__init__"] == 3


class TestOneEntropyPath:
    """The quotient's denominator is the chain's entropy, bit for bit."""

    @pytest.mark.parametrize("kind,alpha", [("mlsi", None), ("beckner", 1.1),
                                            ("beckner", 1.5),
                                            ("beckner", 2.0)])
    def test_denominator_is_chain_entropy(self, rt4, bd8, kind, alpha):
        e = bl.log_entropy() if kind == "mlsi" else bl.power_entropy(alpha)
        rng = np.random.default_rng(6)
        for chain in (rt4, bd8):
            R = np.array([bl.random_density(chain, rng, (0.1, 1.0, 3.0)[k % 3])
                          .values for k in range(12)])
            den = _Quotient(chain, [(kind, alpha)]).parts(R)[1]
            assert np.array_equal(den, bl.entropy(chain, e, R))


def cut(run, k, max_iter):
    """The iteration limit and status of start k's run alone: a dominated
    start is its run alone cut at the iterations it completed."""
    if run.status[k] == "dominated":
        return int(run.iterations[k]), "maxiter"
    return max_iter, run.status[k]


class TestLockstepDescent:
    """Every start of a stacked descent gets the bits it gets alone, or
    when its block retires it, the bits of its run alone cut there."""

    @pytest.mark.parametrize("chain_name", ["zr33", "rt4", "fv16"])
    @pytest.mark.parametrize("kind,alpha", LOCKSTEP_CASES)
    def test_rows_equal_single_start_runs(self, lockstep, chain_name, kind,
                                          alpha):
        quot, starts, run = lockstep(chain_name, kind, alpha)
        assert len(run.status) == 32
        for k in range(len(starts)):
            max_iter, status = cut(run, k, 400)
            one = _descend(quot, starts[k:k + 1], max_iter, 1e-8)
            assert one.value[0] == run.value[k], k
            assert np.array_equal(one.rho[0], run.rho[k]), k
            assert one.gnorm[0] == run.gnorm[k], k
            assert one.status == [status], k

    def test_rows_equal_reference_loop(self, lockstep):
        seen = set()
        for kind, alpha, limit in (("beckner", 2.0, 400), ("lsi", None, 400),
                                   ("lsi", None, SHORT_MAX_ITER)):
            quot, starts, run = lockstep("zr33", kind, alpha, limit)
            seen.update(run.status)
            for k in range(len(starts)):
                max_iter, want = cut(run, k, limit)
                val, rho, gnorm, status = reference_descend(quot, starts[k],
                                                            max_iter)
                assert val == run.value[k], (kind, k)
                assert np.array_equal(rho, run.rho[k]), (kind, k)
                assert gnorm == run.gnorm[k], (kind, k)
                assert status == want, (kind, k)
        assert set(STATUSES) <= seen

    @pytest.mark.parametrize("chain_name", ["zr33", "rt4"])
    def test_rows_cover_every_status(self, lockstep, chain_name):
        seen = set()
        for kind, alpha in LOCKSTEP_CASES:
            seen.update(lockstep(chain_name, kind, alpha)[2].status)
        seen.update(lockstep(chain_name, "lsi", None,
                             SHORT_MAX_ITER)[2].status)
        assert set(STATUSES) <= seen

    @pytest.mark.parametrize("kind,alpha", LOCKSTEP_CASES)
    def test_stacked_evaluator_rows_equal_one_row(self, zr33, rt4, kind,
                                                  alpha):
        rng = np.random.default_rng(3)
        for chain in (zr33, rt4):
            quot = _Quotient(chain, [(kind, alpha)])
            U = rng.standard_normal((32, chain.n_states)) * \
                np.repeat([0.1, 1.0, 3.0, 10.0], 8)[:, None]
            val, rho, G = quot.evaluate(U)
            mask = np.arange(32) % 3 == 0
            assert np.array_equal(quot.evaluate(U[mask])[2], G[mask])
            for k in range(32):
                one = quot.evaluate(U[k:k + 1])
                assert one[0][0] == val[k]
                assert np.array_equal(one[2][0], G[k])
                assert quotient_value(chain, kind, alpha,
                                      bl.Density(rho[k])) == val[k]

    def test_mixed_stack_rows_equal_one_row(self, zr33, rt4):
        # every kind, and beckner at four alphas, in one stack of blocks
        rng = np.random.default_rng(4)
        for chain in (zr33, rt4):
            quot = _Quotient(chain, specs=MIXED_SPECS, block=8)
            U = rng.standard_normal((48, chain.n_states)) * \
                np.tile(np.repeat([0.1, 1.0, 3.0, 10.0], 2), 6)[:, None]
            val, rho, G = quot.evaluate(U)
            mask = np.arange(48) % 3 == 0
            # a trial stack of scattered rows keeps each row's spec
            rows = np.flatnonzero(mask)
            sub = quot.evaluate(U[rows], rows)
            assert np.array_equal(sub[0], val[rows])
            assert np.array_equal(sub[2], G[mask])
            for k in range(48):
                kind, alpha = MIXED_SPECS[k // 8]
                one_quot = _Quotient(chain, [(kind, alpha)])
                one = one_quot.evaluate(U[k:k + 1])
                assert one[0][0] == val[k], k
                assert np.array_equal(one[2][0], G[k]), k
                assert quotient_value(chain, kind, alpha,
                                      bl.Density(rho[k])) == val[k]

    def test_shuffled_mixed_rows_equal_one_row(self, zr33, rt4):
        # ids in any order, kinds interleaved, and trial rows whose
        # density, value or gradient is not finite
        rng = np.random.default_rng(5)
        for chain in (zr33, rt4):
            quot = _Quotient(chain, specs=MIXED_SPECS, block=8)
            ids = rng.permutation(48)[:40]
            U = rng.standard_normal((40, chain.n_states)) * \
                rng.choice([0.1, 1.0, 3.0, 10.0], 40)[:, None]
            U[::7, 0] = np.nan
            U[3::7, 1] = np.inf
            U[5::7, 2] = -1e300
            with np.errstate(all="ignore"):
                val, rho, G = quot.evaluate(U, ids)
                num, den = quot.parts(rho, ids)
            assert not np.isfinite(val).all()
            assert np.array_equal(num / den, val, equal_nan=True)
            for j, k in enumerate(ids):
                kind, alpha = MIXED_SPECS[k // 8]
                one_quot = _Quotient(chain, [(kind, alpha)])
                with np.errstate(all="ignore"):
                    one = one_quot.evaluate(U[j:j + 1])
                    parts = one_quot.parts(rho[j:j + 1])
                assert np.array_equal(one[0], val[j:j + 1], equal_nan=True)
                assert np.array_equal(one[1][0], rho[j], equal_nan=True)
                assert np.array_equal(one[2][0], G[j], equal_nan=True), k
                assert np.array_equal(parts, (num[j:j + 1], den[j:j + 1]),
                                      equal_nan=True)

    def test_evaluated_rows_add_up_to_evaluations(self, zr33):
        quot = _Quotient(zr33, specs=MIXED_SPECS, block=8)
        starts = _start_fields(zr33, poincare_eigenvector(zr33),
                               OptimizerOptions(starts=8))
        seen, evaluate = [], quot.evaluate

        def counted(U, ids):
            seen.append(len(ids))
            return evaluate(U, ids)

        quot.evaluate = counted
        run = _descend(quot, np.tile(starts, (6, 1)), 400, 1e-8)
        assert seen[0] == 48
        assert sum(seen) == run.evaluations
        assert len(seen) == run.rounds + 1

    @pytest.mark.parametrize("g_next,status", [(1e-9, "gradient"),
                                               (1e-7, "stalled")])
    def test_gradient_test_ranks_before_a_stall(self, g_next, status):
        # value 0.5 and gradient (1e-7, 0): the first step gains one ulp,
        # which meets Armijo (g.d = -1e-14) but is below the flat
        # threshold, so the second iteration starts stalled; a gradient
        # of 1e-9 there also meets the gradient test, which wins
        script = iter([(0.5, 1e-7), (np.nextafter(0.5, 0.0), g_next)])

        class Scripted:
            def evaluate(self, U, ids):
                value, g = next(script)
                return np.array([value]), np.exp(U), np.array([[g, 0.0]])

        run = _descend(Scripted(), np.zeros((1, 2)), 400, 1e-8)
        assert run.status == [status]
        assert run.rounds == 1

    def test_lsi_gradient_finite_at_tiny_density(self, zr33):
        # sqrt(rho) - 1 rounds to -1 below rho ~ 1e-32, so the gradient
        # must divide by sqrt(rho) itself
        quot = _Quotient(zr33, [("lsi", None)])
        U = np.zeros((1, zr33.n_states))
        U[0, 0] = np.log(1e-34)
        val, rho, G = quot.evaluate(U)
        assert 1e-35 < rho.min() < 1e-33
        assert np.isfinite(val[0])
        assert np.all(np.isfinite(G))


class TestDominatedStarts:
    """Retiring dominated starts leaves every estimate where the starts
    run to their own end put it."""

    def test_retirement_keeps_the_estimate(self, zr33, bl52, rt3, rt4, bd12,
                                           fv16, monkeypatch):
        specs = [("beckner", 1.1), ("beckner", 1.5), ("beckner", 2.0),
                 ("mlsi", None), ("lsi", None)]
        opts = OptimizerOptions(starts=8)
        runs, descend = [], _descend

        def recorded(*args):
            runs.append(descend(*args))
            return runs[-1]

        monkeypatch.setattr(constants, "_descend", recorded)
        for chain in (zr33, bl52, rt3, rt4, bd12, fv16,
                      bl.build_birth_death([1, 0], [0, 3]),
                      bl.build_birth_death([1, 0], [0, 1])):
            f_gap = poincare_eigenvector(chain)
            starts = _start_fields(chain, f_gap, opts)
            rays = _gap_rays(chain, f_gap)
            for est, (kind, alpha) in zip(_estimate(chain, specs, opts)[0],
                                          specs):
                # no start retired: each start run alone, and the rays
                quot = _Quotient(chain, [(kind, alpha)])
                ends = [descend(quot, u[None], opts.max_iter, opts.tol)
                        .value[0] for u in starts]
                ref = np.nanmin(ends + list(quotient_value(chain, kind, alpha,
                                                           rays)))
                assert ref <= est.value <= ref + 1e-12 * max(1.0, abs(ref)), \
                    (chain.meta, kind, alpha)
        dominated = np.concatenate([run.iterations[np.equal(run.status,
                                                            "dominated")]
                                    for run in runs])
        assert dominated.size > 0
        assert dominated.min() >= 10

    # reports in which one far-behind start ran all 400 rounds under the
    # model-minimum dominance test, with the values that test gave:
    # retiring that start early must leave them in place
    STRAGGLERS = {
        (3, 16): [1.905723285683397, 1.9525178018698002, 1.9999999999766445,
                  1.0, 1.894642257957119, 0.4538975901130303],
        (4, 13): [1.221737405421379, 1.2931284138572785, 1.333333332699485,
                  0.6666666666666665, 1.1937079303563543,
                  0.27173787308916164],
    }

    @pytest.mark.parametrize("n,seed", sorted(STRAGGLERS))
    def test_found_stragglers_retire(self, n, seed, monkeypatch):
        runs = []

        def recorded(*args):
            runs.append(_descend(*args))
            return runs[-1]

        monkeypatch.setattr(constants, "_descend", recorded)
        table = constants.constants_report(
            bl.build_random_transposition(n), [1.1, 1.5, 2.0],
            opts=OptimizerOptions(seed=seed))
        assert len(runs) == 1
        assert runs[0].rounds <= 100
        values = [r.beckner_hat for r in table.rows] + [
            table.lambda_p, table.lambda_m, table.lambda_l]
        for got, want in zip(values, self.STRAGGLERS[n, seed]):
            assert abs(got - want) <= 1e-12 * max(1.0, abs(want)), \
                (got, want)
