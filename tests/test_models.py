"""Model builders, their invariant laws, and the explicit constants."""

import math

import numpy as np
import pytest

import beckner_lab as bl
from beckner_lab import DomainError, HypothesisError, SizeError


def simpson_erf(s, n=1_000_001):
    """Composite-Simpson quadrature oracle for the error function."""
    if s == 0.0:
        return 0.0
    xs = np.linspace(0.0, s, n)
    w = np.ones(n)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    h = xs[1] - xs[0]
    return 2.0 / math.sqrt(math.pi) * h / 3.0 * float(np.sum(w * np.exp(-xs ** 2)))


class TestBirthDeath:
    def test_truncated_poisson(self):
        n_max = 6
        a = np.array([1.0] * n_max + [0.0])
        b = np.arange(n_max + 1, dtype=float)
        chain = bl.build_birth_death(a, b)
        assert chain.pi[1] / chain.pi[0] == pytest.approx(1.0, rel=1e-14)
        w = np.array([1.0 / math.factorial(k) for k in range(n_max + 1)])
        assert np.allclose(chain.pi, w / w.sum(), rtol=1e-13)

    def test_mm1_geometric(self):
        p, q, n_max = 0.6, 1.1, 9
        a = np.array([p] * n_max + [0.0])
        b = np.array([0.0] + [q] * n_max)
        chain = bl.build_birth_death(a, b)
        w = (p / q) ** np.arange(n_max + 1)
        assert np.allclose(chain.pi, w / w.sum(), rtol=1e-12)

    def test_detailed_balance(self, bd8):
        a = np.asarray(bd8.meta["a"])
        b = np.asarray(bd8.meta["b"])
        for n in range(bd8.n_states - 1):
            assert a[n] * bd8.pi[n] == pytest.approx(
                b[n + 1] * bd8.pi[n + 1], rel=1e-12)

    def test_broken_recursion(self):
        with pytest.raises(DomainError):
            bl.build_birth_death([1.0, 1.0, 0.0], [0.0, 0.0, 1.0])

    def test_closure_requirements(self):
        with pytest.raises(DomainError):
            bl.build_birth_death([1.0, 0.0], [0.5, 1.0])   # b(0) != 0
        with pytest.raises(DomainError):
            bl.build_birth_death([1.0, 2.0], [0.0, 1.0])   # a(n_max) != 0


class TestZeroRange:
    def test_two_sites_one_particle(self):
        chain = bl.build_zero_range(2, 1, np.array([0.0, 1.0]))
        assert chain.n_states == 2
        assert np.allclose(chain.pi, 0.5)

    def test_enumeration_oracle(self):
        chain = bl.build_zero_range(3, 2, bl.linear_rate_table(3, 2))
        # direct product-weight enumeration with c_x(n) = n
        w = {}
        for k in chain.keys:
            w[k] = np.prod([1.0 / math.factorial(kx) for kx in k])
        total = sum(w.values())
        for i, k in enumerate(chain.keys):
            assert chain.pi[i] == pytest.approx(w[k] / total, rel=1e-13)

    def test_reversibility_identity(self, zr33):
        # pi[c_x(eta_x) g(eta)] = pi[c_y(eta_y) g(eta^{yx})]
        rng = np.random.default_rng(0)
        occ = np.asarray(zr33.meta["occupancy"])
        table = np.asarray(zr33.meta["rate_table"])
        pairs = zr33.meta["pairs"]
        g = rng.standard_normal(zr33.n_states)
        for m, (x, y) in enumerate(pairs):
            m_back = pairs.index((y, x))
            lhs = float(np.sum(zr33.pi * table[x, occ[:, x]] * g))
            tg = zr33.targets[m_back]
            lhs_alt = float(np.sum(zr33.pi * table[y, occ[:, y]] * g[tg]))
            assert lhs == pytest.approx(lhs_alt, rel=1e-10, abs=1e-12)

    def test_particle_number_conserved(self, zr33):
        occ = np.asarray(zr33.meta["occupancy"])
        for g in range(zr33.n_moves):
            assert np.all(occ[zr33.targets[g]].sum(axis=1) == 3)

    def test_size_cap(self):
        with pytest.raises(SizeError):
            bl.build_zero_range(30, 30, bl.linear_rate_table(30, 30))


class TestBernoulliLaplace:
    def test_two_sites(self):
        chain = bl.build_bernoulli_laplace(2, 1, 1.0)
        assert np.allclose(chain.pi, 0.5)

    def test_homogeneous_uniform(self):
        chain = bl.build_bernoulli_laplace(4, 2, 1.0)
        assert chain.n_states == 6
        assert np.allclose(chain.pi, 1.0 / 6.0, rtol=1e-14)

    def test_inhomogeneous_nullspace_oracle(self):
        chain = bl.build_bernoulli_laplace(4, 2, [1.0, 2.0, 3.0, 4.0])
        Q = chain.dense_generator()
        # stationary law from the left null space of the generator
        w, v = np.linalg.eig(Q.T)
        k = int(np.argmin(np.abs(w)))
        pi = np.real(v[:, k])
        pi = pi / pi.sum()
        assert np.max(np.abs(pi - chain.pi)) <= 1e-10

    def test_overfilled_rejected(self):
        with pytest.raises(DomainError):
            bl.build_bernoulli_laplace(3, 4, 1.0)


class TestRandomTransposition:
    def test_n2(self):
        chain = bl.build_random_transposition(2)
        assert chain.n_states == 2 and chain.n_moves == 1
        assert float(chain.rates[0, 0]) == pytest.approx(1.0)
        assert np.allclose(chain.pi, 0.5)

    def test_neighbor_count_and_exit_rate(self, rt3, rt4):
        for chain, n in ((rt3, 3), (rt4, 4)):
            assert chain.n_moves == n * (n - 1) // 2
            exit_rate = chain.rates.sum(axis=1)
            assert np.allclose(exit_rate, 1.0, rtol=1e-14)

    def test_dense_generator_mass(self, rt4):
        Q = rt4.dense_generator()
        assert np.max(np.abs(Q.sum(axis=1))) <= 1e-14
        off = Q.copy()
        np.fill_diagonal(off, 0.0)
        assert np.allclose(off.sum(axis=1), 1.0, rtol=1e-13)

    def test_moves_self_inverse(self, rt4):
        for g in range(rt4.n_moves):
            assert rt4.inverse[g] == g
            assert np.array_equal(rt4.targets[g][rt4.targets[g]],
                                  np.arange(rt4.n_states))

    def test_size_limits(self):
        with pytest.raises(SizeError):
            bl.build_random_transposition(1)
        with pytest.raises(SizeError):
            bl.build_random_transposition(8)


class TestFokkerPlanckChain:
    def test_flat_potential(self):
        chain = bl.build_fokker_planck_fv(lambda x: np.zeros_like(np.asarray(x)),
                                          8, 1.0)
        h = 1.0 / 8
        assert np.allclose(chain.pi, h, rtol=1e-13)
        a = np.asarray(chain.meta["a"])
        assert np.allclose(a[:-1], 1.0 / h ** 2, rtol=1e-13)

    def test_quadrature_against_refined_oracle(self):
        V = lambda x: 2.0 * np.asarray(x) ** 2
        cells = bl.models.fv_cell_averages(V, 16)
        oracle = bl.models.fv_cell_averages(V, 16, order=96)
        assert np.max(np.abs(cells - oracle) / oracle) <= 1e-13

    @staticmethod
    def _uncached_averages(V, n_cells, order=16, rtol=1e-12):
        """The doubling cell quadrature on a fresh leggauss rule per
        order; returns the averages and the last order used."""
        from numpy.polynomial.legendre import leggauss
        h = 1.0 / n_cells
        edges = np.linspace(0.0, 1.0, n_cells + 1)
        lo, hi = edges[:-1][:, None], edges[1:][:, None]

        def averages(npts):
            xg, wg = leggauss(npts)
            xs = 0.5 * (hi - lo) * xg[None, :] + 0.5 * (hi + lo)
            vals = np.exp(-np.asarray(V(xs), dtype=float))
            return (0.5 * (hi - lo) * (wg[None, :] * vals)).sum(axis=1) / h

        cur = averages(order)
        while True:
            order *= 2
            nxt = averages(order)
            if np.max(np.abs(nxt - cur) / np.abs(nxt)) <= rtol:
                return nxt, order
            cur = nxt

    @pytest.mark.parametrize("coeff,n_cells,last_order", [
        (2.0, 8, 32), (2.0, 128, 32), (200.0, 4, 64), (1000.0, 3, 256)])
    def test_cached_rule_equals_a_fresh_leggauss(self, coeff, n_cells,
                                                  last_order):
        V = lambda x: coeff * np.asarray(x) ** 2
        ref, order = self._uncached_averages(V, n_cells)
        assert order == last_order
        assert np.array_equal(bl.models.fv_cell_averages(V, n_cells), ref)

    def test_cached_rule_is_read_only(self):
        from numpy.polynomial.legendre import leggauss
        for npts in (16, 32, 256):
            x, w = bl.models._gauss_legendre(npts)
            fresh = leggauss(npts)
            assert np.array_equal(x, fresh[0]) and np.array_equal(w, fresh[1])
            assert bl.models._gauss_legendre(npts)[0] is x
            for arr in (x, w):
                with pytest.raises(ValueError):
                    arr[0] = 0.0

    def test_detailed_balance_exact(self):
        chain = bl.build_fokker_planck_fv(lambda x: 2.0 * np.asarray(x) ** 2,
                                          32, 4.0)
        a = np.asarray(chain.meta["a"])
        b = np.asarray(chain.meta["b"])
        resid = chain.pi[:-1] * a[:-1] - chain.pi[1:] * b[1:]
        scale = np.max(chain.pi[:-1] * a[:-1])
        assert np.max(np.abs(resid)) <= 1e-14 * scale

    def test_equals_birth_death_builder(self):
        V = lambda x: 2.0 * np.asarray(x) ** 2
        chain = bl.build_fokker_planck_fv(V, 16, 4.0)
        again = bl.build_birth_death(chain.meta["a"], chain.meta["b"])
        assert np.array_equal(chain.rates, again.rates)
        assert np.max(np.abs(chain.pi - again.pi)) <= 1e-14

    def test_chain_measure_convention(self):
        chain = bl.build_fokker_planck_fv(lambda x: 2.0 * np.asarray(x) ** 2,
                                          16, 4.0)
        p_cells = np.asarray(chain.meta["cell_averages"])
        h = chain.meta["h"]
        assert float(np.sum(h * p_cells)) == pytest.approx(1.0, abs=1e-13)
        assert np.max(np.abs(chain.pi - h * p_cells)) <= 1e-13


class TestErfAndMeshRate:
    def test_erf_basics(self):
        assert bl.erf(0.0) == 0.0
        rng = np.random.default_rng(1)
        for s in rng.uniform(0.0, 4.0, 20):
            assert bl.erf(-s) == -bl.erf(s)

    def test_erf_quadrature_oracle(self):
        assert abs(bl.erf(1.0) - simpson_erf(1.0)) <= 1e-10
        assert abs(bl.erf(0.25) - simpson_erf(0.25)) <= 1e-10

    def test_erf_shape_and_type(self):
        s = np.linspace(-6.0, 6.0, 24).reshape(4, 6)
        out = bl.erf(s)
        assert out.dtype == np.float64 and out.shape == s.shape
        assert np.array_equal(out, [[math.erf(v) for v in row] for row in s])
        assert type(bl.erf(0.5)) is float

    def test_lambda_h_second_order(self):
        lam = 4.0
        for h in (1.0 / 8, 1.0 / 16, 1.0 / 32):
            lh = bl.lambda_h(h, lam)
            assert 0.0 < lh < lam
            assert abs(lh - lam) <= 2.0 * lam ** 2 * h ** 2 / 3.0

    def test_lambda_h_monotone(self):
        lam = 4.0
        vals = [bl.lambda_h(h, lam) for h in (1.0 / 8, 1.0 / 16, 1.0 / 32)]
        assert vals[0] < vals[1] < vals[2] < lam

    def test_lambda_h_against_erf_oracle(self):
        h, lam = 0.25, 4.0
        s = math.sqrt(h * h * lam / 8.0)
        phi = (3.0 * simpson_erf(s, 200001) - simpson_erf(3.0 * s, 200001)) \
            / (2.0 * simpson_erf(s, 200001))
        assert bl.lambda_h(h, lam) == pytest.approx(2.0 / h ** 2 * phi, rel=1e-9)

    def test_tiny_mesh_series_branch(self):
        lam = 4.0
        lh = bl.lambda_h(1e-5, lam)
        assert lh == pytest.approx(lam, rel=1e-9)


class TestPaperLambda:
    def test_random_transposition_values(self):
        spec = bl.ModelSpec("random_transposition", {"n": 4})
        for alpha in (1.1, 1.5, 2.0):
            assert bl.paper_lambda(spec, alpha).value == pytest.approx(2.0 / 3.0)
        spec3 = bl.ModelSpec("random_transposition", {"n": 3})
        assert bl.paper_lambda(spec3, 1.5).value == pytest.approx(4.0 / 3.0)

    def test_zero_range_linear_rates(self):
        for c in (1.0, 2.5):
            spec = bl.ModelSpec("zero_range",
                                {"L": 3, "N": 3, "c_x": bl.linear_rate_table(3, 3, c)})
            const = bl.paper_lambda(spec, 1.5)
            assert const.value == pytest.approx(1.5 * c, rel=1e-14)

    def test_zero_range_hypothesis_violation(self):
        table = np.tile(np.array([0.0, 1.0, 10.0, 11.0]), (3, 1))
        spec = bl.ModelSpec("zero_range", {"L": 3, "N": 3, "c_x": table})
        with pytest.raises(HypothesisError):
            bl.paper_lambda(spec, 1.5)

    def test_bernoulli_laplace_references(self):
        spec = bl.ModelSpec("bernoulli_laplace",
                            {"L": 5, "N": 2, "lambda_x": 1.0})
        const = bl.paper_lambda(spec, 1.5)
        assert const.value == pytest.approx(1.5)
        L, alpha, c = 5, 1.5, 1.0
        assert const.references["sharper_homogeneous"] == pytest.approx(
            (alpha * L + 4 - 2 * alpha) * c / L)
        assert const.references["bobkov_tetali"] == pytest.approx(
            alpha * (L + 2) * c / (2 * L))

    def test_bernoulli_laplace_hypothesis(self):
        spec = bl.ModelSpec("bernoulli_laplace",
                            {"L": 4, "N": 2, "lambda_x": [1.0, 1.0, 1.0, 9.0]})
        with pytest.raises(HypothesisError):
            bl.paper_lambda(spec, 1.9)

    def test_birth_death_trap_family(self, specs):
        spec = specs["birth_death"]
        for alpha in (1.1, 1.5, 2.0):
            const = bl.paper_lambda(spec, alpha)
            # rate differences are (1, 1) at every active level, so the
            # curvature term is exactly 2 and the bound exactly 4
            assert const.value == pytest.approx(4.0, abs=1e-8)
            assert const.value >= 2.0 + 2.0 * (alpha - 1.0) - 1e-9

    def test_birth_death_monotonicity_hypotheses(self):
        spec = bl.ModelSpec("birth_death",
                            {"a": [1.0, 2.0, 0.0], "b": [0.0, 1.0, 2.0]})
        with pytest.raises(HypothesisError):
            bl.paper_lambda(spec, 1.5)

    def test_fv_constant(self):
        spec = bl.ModelSpec("fokker_planck_fv",
                            {"potential": {"kind": "quadratic", "coeff": 2.0},
                             "n_cells": 16, "lambda_conv": 4.0})
        const = bl.paper_lambda(spec, 1.5)
        assert const.value == pytest.approx(
            3.0 * bl.lambda_h(1.0 / 16, 4.0), rel=1e-14)


class TestPotentialConfig:
    def test_quadratic(self):
        V, Vpp = bl.potential_from_config({"kind": "quadratic", "coeff": 2.0})
        assert float(V(0.5)) == pytest.approx(0.5)
        assert float(Vpp(0.3)) == pytest.approx(4.0)

    def test_table_spline(self):
        xs = np.linspace(0.0, 1.0, 21)
        V, Vpp = bl.potential_from_config(
            {"kind": "table", "x": xs.tolist(), "v": (2 * xs ** 2).tolist()})
        assert float(V(0.5)) == pytest.approx(0.5, abs=1e-10)

    def test_unknown_kind(self):
        with pytest.raises(bl.ConfigError):
            bl.potential_from_config({"kind": "cubic"})
