"""Auxiliary-function structure, its identities, and the key inequality."""

import tracemalloc

import numpy as np
import pytest

import beckner_lab as bl
from beckner_lab import DegeneracyError


def double_sum_oracle(chain, bs, chi, psi, beta):
    """Slow per-state/per-move-pair evaluation of both identity sides."""
    R = bs.r_dense(chain)
    lhs = rhs = 0.0
    for i in range(chain.n_states):
        for g in range(chain.n_moves):
            gi = chain.targets[g][i]
            for d in range(chain.n_moves):
                if R[i, g, d] == 0.0:
                    continue
                di = chain.targets[d][i]
                dgi = chain.targets[d][gi]
                w = chain.pi[i] * R[i, g, d]
                lhs += w * beta[i, di] * (chi[di] - chi[i]) * (psi[gi] - psi[i])
                F_here = beta[i, di] * (chi[di] - chi[i])
                F_moved = beta[gi, dgi] * (chi[dgi] - chi[gi])
                gdpsi = (psi[chain.targets[g][di]] - psi[di]) \
                    - (psi[gi] - psi[i])
                rhs += 0.25 * w * (F_moved - F_here) * gdpsi
    return lhs, rhs


def dense_r(chain):
    """R as an (S, G, G) array, built per family from dense products."""
    kind = chain.meta["model"]
    S, G = chain.n_states, chain.n_moves
    cc = chain.rates[:, :, None] * chain.rates[:, None, :]
    if kind in ("birth_death", "fokker_planck_fv"):
        a, b = np.asarray(chain.meta["a"]), np.asarray(chain.meta["b"])
        R = np.zeros((S, 2, 2))
        R[:, 0, 0] = a * np.append(a[1:], 0.0)
        R[:, 1, 1] = b * np.concatenate([[0.0], b[:-1]])
        R[:, 0, 1] = R[:, 1, 0] = a * b
        return R
    pairs = [tuple(p) for p in chain.meta["pairs"]]
    if kind == "zero_range":
        occ = np.asarray(chain.meta["occupancy"])
        table = np.asarray(chain.meta["rate_table"])
        c_here, c_less = np.empty((S, G)), np.empty((S, G))
        for m, (x, _) in enumerate(pairs):
            nx = occ[:, x]
            c_here[:, m] = table[x, nx]
            c_less[:, m] = np.where(nx >= 1, table[x, np.maximum(nx - 1, 0)],
                                    0.0)
        src = np.array([x for (x, _) in pairs])
        same = src[:, None] == src[None, :]
        R = c_here[:, :, None] * c_here[:, None, :]
        R *= ~same[None, :, :]
        R += (c_here[:, :, None] * c_less[:, None, :]) * same[None, :, :]
        return R / int(chain.meta["L"]) ** 2
    disjoint = np.array([[len({*p, *q}) == 4 for q in pairs] for p in pairs])
    if kind == "bernoulli_laplace":
        return cc * disjoint[None, :, :]
    n = int(chain.meta["n"])
    return np.ascontiguousarray(np.broadcast_to(
        disjoint[None, :, :], (S, G, G)) * (4.0 / (n ** 2 * (n - 1) ** 2)))


def dense_coo(chain):
    """(eta, gamma, delta, R) and (eta, gamma, delta, Gamma) read off the
    dense arrays in state-major, move-lexicographic order."""
    R = dense_r(chain)
    cc = chain.rates[:, :, None] * chain.rates[:, None, :]
    ii, gg, dd = np.nonzero(R)
    gi, gg2, gd = np.nonzero(cc > 0.0)
    return ((ii, gg, dd, R[ii, gg, dd]),
            (gi, gg2, gd, (cc - R)[gi, gg2, gd]))


def adjointness_oracle(chain, bs, trials=100, seed=0, tol=1e-10):
    """Verdict of the identity on random bounded psi."""
    S, G = chain.n_states, chain.n_moves
    rng = np.random.default_rng(seed)
    ii, gg, dd, vv = bs.eta, bs.gamma, bs.delta, bs.value
    tg = chain.targets[gg, ii]
    ginv = chain.inverse[gg]
    worst = 0.0
    for _ in range(trials):
        psi = rng.uniform(-1.0, 1.0, size=(S, G, G))
        lhs = float(np.sum(chain.pi[ii] * vv * psi[ii, gg, dd]))
        rhs = float(np.sum(chain.pi[ii] * vv * psi[tg, ginv, dd]))
        worst = max(worst, abs(lhs - rhs))
    scale = max(float(np.sum(chain.pi[ii] * np.abs(vv))), 1e-300)
    return worst <= tol * scale


class TestRFunction:
    def test_birth_death_values(self, specs, chains, structures):
        chain = chains["birth_death"]
        R = structures["birth_death"].r_dense(chain)
        a = np.asarray(chain.meta["a"])
        b = np.asarray(chain.meta["b"])
        up, down = 0, 1
        assert np.allclose(R[:, up, down], a * b, rtol=0, atol=0)
        assert np.allclose(R[:, down, up], a * b, rtol=0, atol=0)
        # cross remainder vanishes: Gamma(n, +, -) = 0
        gam = chain.rates[:, up] * chain.rates[:, down] - R[:, up, down]
        assert np.max(np.abs(gam)) == 0.0

    def test_zero_range_cross_remainder_vanishes(self, chains, structures):
        chain = chains["zero_range"]
        bs = structures["zero_range"]
        pairs = chain.meta["pairs"]
        cc = chain.rates[:, :, None] * chain.rates[:, None, :]
        gam = cc - bs.r_dense(chain)
        for m1, (x, _) in enumerate(pairs):
            for m2, (u, _) in enumerate(pairs):
                if x != u:
                    assert np.max(np.abs(gam[:, m1, m2])) == 0.0

    def test_random_transposition_values(self, rt3):
        spec = bl.ModelSpec("random_transposition", {"n": 3})
        bs = bl.r_function(spec, rt3)
        # no disjoint transposition pairs exist for n = 3
        assert bs.nnz == 0
        spec4 = bl.ModelSpec("random_transposition", {"n": 4})
        rt4 = bl.build_model(spec4)
        bs4 = bl.r_function(spec4, rt4)
        n = 4
        assert np.allclose(bs4.value, 4.0 / (n ** 2 * (n - 1) ** 2))
        cc = rt4.rates[:, :, None] * rt4.rates[:, None, :]
        gam = cc - bs4.r_dense(rt4)
        pairs = rt4.meta["pairs"]
        for m1, (i, j) in enumerate(pairs):
            for m2, (k, ell) in enumerate(pairs):
                expected = 0.0 if len({i, j, k, ell}) == 4 \
                    else 4.0 / (n ** 2 * (n - 1) ** 2)
                assert np.allclose(gam[:, m1, m2], expected, atol=1e-15)

    def test_dispatch_from_spec(self, specs, zr33):
        bs = bl.r_function(specs["zero_range"], zr33)
        assert bs.nnz > 0


class TestAssumption:
    def test_all_models_pass(self, chains, structures):
        for name in chains:
            rep = bl.verify_assumption(chains[name], structures[name],
                                       tol=1e-10)
            assert rep.passed, name

    def test_perturbed_r_fails_adjointness(self, chains, structures):
        chain = chains["zero_range"]
        bs = structures["zero_range"]
        val = np.array(bs.value)
        # perturb one symmetric pair of entries so only (ii) can fail
        k = 0
        i, g, d = bs.eta[k], bs.gamma[k], bs.delta[k]
        val[k] *= 1.25
        if g != d:
            mate = np.flatnonzero((bs.eta == i) & (bs.gamma == d)
                                  & (bs.delta == g))[0]
            val[mate] *= 1.25
        broken = bl.BochnerStructure(bs.eta, bs.gamma, bs.delta, val)
        rep = bl.verify_assumption(chain, broken)
        names = {c.name: c for c in rep.checks}
        assert names["symmetry"].passed
        assert not names["adjointness"].passed
        assert names["adjointness"].witness is not None

    def test_empty_support_vacuous(self, rt3):
        bs = bl.r_function(bl.ModelSpec("random_transposition", {"n": 3}), rt3)
        rep = bl.verify_assumption(rt3, bs)
        assert rep.passed


class TestSummationByParts:
    def test_constant_arguments_vanish(self, chains, structures):
        chain = chains["birth_death"]
        bs = structures["birth_death"]
        c = np.ones(chain.n_states)
        beta = np.ones((chain.n_states, chain.n_states))
        res = bl.bochner_identity_check(chain, bs, c, c, beta)
        assert res.gap == 0.0

    def test_unit_beta_birth_death(self, chains, structures):
        rng = np.random.default_rng(0)
        chain = chains["birth_death"]
        bs = structures["birth_death"]
        f = rng.standard_normal(chain.n_states)
        beta = np.ones((chain.n_states, chain.n_states))
        res = bl.bochner_identity_check(chain, bs, f, f, beta)
        assert res.passed

    def test_mean_weight_on_exclusion_model(self):
        chain = bl.build_bernoulli_laplace(4, 2, 1.0)
        spec = bl.ModelSpec("bernoulli_laplace",
                            {"L": 4, "N": 2, "lambda_x": 1.0})
        bs = bl.r_function(spec, chain)
        rng = np.random.default_rng(1)
        rho = bl.random_density(chain, rng, 1.0)
        chi = rng.standard_normal(chain.n_states)
        psi = rng.standard_normal(chain.n_states)
        mean = bl.MeanFunction(bl.power_entropy(1.5))
        beta = np.asarray(mean.theta(rho.values[:, None], rho.values[None, :]))
        res = bl.bochner_identity_check(chain, bs, chi, psi, beta)
        assert res.passed
        lhs, rhs = double_sum_oracle(chain, bs, chi, psi, beta)
        assert abs(lhs - rhs) <= 1e-10 * (abs(lhs) + abs(rhs) + 1.0)

    @pytest.mark.parametrize("alpha", [1.001, 1.5])
    def test_theta_weight_on_a_ten_decade_density(self, alpha):
        # theta of densities 1e10 apart in either order has the same bits
        a, b = [3.0, 2.0, 1.0, 0.0], [0.0, 1.0, 2.0, 3.0]
        chain = bl.build_birth_death(a, b)
        bs = bl.r_function(bl.ModelSpec("birth_death", {"a": a, "b": b}),
                           chain)
        rho = bl.normalize_density(chain, np.array([1.0, 1e-10, 1.0, 1e-10]))
        rng = np.random.default_rng(4)
        chi, psi = rng.standard_normal((2, chain.n_states))
        mean = bl.MeanFunction(bl.power_entropy(alpha))
        beta = np.asarray(mean.theta(rho.values[:, None], rho.values[None, :]))
        res = bl.bochner_identity_check(chain, bs, chi, psi, beta)
        assert res.passed
        lhs, rhs = double_sum_oracle(chain, bs, chi, psi, beta)
        assert abs(lhs - rhs) <= 1e-10 * (abs(lhs) + abs(rhs) + 1.0)

    def test_matches_double_sum_oracle(self, chains, structures):
        rng = np.random.default_rng(2)
        for name in ("zero_range", "random_transposition_4"):
            chain = chains[name]
            bs = structures[name]
            chi = rng.standard_normal(chain.n_states)
            psi = rng.standard_normal(chain.n_states)
            z = rng.standard_normal(chain.n_states)
            beta = 0.5 * (z[:, None] + z[None, :])
            res = bl.bochner_identity_check(chain, bs, chi, psi, beta)
            lhs, rhs = double_sum_oracle(chain, bs, chi, psi, beta)
            assert res.gap == pytest.approx(abs(lhs - rhs), abs=1e-12)
            assert res.passed

    def test_asymmetric_beta_rejected(self, chains, structures):
        chain = chains["birth_death"]
        beta = np.zeros((chain.n_states, chain.n_states))
        beta[0, 1] = 1.0
        with pytest.raises(bl.DomainError):
            bl.bochner_identity_check(chain, structures["birth_death"],
                                      np.ones(chain.n_states),
                                      np.ones(chain.n_states), beta)


class TestSecondGradientIdentity:
    def test_flat_density_vanishes(self, chains, structures):
        chain = chains["birth_death"]
        rho = bl.normalize_density(chain, np.ones(chain.n_states))
        res = bl.identity_3id_check(chain, structures["birth_death"], rho,
                                    bl.power_entropy(1.5))
        assert res == 0.0

    @pytest.mark.parametrize("name,entropy", [
        ("birth_death", bl.power_entropy(1.5)),
        ("zero_range", bl.power_entropy(1.2)),
        ("bernoulli_laplace", bl.log_entropy()),
    ])
    def test_random_densities(self, chains, structures, name, entropy):
        chain = chains[name]
        rng = np.random.default_rng(3)
        for k in range(10):
            rho = bl.random_density(chain, rng, (0.1, 1.0, 3.0)[k % 3])
            res = bl.identity_3id_check(chain, structures[name], rho, entropy,
                                        samples=500, seed=k)
            assert res <= 1e-10


class TestCurvatureInequality:
    def test_flat_density_gives_zero(self, chains, structures):
        chain = chains["zero_range"]
        rho = bl.normalize_density(chain, np.ones(chain.n_states))
        lhs, rhs = bl.proposition_sides(chain, structures["zero_range"],
                                        bl.power_entropy(1.5), rho)
        assert lhs == pytest.approx(0.0, abs=1e-13)
        assert rhs == pytest.approx(0.0, abs=1e-13)

    def test_inequality_on_random_sweep(self, chains, structures):
        rng = np.random.default_rng(4)
        for name in chains:
            chain = chains[name]
            for alpha in (1.1, 1.5, 2.0):
                e = bl.power_entropy(alpha)
                for k in range(30):
                    rho = bl.random_density(chain, rng, (0.1, 1.0, 3.0)[k % 3])
                    lhs, rhs = bl.proposition_sides(chain, structures[name],
                                                    e, rho)
                    assert lhs - rhs >= -1e-9 * abs(lhs), (name, alpha)

    def test_quadratic_remainder_oracle(self, chains, structures):
        # for the quadratic entropy the inequality gap equals the explicit
        # nonnegative remainder (1/4) pi[sum R (grad grad phi')^2]
        rng = np.random.default_rng(5)
        for name in ("birth_death", "random_transposition_4"):
            chain = chains[name]
            bs = structures[name]
            e = bl.quadratic_entropy()
            rho = bl.random_density(chain, rng, 1.0)
            lhs, rhs = bl.proposition_sides(chain, bs, e, rho)
            ii, gg, dd, vv = bs.eta, bs.gamma, bs.delta, bs.value
            f = e.d1(rho.values)
            g_eta = chain.targets[gg, ii]
            d_eta = chain.targets[dd, ii]
            gd_eta = chain.targets[gg, d_eta]
            ddf = (f[gd_eta] - f[d_eta]) - (f[g_eta] - f[ii])
            remainder = 0.25 * float(np.sum(chain.pi[ii] * vv * ddf ** 2))
            assert lhs - rhs == pytest.approx(remainder, rel=1e-10, abs=1e-12)

    def test_ratio_examples(self, chains, structures):
        rng = np.random.default_rng(6)
        chain = chains["birth_death"]
        bs = structures["birth_death"]
        e = bl.quadratic_entropy()
        vals = [bl.ineq_ratio(chain, bs, e,
                              bl.random_density(chain, rng, (0.1, 1.0, 3.0)[k % 3]))
                for k in range(100)]
        # trap-family bound at alpha = 2: rate differences (1,1) per level
        assert min(vals) >= 4.0 - 1e-9

        rt3 = chains["random_transposition_3"]
        bs3 = structures["random_transposition_3"]
        e15 = bl.power_entropy(1.5)
        vals3 = [bl.ineq_ratio(rt3, bs3, e15,
                               bl.random_density(rt3, rng, 1.0))
                 for _ in range(100)]
        assert min(vals3) >= 8.0 / 6.0 - 1e-9

    def test_linearization_matches_gap(self, chains, structures):
        chain = chains["bernoulli_laplace"]
        bs = structures["bernoulli_laplace"]
        from beckner_lab.constants import poincare_eigenvector, spectral_gap
        f = poincare_eigenvector(chain)
        rho = bl.Density(1.0 + 1e-4 * f / np.max(np.abs(f)))
        rho = bl.normalize_density(chain, rho.values)
        ratio = bl.ineq_ratio(chain, bs, bl.quadratic_entropy(), rho)
        assert ratio == pytest.approx(2.0 * spectral_gap(chain), rel=1e-3)

    def test_constant_density_degenerate(self, chains, structures):
        chain = chains["zero_range"]
        rho = bl.normalize_density(chain, np.ones(chain.n_states))
        with pytest.raises(DegeneracyError):
            bl.ineq_ratio(chain, structures["zero_range"],
                          bl.power_entropy(1.5), rho)

    def test_proven_constant_certifies_entropy_inequality(self, chains,
                                                          structures, specs):
        # the curvature inequality at a globally valid constant implies
        # lambda Ent(rho) <= E(phi'(rho), rho) for every density; a
        # finite ratio sweep only brackets that constant from above
        chain = chains["random_transposition_3"]
        bs = structures["random_transposition_3"]
        e = bl.power_entropy(1.5)
        lam = bl.paper_lambda(specs["random_transposition_3"], 1.5).value
        rng = np.random.default_rng(12)
        sweep = min(
            bl.ineq_ratio(chain, bs, e, bl.random_density(chain, rng, 1.0))
            for _ in range(200))
        assert sweep >= lam - 1e-9
        rng2 = np.random.default_rng(99)
        for _ in range(200):
            rho = bl.random_density(chain, rng2, 1.0)
            ent = bl.entropy(chain, e, rho)
            prod = 0.5 * bl.bochner.entropy_production(chain, e, rho)
            assert lam * ent <= prod + 1e-9 * prod


# ---------------------------------------------------------------------------
# stacked checks: each row equals its one-density call bit for bit
# ---------------------------------------------------------------------------

def _acceptance_specs():
    fv = [bl.ModelSpec("fokker_planck_fv",
                       {"potential": {"kind": "quadratic", "coeff": 2.0},
                        "n_cells": n, "lambda_conv": 4.0})
          for n in (8, 16, 32, 64, 128)]
    return [bl.ModelSpec("birth_death",
                         dict(zip(("a", "b"), bl.mm_infinity_rates(12)))),
            bl.ModelSpec("zero_range", {"L": 3, "N": 3,
                                        "c_x": bl.linear_rate_table(3, 3)}),
            bl.ModelSpec("bernoulli_laplace", {"L": 5, "N": 2,
                                               "lambda_x": 1.0}),
            bl.ModelSpec("random_transposition", {"n": 3}),
            bl.ModelSpec("random_transposition", {"n": 4})] + fv


def _draws(chain, seed, k=20):
    """k densities with a chi and a psi each, in the CLI's draw order."""
    rng = np.random.default_rng(seed)
    out = [(bl.random_density(chain, rng, (0.1, 1.0, 3.0)[j % 3]).values,
            rng.standard_normal(chain.n_states),
            rng.standard_normal(chain.n_states)) for j in range(k)]
    return tuple(np.array(col) for col in zip(*out))


@pytest.fixture(scope="module")
def acceptance():
    out = []
    for spec in _acceptance_specs():
        chain = bl.build_model(spec)
        out.append((chain, bl.r_function(spec, chain)))
    return out


def _pair_theta(mean, rho):
    return lambda x, y: mean.theta(np.take(rho, x, axis=-1),
                                   np.take(rho, y, axis=-1))


class TestStackedChecks:
    @pytest.mark.parametrize("alpha", [1.1, 1.5, 2.0])
    def test_rows_equal_one_density_calls(self, acceptance, alpha):
        e = bl.power_entropy(alpha)
        mean = bl.MeanFunction(e)
        for chain, bs in acceptance:
            rho, chi, psi = _draws(chain, 8)
            res = bl.bochner_identity_check(chain, bs, chi, psi,
                                            _pair_theta(mean, rho))
            ids = bl.identity_3id_check(chain, bs, rho, e, seed=7)
            lhs, rhs = bl.proposition_sides(chain, bs, e, rho)
            assert res.gap.shape == ids.shape == lhs.shape == (20,)
            for k in range(20):
                r = rho[k]
                beta = np.asarray(mean.theta(r[:, None], r[None, :]))
                one = bl.bochner_identity_check(chain, bs, chi[k], psi[k],
                                                beta)
                assert (res.gap[k], res.scale[k]) == (one.gap, one.scale)
                assert ids[k] == bl.identity_3id_check(
                    chain, bs, bl.Density(r), e, seed=7 + k)
                assert (lhs[k], rhs[k]) == bl.proposition_sides(
                    chain, bs, e, bl.Density(r))

    def test_empty_support_rows(self, acceptance):
        chain, bs = acceptance[3]
        assert chain.n_states == 6 and bs.nnz == 0
        rho, chi, psi = _draws(chain, 3, k=4)
        res = bl.bochner_identity_check(chain, bs, chi, psi,
                                        np.ones((6, 6)))
        assert np.array_equal(res.gap, np.zeros(4))
        assert np.array_equal(
            bl.identity_3id_check(chain, bs, rho, bl.log_entropy()),
            np.zeros(4))

    def test_generator_rows_equal_one_row_calls(self, acceptance):
        for chain, _ in acceptance:
            rho, chi, _ = _draws(chain, 5, k=6)
            stack = np.stack([rho, chi])            # (2, 6, S)
            out = chain.apply_generator(stack)
            for k in np.ndindex(stack.shape[:-1]):
                assert np.array_equal(out[k], chain.apply_generator(stack[k]))

    def test_generator_rejects_a_wrong_last_axis(self, rt3):
        for bad in (np.ones((4, 3)), np.ones((6, 4)), np.float64(1.0)):
            with pytest.raises(bl.DomainError):
                rt3.apply_generator(bad)

    def test_asymmetric_beta_rejected_in_either_orientation(self, chains,
                                                            structures):
        chain = chains["birth_death"]
        bs = structures["birth_death"]
        ones = np.ones((2, chain.n_states))
        for x, y in ((0, 1), (1, 0)):
            def beta(a, b, x=x, y=y):
                return np.where((a == x) & (b == y), 2.0, 1.0)
            with pytest.raises(bl.DomainError):
                bl.bochner_identity_check(chain, bs, ones, ones, beta)

    def test_row_chunks_cover_the_rows_in_order(self, monkeypatch):
        from beckner_lab import bochner
        monkeypatch.setattr(bochner, "STACK_ELEMENTS", 100)
        assert bochner.row_chunks(5, 30) == [slice(0, 3), slice(3, 5)]
        assert bochner.row_chunks(3, 1000) == [slice(0, 1), slice(1, 2),
                                               slice(2, 3)]
        assert bochner.row_chunks(4, 0) == [slice(0, 4)]


# ---------------------------------------------------------------------------
# the sparse R build and the pointwise structure checks against dense oracles
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def zr58():
    spec = bl.ModelSpec("zero_range", {"L": 5, "N": 8,
                                       "c_x": bl.linear_rate_table(5, 8)})
    chain = bl.build_model(spec)
    return chain, bl.r_function(spec, chain)


def _without(bs, drop):
    keep = np.ones(bs.nnz, dtype=bool)
    keep[drop] = False
    return bl.BochnerStructure(bs.eta[keep], bs.gamma[keep], bs.delta[keep],
                               bs.value[keep])


def _mate(bs, k):
    """Index of the (eta, delta, gamma) partner of triple k."""
    return np.flatnonzero((bs.eta == bs.eta[k]) & (bs.gamma == bs.delta[k])
                          & (bs.delta == bs.gamma[k]))[0]


def _perturbed(chains, structures):
    """(label, chain, structure) with one structural property broken."""
    zr, bs = chains["zero_range"], structures["zero_range"]
    k = int(np.flatnonzero(bs.gamma != bs.delta)[0])
    lopsided = np.array(bs.value)
    lopsided[k] *= 1.25                 # its mate keeps the old value
    scaled = np.array(bs.value)
    scaled[[0, _mate(bs, 0)]] *= 1.25   # symmetric, so only (ii) fails
    rt4, bs4 = chains["random_transposition_4"], \
        structures["random_transposition_4"]
    return [
        ("asymmetric", zr, bl.BochnerStructure(bs.eta, bs.gamma, bs.delta,
                                               lopsided)),
        ("scaled 1.25", zr, bl.BochnerStructure(bs.eta, bs.gamma, bs.delta,
                                                scaled)),
        # drop a triple and its mate: symmetric, but their T-partners
        # lose theirs
        ("missing T-partner", rt4, _without(bs4, [0, _mate(bs4, 0)])),
    ]


class TestSparseBuild:
    def test_triples_equal_the_dense_build(self, acceptance, zr58):
        for chain, bs in acceptance + [zr58]:
            (ii, gg, dd, vv), gam = dense_coo(chain)
            for got, want in zip((bs.eta, bs.gamma, bs.delta, bs.value),
                                 (ii, gg, dd, vv)):
                assert np.array_equal(got, want), chain.meta["model"]
            for got, want in zip(bs.gamma_coo(chain), gam):
                assert np.array_equal(got, want), chain.meta["model"]

    def test_at_reads_stored_values_and_zero_elsewhere(self, chains,
                                                       structures):
        chain, bs = chains["zero_range"], structures["zero_range"]
        G = chain.n_moves
        R = bs.r_dense(chain)
        keys = np.arange(chain.n_states * G * G)
        assert np.array_equal(bs.at(chain, keys), R.ravel())

    @pytest.mark.parametrize("breakage", ["reversed", "duplicate",
                                          "move out of range"])
    def test_unsorted_structures_are_rejected(self, chains, structures,
                                              breakage):
        chain = chains["bernoulli_laplace"]
        bs = structures["bernoulli_laplace"]
        arrays = [np.array(a) for a in (bs.eta, bs.gamma, bs.delta,
                                        bs.value)]
        if breakage == "reversed":
            arrays = [a[::-1] for a in arrays]
        elif breakage == "duplicate":
            arrays = [np.insert(a, 3, a[3]) for a in arrays]
        else:
            arrays[1][-1] = chain.n_moves
        broken = bl.BochnerStructure(*arrays)
        rho = bl.random_density(chain, np.random.default_rng(0), 1.0)
        with pytest.raises(bl.DomainError):
            bl.verify_assumption(chain, broken)
        with pytest.raises(bl.DomainError):
            bl.proposition_sides(chain, broken, bl.power_entropy(1.5), rho)

    def test_structure_checks_stay_below_one_dense_array(self):
        spec = bl.ModelSpec("bernoulli_laplace",
                            {"L": 10, "N": 5, "lambda_x": 1.0})
        chain = bl.build_model(spec)
        dense = chain.n_states * chain.n_moves ** 2 * 8
        tracemalloc.start()
        try:
            bs = bl.r_function(spec, chain)
            bs.gamma_coo(chain)
            rep = bl.verify_assumption(chain, bs)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert rep.passed
        assert peak < dense, (peak, dense)


class TestPointwiseStructure:
    def test_agrees_with_dense_and_random_psi_oracles(self, acceptance, zr58,
                                                      chains, structures):
        cases = [(chain.meta["model"], chain, bs)
                 for chain, bs in acceptance + [zr58]]
        cases += _perturbed(chains, structures)
        for label, chain, bs in cases:
            checks = {c.name: c for c in bl.verify_assumption(chain,
                                                              bs).checks}
            # (i) against R - R^T, first worst entry in C order
            R = bs.r_dense(chain)
            asym = np.abs(R - np.transpose(R, (0, 2, 1)))
            sym = checks["symmetry"]
            assert sym.max_residual == asym.max(), label
            if asym.max() > 0.0:
                i, g, d = np.unravel_index(np.argmax(asym), asym.shape)
                assert sym.witness == {
                    "state": chain.keys[i],
                    "moves": (chain.move_names[g], chain.move_names[d])}
            # (ii) w(x) against w(Tx) on the dense c c > 0 support, and
            # the verdict of random bounded psi
            W = chain.pi[:, None, None] * R
            W_T = W[chain.targets.T[:, :, None], chain.inverse[None, :, None],
                    np.arange(chain.n_moves)[None, None, :]]
            cc = chain.rates[:, :, None] * chain.rates[:, None, :]
            exact = np.max(np.abs(W - W_T), where=cc > 0.0, initial=0.0) \
                / max(np.sum(np.abs(W)), 1e-300)
            adj = checks["adjointness"]
            assert adj.max_residual == pytest.approx(exact, rel=1e-12,
                                                     abs=0.0), label
            assert adj.passed == adjointness_oracle(chain, bs), label
            assert (adj.witness is None) == adj.passed, label
            assert checks["commutation"].passed, label

    def test_perturbations_fail_the_intended_checks(self, chains, structures):
        verdicts = {label: {c.name: c.passed for c in
                            bl.verify_assumption(chain, bs).checks}
                    for label, chain, bs in _perturbed(chains, structures)}
        assert verdicts == {
            "asymmetric": {"symmetry": False, "adjointness": False,
                           "commutation": True},
            "scaled 1.25": {"symmetry": True, "adjointness": False,
                            "commutation": True},
            "missing T-partner": {"symmetry": True, "adjointness": False,
                                  "commutation": True}}


class TestSecondGradientSamples:
    @pytest.mark.parametrize("samples", [0, -3])
    def test_fewer_than_one_sample_is_rejected(self, chains, structures,
                                               samples):
        chain = chains["zero_range"]
        rho = bl.random_density(chain, np.random.default_rng(1), 1.0)
        with pytest.raises(bl.DomainError):
            bl.identity_3id_check(chain, structures["zero_range"], rho,
                                  bl.power_entropy(1.5), samples=samples)
