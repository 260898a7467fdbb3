"""Auxiliary-function structure, its identities, and the key inequality."""

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
                                       trials=100, seed=0, tol=1e-10)
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
        rep = bl.verify_assumption(chain, broken, trials=100, seed=0)
        names = {c.name: c for c in rep.checks}
        assert names["symmetry"].passed
        assert not names["adjointness"].passed
        assert names["adjointness"].witness is not None

    def test_empty_support_vacuous(self, rt3):
        bs = bl.r_function(bl.ModelSpec("random_transposition", {"n": 3}), rt3)
        rep = bl.verify_assumption(rt3, bs, trials=10, seed=0)
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


def _adjointness_reference(chain, bs, trials, seed):
    """Residual and witness of the one-psi-per-trial adjointness loop."""
    S, G = chain.n_states, chain.n_moves
    rng = np.random.default_rng(seed)
    ii, gg, dd, vv = bs.eta, bs.gamma, bs.delta, bs.value
    tg = chain.targets[gg, ii]
    ginv = chain.inverse[gg]
    worst, worst_psi = 0.0, None
    for _ in range(trials):
        psi = rng.uniform(-1.0, 1.0, size=(S, G, G))
        lhs = float(np.sum(chain.pi[ii] * vv * psi[ii, gg, dd]))
        rhs = float(np.sum(chain.pi[ii] * vv * psi[tg, ginv, dd]))
        if abs(lhs - rhs) > worst:
            worst, worst_psi = abs(lhs - rhs), psi
    scale = max(float(np.sum(chain.pi[ii] * np.abs(vv))), 1e-300)
    k = None
    if worst_psi is not None:
        k = int(np.argmax(np.abs(chain.pi[ii] * vv * (
            worst_psi[ii, gg, dd] - worst_psi[tg, ginv, dd]))))
    return worst / scale, k


class TestChunkedAdjointness:
    def test_block_draws_are_the_single_draw_stream(self):
        a, b = np.random.default_rng(11), np.random.default_rng(11)
        blocks = [a.uniform(-1.0, 1.0, size=(c, 37)) for c in (7, 1, 5)]
        singles = [b.uniform(-1.0, 1.0, size=(37,)) for _ in range(13)]
        assert np.array_equal(np.vstack(blocks), np.array(singles))

    @pytest.mark.parametrize("rows", [1, 7, 100])
    def test_reports_do_not_depend_on_the_chunk(self, monkeypatch, acceptance,
                                                chains, structures, rows):
        from beckner_lab import bochner
        bs = structures["zero_range"]
        val = np.array(bs.value)
        val[0] *= 1.25              # as in test_perturbed_r_fails_adjointness
        mate = np.flatnonzero((bs.eta == bs.eta[0]) & (bs.gamma == bs.delta[0])
                              & (bs.delta == bs.gamma[0]))[0]
        if mate != 0:
            val[mate] *= 1.25
        broken = (chains["zero_range"],
                  bl.BochnerStructure(bs.eta, bs.gamma, bs.delta, val))
        for chain, bs in acceptance + [broken]:
            width = chain.n_states * chain.n_moves ** 2
            monkeypatch.setattr(bochner, "STACK_ELEMENTS", rows * width)
            rep = bl.verify_assumption(chain, bs, trials=100, seed=3)
            monkeypatch.setattr(bochner, "STACK_ELEMENTS", 100 * width)
            assert rep.to_dict() == bl.verify_assumption(
                chain, bs, trials=100, seed=3).to_dict()
            adj = {c.name: c for c in rep.checks}["adjointness"]
            residual, k = _adjointness_reference(chain, bs, 100, 3)
            assert adj.max_residual == residual
            if bs is broken[1]:
                assert not adj.passed
                assert adj.witness == {
                    "state": chain.keys[int(bs.eta[k])],
                    "moves": (chain.move_names[int(bs.gamma[k])],
                              chain.move_names[int(bs.delta[k])])}
