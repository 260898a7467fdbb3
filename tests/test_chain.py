"""Chain representation: generator, Dirichlet form, entropy, diagnostics."""

import numpy as np
import pytest

import beckner_lab as bl
from beckner_lab import DomainError, ReversibilityError


def dense_oracle(chain):
    """Explicitly assembled |S| x |S| generator (independent loop path)."""
    S = chain.n_states
    Q = np.zeros((S, S))
    for i in range(S):
        for g in range(chain.n_moves):
            j = chain.targets[g][i]
            c = chain.rates[i, g]
            Q[i, j] += c
            Q[i, i] -= c
    return Q


class TestGenerator:
    def test_constants_in_kernel(self, rt3):
        out = rt3.apply_generator(np.ones(rt3.n_states))
        assert np.max(np.abs(out)) == 0.0

    def test_two_state_closed_form(self, two_state):
        out = two_state.apply_generator(np.array([0.0, 1.0]))
        assert out == pytest.approx([1.5, -0.5])

    def test_matches_dense_oracle(self, rt3):
        rng = np.random.default_rng(0)
        Q = dense_oracle(rt3)
        for _ in range(5):
            f = rng.standard_normal(rt3.n_states)
            assert np.allclose(rt3.apply_generator(f), Q @ f,
                               rtol=0, atol=1e-12)

    def test_shape_check(self, rt3):
        with pytest.raises(DomainError):
            rt3.apply_generator(np.ones(3))


class TestDirichletForm:
    def test_constant_argument_vanishes(self, zr33):
        rng = np.random.default_rng(1)
        f = rng.standard_normal(zr33.n_states)
        assert bl.dirichlet_form(zr33, f, np.ones(zr33.n_states)) == pytest.approx(
            0.0, abs=1e-14)

    def test_two_state_indicator(self, two_state):
        # E(f, f) for f = 1_{state 0}: by hand, pi(0) a = 0.25 * 1.5
        f = np.array([1.0, 0.0])
        val = bl.dirichlet_form(two_state, f, f)
        assert val == pytest.approx(two_state.pi[0] * 1.5, rel=1e-14)

    def test_equals_adjoint_form(self, chains):
        rng = np.random.default_rng(2)
        for chain in chains.values():
            for _ in range(100):
                f = rng.standard_normal(chain.n_states)
                g = rng.standard_normal(chain.n_states)
                sym = bl.dirichlet_form(chain, f, g)
                adj = -float(np.sum(chain.pi * f * chain.apply_generator(g)))
                assert sym == pytest.approx(adj, rel=1e-10, abs=1e-12)

    def test_symmetry_and_positivity(self, bl52):
        rng = np.random.default_rng(3)
        f = rng.standard_normal(bl52.n_states)
        g = rng.standard_normal(bl52.n_states)
        assert bl.dirichlet_form(bl52, f, g) == pytest.approx(
            bl.dirichlet_form(bl52, g, f), rel=1e-12)
        assert bl.dirichlet_form(bl52, f, f) >= 0.0

    def test_zero_energy_iff_constant(self, rt4):
        rng = np.random.default_rng(4)
        f = rng.standard_normal(rt4.n_states)
        assert bl.dirichlet_form(rt4, f, f) > 1e-6
        assert bl.dirichlet_form(rt4, np.full(rt4.n_states, 3.7),
                                 np.full(rt4.n_states, 3.7)) == 0.0

    def test_non_reversible_raises(self):
        # two-state chain with mismatched pi: the two forms disagree
        bad = bl.FiniteChain([0, 1], ["swap"], np.array([[1, 0]]),
                             np.array([0]), np.array([[1.0], [1.0]]),
                             np.array([0.9, 0.1]))
        f = np.array([1.0, 0.0])
        g = np.array([0.0, 1.0])
        with pytest.raises(ReversibilityError):
            bl.dirichlet_form(bad, f, g)


class TestEntropy:
    def test_flat_density_zero(self, zr33):
        rho = bl.normalize_density(zr33, np.ones(zr33.n_states))
        for e in (bl.log_entropy(), bl.quadratic_entropy(), bl.power_entropy(1.5)):
            assert bl.entropy(zr33, e, rho) == pytest.approx(0.0, abs=1e-14)

    def test_quadratic_is_variance(self, bd8):
        rho = bl.random_density(bd8, np.random.default_rng(5), 1.0)
        ent = bl.entropy(bd8, bl.quadratic_entropy(), rho)
        var = float(np.sum(bd8.pi * rho.values ** 2) - 1.0)
        assert ent == pytest.approx(var, rel=1e-10)

    def test_direct_summation_oracle(self, zr33):
        rho = bl.random_density(zr33, np.random.default_rng(6), 1.0)
        e = bl.power_entropy(1.5)
        direct = sum(zr33.pi[i] * e.eval(rho.values[i])
                     for i in range(zr33.n_states))
        assert bl.entropy(zr33, e, rho) == pytest.approx(direct, rel=1e-12)

    def test_relabel_invariance(self, bd8):
        rng = np.random.default_rng(7)
        rho = bl.random_density(bd8, rng, 1.0)
        perm = rng.permutation(bd8.n_states)
        inv = np.argsort(perm)
        relabeled = bl.FiniteChain(
            keys=[bd8.keys[i] for i in perm],
            move_names=bd8.move_names,
            targets=np.array([inv[bd8.targets[g][perm]]
                              for g in range(bd8.n_moves)]),
            inverse=bd8.inverse,
            rates=bd8.rates[perm],
            pi=bd8.pi[perm])
        rho2 = bl.Density(rho.values[perm])
        e = bl.log_entropy()
        assert bl.entropy(relabeled, e, rho2) == pytest.approx(
            bl.entropy(bd8, e, rho), rel=1e-12)


def randomized_identity(chain, trials=100, seed=0, tol=1e-10):
    """Verdict of pi[sum_g c F(eta,g)] = pi[sum_g c F(g eta, g^-1)] on
    random bounded F."""
    rng = np.random.default_rng(seed)
    flow = chain.pi[:, None] * chain.rates
    worst = 0.0
    for _ in range(trials):
        F = rng.uniform(-1.0, 1.0, size=(chain.n_states, chain.n_moves))
        rhs = sum(float(np.sum(flow[:, g] * F[chain.targets[g],
                                              chain.inverse[g]]))
                  for g in range(chain.n_moves))
        worst = max(worst, abs(float(np.sum(flow * F)) - rhs))
    return worst <= tol * max(float(np.sum(flow)), 1e-300)


class TestReversibility:
    def test_builtin_models_pass(self, chains):
        for name, chain in chains.items():
            rep = bl.check_reversibility(chain)
            assert rep.passed, name
            assert [c.name for c in rep.checks] == ["pointwise_flow_balance"]

    def test_perturbed_rate_detected(self, bd8):
        rates = np.array(bd8.rates)
        rates[3, 0] *= 1.1
        broken = bl.FiniteChain(bd8.keys, bd8.move_names, bd8.targets,
                                bd8.inverse, rates, bd8.pi)
        rep = bl.check_reversibility(broken)
        assert not rep.passed
        witness = rep.failures()[0].witness
        assert witness["state"] in (3, 4)

    def test_pointwise_balance_agrees_with_random_f(self, chains, bd8):
        rates = np.array(bd8.rates)
        rates[3, 0] *= 1.1
        broken = bl.FiniteChain(bd8.keys, bd8.move_names, bd8.targets,
                                bd8.inverse, rates, bd8.pi)
        for chain in [*chains.values(), broken]:
            assert bl.check_reversibility(chain).passed == \
                randomized_identity(chain)
        assert not randomized_identity(broken)

    def test_stationarity_on_indicators(self, chains):
        for chain in chains.values():
            maxrate = float(np.max(chain.rates))
            for i in range(chain.n_states):
                f = np.zeros(chain.n_states)
                f[i] = 1.0
                resid = abs(float(np.sum(chain.pi * chain.apply_generator(f))))
                assert resid <= 1e-12 * max(maxrate, 1.0)

    def test_self_adjointness(self, chains):
        rng = np.random.default_rng(8)
        for chain in chains.values():
            for _ in range(100):
                f = rng.standard_normal(chain.n_states)
                g = rng.standard_normal(chain.n_states)
                a = float(np.sum(chain.pi * f * chain.apply_generator(g)))
                b = float(np.sum(chain.pi * g * chain.apply_generator(f)))
                assert a == pytest.approx(b, rel=1e-10, abs=1e-12)


class TestDensity:
    def test_constant_rescale(self, rt3):
        rho = bl.normalize_density(rt3, np.full(rt3.n_states, 5.0))
        assert np.allclose(rho.values, 1.0, rtol=0, atol=1e-15)

    def test_indicator_normalization(self, bd8):
        raw = np.zeros(bd8.n_states)
        raw[2] = 1.0
        rho = bl.normalize_density(bd8, raw)
        assert rho.values[2] == pytest.approx(1.0 / bd8.pi[2], rel=1e-9)

    def test_mean_one(self, bl52):
        rng = np.random.default_rng(9)
        for _ in range(20):
            rho = bl.normalize_density(bl52, rng.uniform(0.0, 4.0, bl52.n_states))
            assert float(np.sum(bl52.pi * rho.values)) == pytest.approx(
                1.0, abs=1e-12)

    def test_all_zero_rejected(self, rt3):
        with pytest.raises(DomainError):
            bl.normalize_density(rt3, np.zeros(rt3.n_states))

    def test_positivity_enforced(self):
        with pytest.raises(DomainError):
            bl.Density(np.array([1.0, 0.0]))


class TestJsonRoundTrip:
    def test_bit_exact(self, chains):
        for chain in chains.values():
            text = bl.chain_to_json(chain)
            back = bl.chain_from_json(text)
            assert back.keys == chain.keys
            assert np.array_equal(back.rates, chain.rates)
            assert np.array_equal(back.targets, chain.targets)
            assert np.allclose(back.pi, chain.pi, rtol=0, atol=1e-16)
            assert bl.chain_to_json(back) == text

    def test_imported_chain_works(self, zr33):
        back = bl.chain_from_json(bl.chain_to_json(zr33))
        assert bl.check_reversibility(back).passed
