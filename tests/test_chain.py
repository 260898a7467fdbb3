"""Chain representation: generator, Dirichlet form, entropy, diagnostics."""

import json
import math
import warnings
from types import SimpleNamespace

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
            # a (T, S) stack of pairs gives one value per row
            F, G = np.random.default_rng(5).standard_normal(
                (2, 7, chain.n_states))
            sym = bl.dirichlet_form(chain, F, G)
            adj = [-float(np.sum(chain.pi * f * chain.apply_generator(g)))
                   for f, g in zip(F, G)]
            assert sym.shape == (7,)
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
        # two-state chain with mismatched pi: the gradient form would not
        # equal -pi[f Lg], so construction rejects the chain
        with pytest.raises(ReversibilityError):
            bl.FiniteChain([0, 1], ["swap"], np.array([[1, 0]]),
                           np.array([0]), np.array([[1.0], [1.0]]),
                           np.array([0.9, 0.1]))


class TestEntropy:
    def test_flat_density_zero(self, zr33):
        rho = bl.normalize_density(zr33, np.ones(zr33.n_states))
        for e in (bl.log_entropy(), bl.power_entropy(2.0), bl.power_entropy(1.5)):
            assert bl.entropy(zr33, e, rho) == pytest.approx(0.0, abs=1e-14)

    def test_quadratic_is_variance(self, bd8):
        rho = bl.random_density(bd8, np.random.default_rng(5), 1.0)
        ent = bl.entropy(bd8, bl.power_entropy(2.0), rho)
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


def perturbed_bd8_rates(bd8):
    """bd8's rates with the up rate at state 3 raised by 10%."""
    rates = np.array(bd8.rates)
    rates[3, 0] *= 1.1
    return rates


class TestReversibility:
    def test_builtin_models_pass(self, specs):
        # every builder's chain passes the detailed-balance check
        for name, spec in specs.items():
            assert isinstance(bl.build_model(spec), bl.FiniteChain), name

    def test_scale_chains_construct(self):
        # RT(7), BL(14,7) and ZR(5,8): 7!, C(14,7) and C(12,4) states
        for chain, n_states in (
                (bl.build_random_transposition(7), 5040),
                (bl.build_bernoulli_laplace(14, 7, 1.0), 3432),
                (bl.build_zero_range(5, 8, bl.linear_rate_table(5, 8)), 495)):
            assert chain.n_states == n_states

    def test_perturbed_rate_detected(self, bd8):
        with pytest.raises(ReversibilityError, match=r"at state [34],"):
            bl.FiniteChain(bd8.keys, bd8.move_names, bd8.targets,
                           bd8.inverse, perturbed_bd8_rates(bd8), bd8.pi)

    def test_two_state_witness(self):
        # rates 1 and 3 under the uniform law: flows 0.5 and 1.5 disagree
        with pytest.raises(ReversibilityError,
                           match=r"at state 0, move 'swap': flow 0\.5 "
                                 r"there, 1\.5 back"):
            bl.FiniteChain([0, 1], ["swap"], [[1, 0]], [0],
                           [[1.0], [3.0]], [0.5, 0.5])

    @pytest.mark.parametrize("inverse", [[1], [-1]])
    def test_inverse_out_of_range_rejected(self, inverse):
        with pytest.raises(DomainError, match="inverse table"):
            bl.FiniteChain([0, 1], ["swap"], [[1, 0]], inverse,
                           [[1.0], [1.0]], [0.5, 0.5])

    def test_inverse_witness_is_first_by_move_then_state(self):
        # on the 3-cycle each move is declared its own inverse; move 'a'
        # has rate 0 at state 0, so the first failure by move is ('a', 1)
        # and the first by state would be (0, 'b')
        cycle = [[1, 2, 0], [2, 0, 1]]
        rates = [[0.0, 1.0], [1.0, 1.0], [1.0, 1.0]]
        with pytest.raises(DomainError,
                           match=r"^inverse of move 'a' fails at state 1$"):
            bl.FiniteChain([0, 1, 2], ["a", "b"], cycle, [0, 1], rates,
                           [1 / 3, 1 / 3, 1 / 3])

    def test_pointwise_balance_agrees_with_random_f(self, chains, bd8):
        # the construction check and the randomized identity agree: every
        # built chain passes both, the perturbed rates fail both
        for chain in chains.values():
            assert randomized_identity(chain)
        rates = perturbed_bd8_rates(bd8)
        with pytest.raises(ReversibilityError):
            bl.FiniteChain(bd8.keys, bd8.move_names, bd8.targets,
                           bd8.inverse, rates, bd8.pi)
        assert not randomized_identity(SimpleNamespace(
            pi=bd8.pi, rates=rates, targets=bd8.targets, inverse=bd8.inverse,
            n_states=bd8.n_states, n_moves=bd8.n_moves))

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

    def test_array_protocol(self, rt3):
        # np.asarray gives the read-only values themselves; a cast or an
        # explicit copy gives a new array, with or without copy passed
        rho = bl.normalize_density(rt3, np.arange(1.0, rt3.n_states + 1))
        assert np.asarray(rho, float) is rho.values
        assert rho.__array__() is rho.values
        assert rho.__array__(float) is rho.values
        cast = rho.__array__(np.float32)
        assert cast.dtype == np.float32
        assert np.array_equal(cast, rho.values.astype(np.float32))
        copied = rho.__array__(copy=True)
        assert copied is not rho.values and copied.flags.writeable
        assert np.array_equal(copied, rho.values)
        assert np.array_equal(np.array(rho), rho.values)

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
        # the round-tripped chain passes the construction checks again
        back = bl.chain_from_json(bl.chain_to_json(zr33))
        assert np.array_equal(back.pi, zr33.pi)

    def test_unbalanced_rate_rejected_on_import(self, bd8):
        doc = json.loads(bl.chain_to_json(bd8))
        doc["rates"][3][2] *= 1.1
        with pytest.raises(ReversibilityError):
            bl.chain_from_json(json.dumps(doc))

    @pytest.mark.parametrize("field, index, value", [
        ("pi", 1, math.nan), ("pi", 2, math.inf), ("rates", 0, math.inf),
        ("rates", 1, math.nan)])
    def test_non_finite_rejected_on_import(self, field, index, value):
        doc = json.loads(bl.chain_to_json(
            bl.build_birth_death(*bl.mm_infinity_rates(3))))
        if field == "pi":
            doc["pi"][index] = value
        else:
            doc["rates"][index][2] = value
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(DomainError, match="must be finite"):
                bl.chain_from_json(json.dumps(doc))

    def test_non_finite_birth_death_rate_rejected(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            for a, b in (([2.0, math.nan, 0.0], [0.0, 1.0, 2.0]),
                         ([2.0, 1.0, 0.0], [0.0, math.inf, 2.0])):
                with pytest.raises(DomainError, match="must be finite"):
                    bl.build_birth_death(a, b)
