"""Exact evolution, derivative identities, and decay-rate fitting."""

import math

import numpy as np
import pytest

import beckner_lab as bl
from beckner_lab import DomainError


class TestEvolve:
    def test_flat_start_stays_flat(self, rt3):
        rho0 = bl.normalize_density(rt3, np.ones(rt3.n_states))
        traj = bl.evolve(rt3, bl.log_entropy(), rho0, [0.0, 0.5, 2.0])
        assert np.max(np.abs(traj.densities - 1.0)) <= 1e-12
        assert np.max(traj.entropy_values) <= 1e-14

    def test_two_state_closed_form(self, two_state):
        a, b = 1.5, 0.5
        rho0 = bl.normalize_density(two_state, np.array([2.0, 0.5]))
        times = np.array([0.0, 0.3, 1.0])
        traj = bl.evolve(two_state, bl.power_entropy(2.0), rho0, times)
        # deviation from equilibrium relaxes at rate a + b
        dev0 = rho0.values - 1.0
        for k, t in enumerate(times):
            expected = 1.0 + dev0 * math.exp(-(a + b) * t)
            assert np.allclose(traj.densities[k], expected, rtol=1e-12)

    def test_matches_rk4_oracle(self, chains):
        rng = np.random.default_rng(0)
        for chain in chains.values():
            rho0 = bl.random_density(chain, rng, 1.0)
            traj = bl.evolve(chain, bl.log_entropy(), rho0, [0.0, 0.4])
            rk = bl.evolve_rk4(chain, rho0, 0.4, dt=1e-4)
            assert np.max(np.abs(traj.densities[1] - rk)) <= 1e-8

    def test_mass_conservation(self, zr33):
        rho0 = bl.random_density(zr33, np.random.default_rng(1), 3.0)
        traj = bl.evolve(zr33, bl.power_entropy(1.5), rho0,
                         np.linspace(0.0, 4.0, 30))
        means = traj.densities @ (zr33.pi)
        assert np.max(np.abs(means - 1.0)) <= 1e-10

    def test_mass_conserved_at_large_t(self, rt4):
        # eigenvector round-off must not leak into the stationary mode
        fv = bl.build_fokker_planck_fv(lambda x: 2.0 * np.asarray(x) ** 2,
                                       64, 4.0)
        for chain in (fv, rt4):
            rho0 = bl.random_density(chain, np.random.default_rng(1), 1.0)
            traj = bl.evolve(chain, bl.log_entropy(), rho0,
                             np.linspace(0.0, 200.0, 50))
            means = traj.densities @ chain.pi
            assert np.max(np.abs(means - 1.0)) <= 1e-15

    def test_positivity_lower_bound(self, bl52):
        rho0 = bl.random_density(bl52, np.random.default_rng(2), 3.0)
        maxrate = float(np.max(bl52.rates.sum(axis=1)))
        times = np.linspace(0.0, 2.0, 10)
        traj = bl.evolve(bl52, bl.log_entropy(), rho0, times)
        floor = float(np.min(rho0.values)) * np.exp(-times * maxrate)
        assert np.all(traj.densities.min(axis=1) >= floor - 1e-12)

    def test_semigroup_property(self, rt4):
        rho0 = bl.random_density(rt4, np.random.default_rng(3), 1.0)
        e = bl.log_entropy()
        one = bl.evolve(rt4, e, rho0, [0.0, 0.7])
        two = bl.evolve(rt4, e, bl.Density(one.densities[1]), [0.0, 0.5])
        direct = bl.evolve(rt4, e, rho0, [0.0, 1.2])
        assert np.max(np.abs(two.densities[1] - direct.densities[1])) <= 1e-9

    def test_monotone_entropy_nonneg_production(self, bd8):
        rho0 = bl.random_density(bd8, np.random.default_rng(4), 1.0)
        traj = bl.evolve(bd8, bl.power_entropy(1.3), rho0,
                         np.linspace(0.0, 3.0, 40))
        assert np.all(np.diff(traj.entropy_values) <= 1e-10)
        assert np.all(traj.dirichlet_values >= -1e-14)

    def test_bad_times_rejected(self, rt3):
        rho0 = bl.normalize_density(rt3, np.ones(rt3.n_states))
        with pytest.raises(DomainError):
            bl.evolve(rt3, bl.log_entropy(), rho0, [0.0, 0.0])
        with pytest.raises(DomainError):
            bl.evolve(rt3, bl.log_entropy(), rho0, [-1.0, 1.0])
        for bad in (math.inf, math.nan):
            with pytest.raises(DomainError, match="times must be finite"):
                bl.evolve(rt3, bl.log_entropy(), rho0, [0.0, bad])

    def test_a_row_gives_the_bits_of_its_density(self, acceptance_chains):
        e = bl.power_entropy(1.5)
        for k, chain in enumerate(acceptance_chains):
            rho0 = bl.random_density(chain, np.random.default_rng(k), 1.0)
            row = np.array(rho0.values)
            one = bl.evolve(chain, e, rho0, [0.0, 0.3, 1.0])
            two = bl.evolve(chain, e, row, [0.0, 0.3, 1.0])
            for name in ("densities", "entropy_values", "dirichlet_values"):
                assert np.array_equal(getattr(one, name), getattr(two, name))
            assert np.array_equal(bl.evolve_rk4(chain, rho0, 0.01, 1e-3),
                                  bl.evolve_rk4(chain, row, 0.01, 1e-3))
            a = bl.run_decay(chain, e, rho0, 0.1, t_end=1.0, n_points=5)
            b = bl.run_decay(chain, e, row, 0.1, t_end=1.0, n_points=5)
            assert a.rate == b.rate and a.certified == b.certified

    def test_unnormalized_start_rejected(self, rt3):
        # propagation pins the mass at one, so a start off it is an error
        with pytest.raises(DomainError):
            bl.evolve(rt3, bl.log_entropy(),
                      bl.Density(np.full(rt3.n_states, 2.0)), [0.0, 1.0])
        # so is a plain row that is not strictly positive
        for bad in (0.0, -1.0, math.nan):
            row = np.ones(rt3.n_states)
            row[0] = bad
            with pytest.raises(DomainError, match="strictly positive"):
                bl.evolve(rt3, bl.log_entropy(), row, [0.0, 1.0])


class TestDerivativeIdentities:
    def test_richardson_halving(self, rt4):
        rho0 = bl.random_density(rt4, np.random.default_rng(5), 1.0)
        e = bl.power_entropy(1.5)

        def worst_residual(dt):
            times = np.arange(0.0, 0.5 + dt / 2, dt)
            traj = bl.evolve(rt4, e, rho0, times)
            rep = bl.derivative_identity_check(rt4, e, traj)
            return max(c.max_residual for c in rep.checks)

        r1 = worst_residual(1e-3)
        r2 = worst_residual(5e-4)
        assert r1 / r2 == pytest.approx(4.0, rel=0.2)

    def test_stationary_start(self, rt3):
        rho0 = bl.normalize_density(rt3, np.ones(rt3.n_states))
        traj = bl.evolve(rt3, bl.log_entropy(), rho0, np.linspace(0, 1, 11))
        rep = bl.derivative_identity_check(rt3, bl.log_entropy(), traj)
        assert rep.passed
        assert all(c.max_residual <= 1e-12 for c in rep.checks)

    def test_quadratic_variance_production(self, bd8):
        # d/dt Var = -2 E(rho, rho)
        rho0 = bl.random_density(bd8, np.random.default_rng(6), 1.0)
        e = bl.power_entropy(2.0)
        traj = bl.evolve(bd8, e, rho0, np.linspace(0.0, 0.2, 201))
        k = 100
        r = traj.densities[k]
        dvar = (traj.entropy_values[k + 1] - traj.entropy_values[k - 1]) \
            / (traj.times[k + 1] - traj.times[k - 1])
        prod = bl.dirichlet_form(bd8, r, r)
        assert dvar == pytest.approx(-2.0 * prod, rel=1e-4)
        # and E(phi'(rho), rho) = 2 E(rho, rho) since phi' = 2 rho - 2
        assert traj.dirichlet_values[k] == pytest.approx(2.0 * prod, rel=1e-10)

    def test_stacked_second_derivative_equals_the_sample_loop(self, rt3,
                                                              rt4, bd8):
        cases = [
            (rt4, bl.power_entropy(1.5), 5, np.arange(0.0, 0.5 + 5e-4, 1e-3)),
            (rt3, bl.log_entropy(), None, np.linspace(0, 1, 11)),
            (bd8, bl.power_entropy(2.0), 6, np.linspace(0.0, 0.2, 201)),
        ]
        for chain, e, seed, times in cases:
            rho0 = bl.normalize_density(chain, np.ones(chain.n_states)) \
                if seed is None else \
                bl.random_density(chain, np.random.default_rng(seed), 1.0)
            traj = bl.evolve(chain, e, rho0, times)
            loop = []
            for r in traj.densities[1:-1]:
                Lr = chain.apply_generator(r)
                Lf = chain.apply_generator(e.d1(np.maximum(r, 1e-300)))
                loop.append(float(np.sum(chain.pi * (
                    Lf * Lr + e.d2(np.maximum(r, 1e-300)) * Lr * Lr))))
            stacked = bl.chain.entropy_second_derivative(
                chain, e, np.maximum(traj.densities[1:-1], 1e-300))
            assert stacked.tolist() == loop
            dt = times[1] - times[0]
            ent = traj.entropy_values
            fd = (ent[2:] - 2.0 * ent[1:-1] + ent[:-2]) / dt ** 2
            want = float(np.max(np.abs(fd - np.array(loop)))) \
                / float(np.max(np.abs(loop)) + 1.0)
            rep = bl.derivative_identity_check(chain, e, traj)
            assert rep.checks[1].max_residual == want

    def test_too_few_points(self, rt3):
        rho0 = bl.normalize_density(rt3, np.ones(rt3.n_states))
        traj = bl.evolve(rt3, bl.log_entropy(), rho0, [0.0, 1.0])
        with pytest.raises(DomainError):
            bl.derivative_identity_check(rt3, bl.log_entropy(), traj)


def longest_run_above_floor(ent):
    """(start, stop) of the first longest run of entropy samples above
    ENTROPY_FLOOR: the window of the rate fit."""
    best, start = (0, 0), None
    for k, above in enumerate(list(ent > bl.dynamics.ENTROPY_FLOOR) + [False]):
        if above and start is None:
            start = k
        elif not above and start is not None:
            if k - start > best[1] - best[0]:
                best = (start, k)
            start = None
    return best


class TestFitDecay:
    def test_two_state_quadratic_rate(self, two_state):
        # variance of the two-state chain decays at exactly 2(a + b)
        rho0 = bl.normalize_density(two_state, np.array([1.6, 0.7]))
        traj = bl.evolve(two_state, bl.power_entropy(2.0), rho0,
                         np.linspace(0.0, 1.0, 101))
        rate = bl.fit_decay_rate(traj)
        assert rate == pytest.approx(2.0 * 2.0, rel=1e-9)

    def test_transposition_walk_bound(self, rt4):
        rng = np.random.default_rng(7)
        e = bl.power_entropy(1.5)
        for _ in range(3):
            rho0 = bl.random_density(rt4, rng, 1.0)
            traj = bl.evolve(rt4, e, rho0, np.linspace(0.0, 6.0, 61))
            rate = bl.fit_decay_rate(traj)
            assert rate >= 2.0 / 3.0 - 1e-9

    def test_gap_eigenvector_rate(self, bd8):
        from beckner_lab.constants import poincare_eigenvector, spectral_gap
        f = poincare_eigenvector(bd8)
        rho0 = bl.normalize_density(bd8, 1.0 + 1e-4 * f)
        traj = bl.evolve(bd8, bl.power_entropy(2.0), rho0,
                         np.linspace(0.0, 0.5, 51))
        rate = bl.fit_decay_rate(traj)
        assert rate == pytest.approx(2.0 * spectral_gap(bd8), rel=1e-6)

    def test_window_handling(self, two_state):
        rho0 = bl.normalize_density(two_state, np.array([1.6, 0.7]))
        traj = bl.evolve(two_state, bl.power_entropy(2.0), rho0,
                         np.linspace(0.0, 30.0, 301))
        # entropy converges below the floor before t = 30, so the fit
        # window ends early
        start, stop = longest_run_above_floor(traj.entropy_values)
        assert traj.times[stop - 1] < 30.0
        assert bl.fit_decay_rate(traj) == \
            np.min(traj.instantaneous_rate()[start + 1:stop - 1])


    def test_fit_reads_instantaneous_rate(self, two_state):
        rho0 = bl.normalize_density(two_state, np.array([1.6, 0.7]))
        traj = bl.evolve(two_state, bl.power_entropy(2.0), rho0,
                         np.linspace(0.0, 30.0, 301))
        inst = traj.instantaneous_rate()
        assert np.isnan(inst[0]) and np.isnan(inst[-1])
        assert np.all(np.isfinite(inst[1:-1]))
        # the fit's infimum is the same float array on the interior of the
        # samples it kept (entropy above the floor)
        start, stop = longest_run_above_floor(traj.entropy_values)
        assert bl.fit_decay_rate(traj) == np.min(inst[start + 1:stop - 1])


class TestDirichletDecay:
    def test_certified_rate_passes(self, rt4):
        rho0 = bl.random_density(rt4, np.random.default_rng(8), 1.0)
        e = bl.power_entropy(1.5)
        traj = bl.evolve(rt4, e, rho0, np.linspace(0.0, 5.0, 41))
        rep = bl.dirichlet_decay_check(traj, 2.0 / 3.0)
        assert rep.passed

    def test_inflated_rate_fails(self, rt4):
        rho0 = bl.random_density(rt4, np.random.default_rng(9), 1.0)
        e = bl.power_entropy(1.5)
        traj = bl.evolve(rt4, e, rho0, np.linspace(0.0, 5.0, 41))
        rep = bl.dirichlet_decay_check(traj, 10.0 * 2.0 / 3.0)
        assert not rep.passed
        assert rep.witness is not None

    def test_stationary_trivial(self, rt3):
        rho0 = bl.normalize_density(rt3, np.ones(rt3.n_states))
        traj = bl.evolve(rt3, bl.log_entropy(), rho0, np.linspace(0, 1, 11))
        assert bl.dirichlet_decay_check(traj, 1.0).passed


class TestRunDecay:
    def test_certifies_models(self, chains, specs):
        rng = np.random.default_rng(10)
        for name in ("random_transposition_4", "zero_range"):
            chain = chains[name]
            const = bl.paper_lambda(specs[name], 1.5)
            rho0 = bl.random_density(chain, rng, 1.0)
            rep = bl.run_decay(chain, bl.power_entropy(1.5), rho0, const.value)
            assert rep.certified, name

    def test_nonpositive_constant_rejected(self, rt4):
        rho0 = bl.random_density(rt4, np.random.default_rng(11), 1.0)
        for lam in (0.0, -0.5):
            with pytest.raises(bl.HypothesisError, match="not positive"):
                bl.run_decay(rt4, bl.power_entropy(1.5), rho0, lam)

    def test_inflated_bound_not_certified(self, rt4):
        rho0 = bl.random_density(rt4, np.random.default_rng(11), 1.0)
        rep = bl.run_decay(rt4, bl.power_entropy(1.5), rho0, 10.0 * 2.0 / 3.0)
        assert not rep.certified


# ---------------------------------------------------------------------------
# trajectory functionals on (T, S) stacks
# ---------------------------------------------------------------------------

ENTROPIES = [bl.power_entropy(a) for a in (1.1, 1.5, 2.0)] + \
    [bl.log_entropy(), bl.power_entropy(2.0)]


@pytest.fixture(scope="module")
def acceptance_chains(bd12, zr33, bl52, rt3, rt4):
    fv = [bl.build_fokker_planck_fv(lambda x: 2.0 * np.asarray(x) ** 2, n, 4.0)
          for n in (8, 16, 32, 64, 128)]
    return [bd12, zr33, bl52, rt3, rt4] + fv


def _density_stack(chain, seed):
    """Densities far from, near and at the flat one, one per row."""
    rng = np.random.default_rng(seed)
    rows = [bl.random_density(chain, rng, amp).values
            for amp in (0.1, 1.0, 3.0, 0.1, 1.0, 3.0)]
    for eps in (1e-5, 1e-9):
        rows.append(bl.normalize_density(
            chain, 1.0 + eps * rng.standard_normal(chain.n_states)).values)
    rows.append(np.ones(chain.n_states))
    return np.array(rows)


def _reference_functionals(chain, e, dens):
    """Entropy and half the production, one sample at a time, each a
    pairwise sum per move added up in move order."""
    ent, dir_ = [], []
    for row in dens:
        r = np.maximum(row, 1e-300)
        ent.append(float(np.sum(chain.pi * e.eval(r))))
        f = e.d1(r)
        total = 0.0
        for g in range(chain.n_moves):
            tg = chain.targets[g]
            total += float(np.sum(chain.pi * chain.rates[:, g]
                                  * (f[tg] - f) * (r[tg] - r)))
        dir_.append(0.5 * total)
    return np.array(ent), np.array(dir_)


def _stacked_production(chain, e, r):
    """pi[sum_g c grad_g phi'(rho) grad_g rho] on a (T, S) stack, one
    per-row sum per move added in move order."""
    f = e.d1(r)
    total = np.zeros(r.shape[:-1])
    for g in range(chain.n_moves):
        tg = chain.targets[g]
        total += np.add.reduce(chain.pi * chain.rates[:, g]
                               * (f[..., tg] - f) * (r[..., tg] - r), axis=-1)
    return total


class TestStackedFunctionals:
    def test_rows_equal_one_density_calls(self, acceptance_chains):
        for k, chain in enumerate(acceptance_chains):
            stack = _density_stack(chain, k)
            for e in ENTROPIES:
                ent = bl.entropy(chain, e, stack)
                prod = bl.dirichlet_form(chain, e.d1(stack), stack)
                assert ent.shape == prod.shape == (len(stack),)
                for i, row in enumerate(stack):
                    one = bl.entropy(chain, e, bl.Density(row))
                    assert type(one) is float
                    assert ent[i] == one == bl.entropy(chain, e, row)
                    one = bl.dirichlet_form(chain, e.d1(row), row)
                    assert type(one) is float
                    assert prod[i] == one

    def test_evolve_keeps_the_stacked_production(self, acceptance_chains):
        # the stored values are 0.5 pi[sum_g c grad_g phi'(rho) grad_g rho]
        # summed on the whole stack, bit for bit
        times = np.linspace(0.0, 30.0, 41)
        for k, chain in enumerate(acceptance_chains):
            rho0 = bl.random_density(chain, np.random.default_rng(k), 1.0)
            for e in ENTROPIES:
                traj = bl.evolve(chain, e, rho0, times)
                want = 0.5 * _stacked_production(
                    chain, e, np.maximum(traj.densities, 1e-300))
                assert traj.dirichlet_values.tolist() == want.tolist()

    def test_evolve_matches_per_sample_loop(self, acceptance_chains):
        times = np.linspace(0.0, 30.0, 41)
        for k, chain in enumerate(acceptance_chains):
            rho0 = bl.random_density(chain, np.random.default_rng(k), 1.0)
            for e in ENTROPIES:
                traj = bl.evolve(chain, e, rho0, times)
                ent, dir_ = _reference_functionals(chain, e, traj.densities)
                assert np.array_equal(traj.entropy_values, ent)
                assert np.array_equal(traj.dirichlet_values, dir_)

    def test_single_sample_trajectory(self, rt3):
        rho0 = bl.random_density(rt3, np.random.default_rng(2), 1.0)
        traj = bl.evolve(rt3, bl.log_entropy(), rho0, [0.5])
        ent, dir_ = _reference_functionals(rt3, bl.log_entropy(),
                                           traj.densities)
        assert np.array_equal(traj.entropy_values, ent)
        assert np.array_equal(traj.dirichlet_values, dir_)


def _decay_check_reference(traj, lam):
    """The per-s scan: the worst gap over s < t and the first pair that
    reaches it in (s, t) order."""
    dval, t = traj.dirichlet_values, traj.times
    worst, witness = 0.0, None
    for i in range(len(t)):
        gap = dval[i + 1:] - dval[i] * np.exp(-lam * (t[i + 1:] - t[i]))
        if len(gap) and float(np.max(gap)) > worst:
            worst = float(np.max(gap))
            j = int(np.argmax(gap)) + i + 1
            witness = {"s": float(t[i]), "t": float(t[j])}
    return worst, witness


class TestDirichletDecayPairs:
    @pytest.mark.parametrize("block", [None, 100, 1])
    @pytest.mark.parametrize("seed,factor", [(9, 10.0), (8, 1.0), (3, 1.5)])
    def test_matches_per_s_scan(self, rt4, monkeypatch, block, seed, factor):
        # the default evaluates the 41 x 41 pairs at once; block 100 takes
        # two rows s at a time, block 1 one (a block is at least one row)
        if block is not None:
            monkeypatch.setattr(bl.dynamics, "_PAIR_BLOCK", block)
        rho0 = bl.random_density(rt4, np.random.default_rng(seed), 1.0)
        e = bl.power_entropy(1.5)
        traj = bl.evolve(rt4, e, rho0, np.linspace(0.0, 5.0, 41))
        lam = factor * 2.0 / 3.0
        worst, witness = _decay_check_reference(traj, lam)
        check = bl.dirichlet_decay_check(traj, lam)
        scale = float(np.max(np.abs(traj.dirichlet_values)) + 1e-300)
        assert check.max_residual == worst / scale
        assert check.passed == (worst <= 1e-9 * scale)
        assert check.witness == (None if check.passed else witness)
        if factor == 10.0:
            assert not check.passed

    def test_first_of_tied_pairs_is_the_witness(self):
        # exp(-1000 (t - s)) underflows to 0, so a constant production
        # ties every pair s < t at a gap of 1
        times = np.arange(5.0)
        traj = bl.dynamics.Trajectory(times, np.ones((5, 2)), np.ones(5),
                                      np.ones(5))
        check = bl.dirichlet_decay_check(traj, 1e3)
        assert check.max_residual == 1.0
        assert check.witness == {"s": 0.0, "t": 1.0} == \
            _decay_check_reference(traj, 1e3)[1]
